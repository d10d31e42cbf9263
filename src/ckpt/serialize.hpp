// Binary state serialization for crash-safe snapshots (docs/
// checkpointing.md). An Encoder is an append-only little-endian byte
// sink; a Decoder walks the same bytes back with strict bounds
// checking, so a truncated or corrupted payload surfaces as a
// CkptError instead of silently restoring garbage.
//
// Components name their snapshot fields once, in a state(Archive&)
// member: the same field list writes the section through an Encoder
// and reads it back through a Decoder. The invariant every component
// keeps: loading what it saved reproduces it exactly — the checkpoint
// tests assert bit-identical simulation results after a save/restore
// round trip.
#pragma once

#include <bit>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace virec::ckpt {

/// Every checkpoint-layer failure (I/O, bounds, CRC, version or config
/// mismatch) throws this.
class CkptError : public std::runtime_error {
 public:
  explicit CkptError(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention).
u32 crc32(const void* data, std::size_t size, u32 seed = 0);

/// Append-only little-endian byte sink.
class Encoder {
 public:
  void put_u8(u8 v) { bytes_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u16(u16 v) {
    put_u8(static_cast<u8>(v));
    put_u8(static_cast<u8>(v >> 8));
  }
  void put_u32(u32 v) {
    put_u16(static_cast<u16>(v));
    put_u16(static_cast<u16>(v >> 16));
  }
  void put_u64(u64 v) {
    put_u32(static_cast<u32>(v));
    put_u32(static_cast<u32>(v >> 32));
  }
  /// Doubles travel by bit pattern: restore is exact, never a reparse.
  void put_f64(double v);
  void put_str(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* data, std::size_t size);

  void put_u64_vec(const std::vector<u64>& v) {
    put_u32(static_cast<u32>(v.size()));
    for (u64 x : v) put_u64(x);
  }

  const std::vector<u8>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<u8> bytes_;
};

/// Bounds-checked reader over an encoded payload. Does not own the
/// bytes; the CheckpointReader (or test) that produced them must
/// outlive the Decoder.
class Decoder {
 public:
  Decoder(const u8* data, std::size_t size, std::string context = "payload")
      : data_(data), size_(size), context_(std::move(context)) {}

  u8 get_u8() {
    need(1);
    return data_[pos_++];
  }
  u16 get_u16() {
    const u16 lo = get_u8();
    return static_cast<u16>(lo | (static_cast<u16>(get_u8()) << 8));
  }
  u32 get_u32() {
    const u32 lo = get_u16();
    return lo | (static_cast<u32>(get_u16()) << 16);
  }
  u64 get_u64() {
    const u64 lo = get_u32();
    return lo | (static_cast<u64>(get_u32()) << 32);
  }
  std::string get_str();
  void raw(void* out, std::size_t size);

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// What the bytes are ("section 'core0'"), for error messages.
  const std::string& context() const { return context_; }
  /// Restore must consume the section exactly; trailing bytes mean the
  /// snapshot and the code disagree about the format.
  void finish() const;

 private:
  void need(std::size_t n) const;

  const u8* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Write @p size bytes to @p path atomically: into a temp file beside it
/// whose name carries a ".tmp." infix and is unique per call (across
/// threads and processes), flushed, then renamed over @p path. A crash
/// never leaves a half-written file under @p path; on any failure the
/// temp file is removed and CkptError is thrown.
void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size);

/// Moves one component's snapshot fields in one direction: out through
/// an Encoder or in through a Decoder, so one field list both saves and
/// loads. The checked primitives (length, vec, seq, index, enumeration)
/// refuse a loaded value the live component could not use, from a
/// mismatched configuration or hostile bytes behind valid CRCs, with a
/// CkptError that names the field.
class Archive {
 public:
  explicit Archive(Encoder& enc) : enc_(&enc) {}
  explicit Archive(Decoder& dec) : dec_(&dec) {}

  bool loading() const { return dec_ != nullptr; }

  /// Move each field by its type: an integer little-endian at its width
  /// (bool as one byte), a double by bit pattern, a string as a u32
  /// length and its bytes, a std::array element by element.
  template <typename... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  /// @p size raw bytes at @p data.
  void bytes(void* data, std::size_t size);

  /// A u32 element count that must equal @p live, the length of the
  /// live container the caller then walks.
  void length(std::size_t live, const char* what);

  /// A fixed-length vector: its length(), then every element.
  template <typename T>
  void vec(std::vector<T>& v, const char* what) {
    length(v.size(), what);
    for (T& x : v) field(x);
  }

  /// A container whose length varies at run time: a u32 count, at most
  /// @p max on load, then @p each(element). Loading grows the container
  /// one decoded element at a time, so a hostile count runs out of
  /// bytes before it runs out of memory.
  template <typename C, typename Fn>
  void seq(C& c, std::size_t max, const char* what, Fn each) {
    u32 n = static_cast<u32>(c.size());
    field(n);
    if (!loading()) {
      for (auto& x : c) each(x);
      return;
    }
    if (n > max) refuse(what, n, "at most", max);
    c.clear();
    for (u32 i = 0; i < n; ++i) each(c.emplace_back());
  }

  /// An index below @p bound; a signed one may also be -1 (none). An
  /// int travels as i64.
  template <typename T>
  void index(T& v, std::size_t bound, const char* what) {
    using Wire = std::conditional_t<std::is_same_v<T, int>, i64, T>;
    Wire w = static_cast<Wire>(v);
    field(w);
    if (!loading()) return;
    const i64 s = static_cast<i64>(w);
    if (!(std::is_signed_v<Wire> && s == -1) &&
        (s < 0 || static_cast<u64>(s) >= bound)) {
      refuse(what, s, "below", bound);
    }
    v = static_cast<T>(w);
  }

  /// A one-byte enum that must not exceed @p last.
  template <typename E>
  void enumeration(E& v, E last, const char* what) {
    static_assert(std::is_enum_v<E> && sizeof(E) == 1);
    u8 w = static_cast<u8>(v);
    field(w);
    if (!loading()) return;
    if (w > static_cast<u8>(last)) {
      refuse(what, w, "at most", static_cast<u8>(last));
    }
    v = static_cast<E>(w);
  }

  /// Refuse the section being loaded: throws CkptError naming it.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  /// fail() with "<what> is <value>, must be <rule> <limit>".
  [[noreturn]] void refuse(const char* what, i64 value, const char* rule,
                           u64 limit) const;

  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      u8 b = v ? 1 : 0;
      field(b);
      v = b != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      u64 bits = std::bit_cast<u64>(v);
      field(bits);
      v = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (loading()) {
        v = dec_->get_str();
      } else {
        enc_->put_str(v);
      }
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(!std::is_same_v<T, int>, "an int travels via index()");
      u64 u = loading() ? 0 : static_cast<std::make_unsigned_t<T>>(v);
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        if (loading()) {
          u |= u64{dec_->get_u8()} << (8 * i);
        } else {
          enc_->put_u8(static_cast<u8>(u >> (8 * i)));
        }
      }
      v = static_cast<T>(u);
    } else {
      for (auto& x : v) field(x);  // std::array
    }
  }

  Encoder* enc_ = nullptr;
  Decoder* dec_ = nullptr;
};

}  // namespace virec::ckpt

// Binary state serialization for crash-safe snapshots (docs/
// checkpointing.md). An Encoder is an append-only little-endian byte
// sink; a Decoder walks the same bytes back with strict bounds
// checking, so a truncated or corrupted payload surfaces as a
// CkptError instead of silently restoring garbage.
//
// Components implement the Serializable interface (or plain
// save_state/restore_state member functions for sub-components owned
// by a Serializable parent). The invariant every implementation must
// keep: restore_state(save_state(x)) reproduces x exactly — the
// checkpoint tests assert bit-identical simulation results after a
// save/restore round trip.
#pragma once

#include <stdexcept>
#include <string>
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
  void put_i64(i64 v) { put_u64(static_cast<u64>(v)); }
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
  void put_cycle_vec(const std::vector<Cycle>& v) {
    put_u32(static_cast<u32>(v.size()));
    for (Cycle x : v) put_u64(x);
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
  bool get_bool() { return get_u8() != 0; }
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
  i64 get_i64() { return static_cast<i64>(get_u64()); }
  double get_f64();
  std::string get_str();
  void raw(void* out, std::size_t size);

  std::vector<u64> get_u64_vec() {
    const u32 n = get_u32();
    // Bytes before memory: a hostile count fails here, not in the
    // allocator.
    need(static_cast<std::size_t>(n) * sizeof(u64));
    std::vector<u64> v;
    v.reserve(n);
    for (u32 i = 0; i < n; ++i) v.push_back(get_u64());
    return v;
  }
  std::vector<Cycle> get_cycle_vec() { return get_u64_vec(); }

  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }
  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
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

/// Save/restore interface implemented by every stateful component that
/// owns a checkpoint section (cores, context managers, caches, DRAM,
/// the crossbar, the functional memory, stat sets, ...).
class Serializable {
 public:
  virtual ~Serializable() = default;
  virtual void save_state(Encoder& enc) const = 0;
  virtual void restore_state(Decoder& dec) = 0;
};

}  // namespace virec::ckpt

#include "ckpt/serialize.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace virec::ckpt {

namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> table{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

u32 crc32(const void* data, std::size_t size, u32 seed) {
  static const std::array<u32, 256> table = make_crc_table();
  const u8* p = static_cast<const u8*>(data);
  u32 c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void Encoder::put_f64(double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void Encoder::raw(const void* data, std::size_t size) {
  const u8* p = static_cast<const u8*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

void Decoder::need(std::size_t n) const {
  if (size_ - pos_ < n) {
    throw CkptError("checkpoint " + context_ + ": truncated (need " +
                    std::to_string(n) + " bytes at offset " +
                    std::to_string(pos_) + " of " + std::to_string(size_) +
                    ")");
  }
}

std::string Decoder::get_str() {
  const u32 n = get_u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void Decoder::raw(void* out, std::size_t size) {
  need(size);
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

void Decoder::finish() const {
  if (!done()) {
    throw CkptError("checkpoint " + context_ + ": " +
                    std::to_string(remaining()) +
                    " trailing bytes after restore (format mismatch)");
  }
}

void Archive::bytes(void* data, std::size_t size) {
  if (loading()) {
    dec_->raw(data, size);
  } else {
    enc_->raw(data, size);
  }
}

void Archive::length(std::size_t live, const char* what) {
  u32 n = static_cast<u32>(live);
  field(n);
  if (loading() && n != live) {
    fail(std::string(what) + ": snapshot has " + std::to_string(n) +
         ", this system has " + std::to_string(live));
  }
}

void Archive::fail(const std::string& why) const {
  throw CkptError("checkpoint " + dec_->context() + ": " + why);
}

void Archive::refuse(const char* what, i64 value, const char* rule,
                     u64 limit) const {
  fail(std::string(what) + " is " + std::to_string(value) + ", must be " +
       rule + " " + std::to_string(limit));
}

void write_file_atomic(const std::string& path, const void* data,
                       std::size_t size) {
  static std::atomic<u64> next_tmp{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_tmp.fetch_add(1));
  const auto fail = [&](const std::string& why) {
    std::remove(tmp.c_str());
    throw CkptError(why);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + tmp + " for writing");
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    out.flush();
    if (!out) fail("write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    fail("cannot rename " + tmp + " to " + path + ": " + ec.message());
  }
}

}  // namespace virec::ckpt

// Hostile snapshot bytes for the checkpoint reader's field checks: a
// copy of a snapshot file with one field of one section overwritten and
// that section's CRC recomputed, so the file passes every integrity
// check and only the field checks stand between its bytes and the
// model.
#pragma once

#include <cstddef>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"

namespace virec::test {

class PlantedSnapshot {
 public:
  explicit PlantedSnapshot(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  /// The @p width-byte little-endian field at payload offset @p offset
  /// of @p section.
  u64 get(const std::string& section, std::size_t offset,
          std::size_t width) const {
    return read(bytes_, find(section).payload + offset, width);
  }

  /// Write the snapshot to @p out with that field set to @p value and
  /// the section's CRC recomputed; returns @p out.
  std::string plant(const std::string& section, std::size_t offset,
                    std::size_t width, u64 value,
                    const std::string& out) const {
    std::vector<u8> bytes = bytes_;
    const Section s = find(section);
    write(bytes, s.payload + offset, width, value);
    write(bytes, s.payload - 4, 4,
          ckpt::crc32(bytes.data() + s.payload, s.size));
    std::ofstream(out, std::ios::binary)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    return out;
  }

 private:
  struct Section {
    std::size_t payload;  // offset of the payload in the file
    std::size_t size;
  };

  static u64 read(const std::vector<u8>& bytes, std::size_t at,
                  std::size_t width) {
    u64 v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= u64{bytes.at(at + i)} << (8 * i);
    }
    return v;
  }
  static void write(std::vector<u8>& bytes, std::size_t at,
                    std::size_t width, u64 value) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes.at(at + i) = static_cast<u8>(value >> (8 * i));
    }
  }

  /// Walk the layout of ckpt/checkpoint.hpp: a 20-byte header ending in
  /// the section count, then per section its name (u32 length and
  /// bytes), payload length (u64), CRC (u32) and payload.
  Section find(const std::string& name) const {
    std::size_t pos = 20;
    for (u64 n = read(bytes_, 16, 4); n > 0; --n) {
      const std::size_t name_len = read(bytes_, pos, 4);
      const auto first = bytes_.begin() + static_cast<std::ptrdiff_t>(pos + 4);
      const std::string section(first,
                                first + static_cast<std::ptrdiff_t>(name_len));
      pos += 4 + name_len;
      const Section s{pos + 12, read(bytes_, pos, 8)};
      if (section == name) return s;
      pos = s.payload + s.size;
    }
    throw std::invalid_argument("snapshot has no section " + name);
  }

  std::vector<u8> bytes_;
};

}  // namespace virec::test

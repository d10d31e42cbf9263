// Versioned, crash-safe snapshot files (docs/checkpointing.md).
//
// Layout (all integers little-endian):
//
//   magic          u32   'VCKP' (0x504b4356 on disk: "VCKP")
//   format_version u32   kFormatVersion
//   config_hash    u64   hash of the producing SystemConfig + workload
//   section_count  u32
//   per section:
//     name_len     u32   then name bytes
//     payload_len  u64
//     crc32        u32   CRC-32 of the payload bytes
//     payload
//
// Writes are atomic (ckpt::write_file_atomic): the file is assembled
// in a unique temp file beside the target and renamed into place, so a
// crash mid-write never leaves a half-written snapshot under the final
// name. Restores verify the magic, the format version, the config hash
// and every section's CRC before any component state is touched.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"

namespace virec::ckpt {

/// Bumped whenever the snapshot layout changes incompatibly. Restoring
/// a file with a different version fails cleanly. v2: cycle-accounting
/// state; v3: no prepass flag in the sampled-run "tiered" section, a
/// section no snapshot carries any more.
inline constexpr u32 kFormatVersion = 3;
inline constexpr u32 kMagic = 0x504b4356u;  // "VCKP"

/// Assembles a snapshot in memory, then writes it atomically.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(u64 config_hash) : config_hash_(config_hash) {}

  /// Start a new section; returns the encoder to fill its payload.
  /// Section order is part of the format: readers consume sections in
  /// the order they were written.
  Encoder& section(std::string name);

  /// Serialise everything to @p path via temp file + rename. Creates
  /// missing parent directories. Throws CkptError on I/O failure.
  void write_file(const std::string& path) const;

  /// The assembled snapshot bytes (exposed for tests).
  std::vector<u8> bytes() const;

 private:
  struct Section {
    std::string name;
    Encoder payload;
  };

  u64 config_hash_;
  // deque-like stability not needed: sections are appended and the
  // encoder reference is only used until the next section() call.
  std::vector<std::unique_ptr<Section>> sections_;
};

/// Loads a snapshot, validates header + per-section CRCs up front, and
/// hands out section decoders in file order.
class CheckpointReader {
 public:
  /// Reads and validates @p path. @p expected_config_hash must match
  /// the file's config hash ("refuse to restore into a mismatched
  /// SystemConfig").
  CheckpointReader(const std::string& path, u64 expected_config_hash);

  /// Decoder over the next section, which must be named @p name.
  Decoder section(const std::string& name);

  u32 format_version() const { return version_; }
  u64 config_hash() const { return config_hash_; }
  std::size_t section_count() const { return sections_.size(); }

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  // into file_
    std::size_t size = 0;
  };

  std::string path_;
  std::vector<u8> file_;
  u32 version_ = 0;
  u64 config_hash_ = 0;
  std::vector<Section> sections_;
  std::size_t next_section_ = 0;
};

/// One snapshot's sections in file order, in either direction: the
/// list of (name, component) pairs a system names once both writes the
/// snapshot and reads it back.
class Sections {
 public:
  explicit Sections(CheckpointWriter& writer) : writer_(&writer) {}
  explicit Sections(CheckpointReader& reader) : reader_(&reader) {}

  /// Move section @p name through @p fields. Loading must consume the
  /// section exactly.
  void operator()(const std::string& name,
                  const std::function<void(Archive&)>& fields);
  /// Move section @p name through @p component.state(Archive&).
  template <typename T>
  void operator()(const std::string& name, T& component) {
    (*this)(name, [&component](Archive& ar) { component.state(ar); });
  }

 private:
  CheckpointWriter* writer_ = nullptr;
  CheckpointReader* reader_ = nullptr;
};

}  // namespace virec::ckpt

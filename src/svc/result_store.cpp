#include "svc/result_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/version.hpp"

namespace fs = std::filesystem;

namespace virec::svc {

namespace {

// An entry file is Entry's fields (little-endian), then a u32 entry_crc
// over every preceding byte. It covers the whole file, so a flip
// anywhere — header, provenance, identity, payload — reads as
// corruption; the payload_crc additionally survives future
// envelope-layout changes.
constexpr const char* kEntrySuffix = ".vres";

/// The one field list put() writes and lookup_entry() reads back.
struct Entry {
  u32 magic = kStoreMagic;
  u32 format_version = kStoreFormatVersion;
  u64 spec_hash = 0;
  std::string provenance;
  double wall_secs = 0.0;
  std::vector<u8> identity;  ///< ckpt::encode_spec_identity bytes
  u32 payload_crc = 0;
  std::vector<u8> payload;   ///< ckpt::encode_result bytes

  void state(ckpt::Archive& ar) {
    // A byte string loads one byte at a time: a planted length runs out
    // of entry before it sizes anything.
    const auto byte = [&ar](u8& b) { ar(b); };
    ar(magic, format_version, spec_hash, provenance, wall_secs);
    ar.seq(identity, ~u32{0}, "identity", byte);
    ar(payload_crc);
    ar.seq(payload, ~u32{0}, "payload", byte);
  }
};

/// Whole-file integrity: true iff @p bytes ends in a valid entry_crc.
/// On success *body_size excludes the trailing CRC word.
bool check_entry_crc(const std::vector<u8>& bytes, std::size_t* body_size) {
  if (bytes.size() < sizeof(u32)) return false;
  const std::size_t body = bytes.size() - sizeof(u32);
  u32 stored = 0;
  for (int i = 3; i >= 0; --i) {
    stored = (stored << 8) | bytes[body + static_cast<std::size_t>(i)];
  }
  if (ckpt::crc32(bytes.data(), body) != stored) return false;
  *body_size = body;
  return true;
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<u8>(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
}

bool is_entry_file(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == kEntrySuffix;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("result store: cannot create directory " + dir_ +
                             (ec ? ": " + ec.message() : ""));
  }
}

std::string ResultStore::entry_path(u64 hash) const {
  char name[32];
  std::snprintf(name, sizeof name, "%016llx",
                static_cast<unsigned long long>(hash));
  return dir_ + "/" + name + kEntrySuffix;
}

bool ResultStore::lookup_entry(u64 hash, const sim::RunSpec& spec,
                               StoreEntry* out) const {
  const std::vector<u8> bytes = read_file(entry_path(hash));
  std::size_t body_size = 0;
  if (!check_entry_crc(bytes, &body_size)) return false;
  try {
    Entry entry;
    ckpt::Decoder dec(bytes.data(), body_size, "store entry");
    ckpt::Archive ar(dec);
    entry.state(ar);
    dec.finish();
    // Identity verification: the stored canonical spec bytes must match
    // the requested spec exactly — a hash collision or codec drift is a
    // miss, never a wrong result.
    ckpt::Encoder want;
    ckpt::encode_spec_identity(want, spec);
    if (entry.magic != kStoreMagic ||
        entry.format_version != kStoreFormatVersion ||
        entry.spec_hash != hash || entry.identity != want.bytes() ||
        ckpt::crc32(entry.payload.data(), entry.payload.size()) !=
            entry.payload_crc) {
      return false;
    }
    ckpt::Decoder pdec(entry.payload.data(), entry.payload.size(),
                       "store payload");
    StoreEntry found{ckpt::decode_result(pdec), entry.wall_secs,
                     std::move(entry.provenance)};
    pdec.finish();
    if (out != nullptr) *out = std::move(found);
    return true;
  } catch (const ckpt::CkptError&) {
    return false;  // truncated/corrupt entry: a miss, the point re-runs
  }
}

bool ResultStore::lookup(u64 hash, const sim::RunSpec& spec,
                         sim::RunResult* out) const {
  StoreEntry entry;
  if (!lookup_entry(hash, spec, &entry)) return false;
  if (out != nullptr) *out = std::move(entry.result);
  return true;
}

void ResultStore::put(u64 hash, const sim::RunSpec& spec,
                      const sim::RunResult& result, double wall_secs) {
  ckpt::Encoder identity;
  ckpt::encode_spec_identity(identity, spec);
  ckpt::Encoder payload;
  ckpt::encode_result(payload, result);
  const u32 payload_crc = ckpt::crc32(payload.bytes().data(), payload.size());
  Entry entry{.spec_hash = hash,
              .provenance = build::provenance(),
              .wall_secs = wall_secs,
              .identity = identity.bytes(),
              .payload_crc = payload_crc,
              .payload = payload.bytes()};
  ckpt::Encoder enc;
  ckpt::Archive ar(enc);
  entry.state(ar);
  enc.put_u32(ckpt::crc32(enc.bytes().data(), enc.size()));

  // write_file_atomic's unique temp name keeps concurrent writers —
  // sweep worker threads, or separate processes sharing one store —
  // off each other's partial file; rename is atomic and last-writer-wins
  // on identical content.
  ckpt::write_file_atomic(entry_path(hash), enc.bytes().data(), enc.size());
}

std::size_t ResultStore::size() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (is_entry_file(e)) ++n;
  }
  return n;
}

}  // namespace virec::svc

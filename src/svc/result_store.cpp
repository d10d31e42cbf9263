#include "svc/result_store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/version.hpp"

namespace fs = std::filesystem;

namespace virec::svc {

namespace {

// Entry layout (via ckpt::Encoder, little-endian):
//   u32 magic, u32 format_version, u64 spec_hash,
//   str provenance, f64 wall_secs,
//   u32 identity_len + identity bytes (canonical spec encoding),
//   u32 payload_crc, u32 payload_len + payload (encoded RunResult),
//   u32 entry_crc (crc32 of every preceding byte).
// The trailing entry_crc covers the whole file, so a flip anywhere —
// header, provenance, identity, payload — reads as corruption; the
// payload_crc additionally survives future envelope-layout changes.
constexpr const char* kEntrySuffix = ".vres";

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
  if (bytes.empty()) return false;
  std::size_t body_size = 0;
  if (!check_entry_crc(bytes, &body_size)) return false;
  try {
    ckpt::Decoder dec(bytes.data(), body_size, "store entry");
    if (dec.get_u32() != kStoreMagic) return false;
    if (dec.get_u32() != kStoreFormatVersion) return false;
    if (dec.get_u64() != hash) return false;
    StoreEntry entry;
    entry.provenance = dec.get_str();
    entry.wall_secs = dec.get_f64();
    // Identity verification: the stored canonical spec bytes must match
    // the requested spec exactly — a hash collision or codec drift is a
    // miss, never a wrong result.
    ckpt::Encoder want;
    ckpt::encode_spec_identity(want, spec);
    const u32 identity_len = dec.get_u32();
    if (identity_len != want.size()) return false;
    std::vector<u8> identity(identity_len);
    dec.raw(identity.data(), identity_len);
    if (identity != want.bytes()) return false;
    const u32 payload_crc = dec.get_u32();
    const u32 payload_len = dec.get_u32();
    // Bytes before memory: a planted length must not size the buffer.
    if (payload_len > dec.remaining()) return false;
    std::vector<u8> payload(payload_len);
    dec.raw(payload.data(), payload_len);
    dec.finish();
    if (ckpt::crc32(payload.data(), payload.size()) != payload_crc) {
      return false;
    }
    ckpt::Decoder pdec(payload.data(), payload.size(), "store payload");
    entry.result = ckpt::decode_result(pdec);
    pdec.finish();
    if (out != nullptr) *out = std::move(entry);
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
  ckpt::Encoder payload;
  ckpt::encode_result(payload, result);

  ckpt::Encoder enc;
  enc.put_u32(kStoreMagic);
  enc.put_u32(kStoreFormatVersion);
  enc.put_u64(hash);
  enc.put_str(build::provenance());
  enc.put_f64(wall_secs);
  ckpt::Encoder identity;
  ckpt::encode_spec_identity(identity, spec);
  enc.put_u32(static_cast<u32>(identity.size()));
  enc.raw(identity.bytes().data(), identity.size());
  enc.put_u32(ckpt::crc32(payload.bytes().data(), payload.size()));
  enc.put_u32(static_cast<u32>(payload.size()));
  enc.raw(payload.bytes().data(), payload.size());
  const u32 entry_crc = ckpt::crc32(enc.bytes().data(), enc.size());
  enc.put_u32(entry_crc);

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

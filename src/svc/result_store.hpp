// The one persistent home of finished experiment points
// (docs/checkpointing.md, "Result store"): a content-addressed cache
// that sim::run_points reads before simulating and fills as each point
// finishes — `virec-sim --sweep --store DIR` and `virec-repro --store
// DIR`. One file per point under the store directory, named
// by the point's canonical identity hash (ckpt::spec_hash), in a
// versioned, CRC-checked binary format whose fields one ckpt::Archive
// field list both writes and reads.
//
// Safety properties (enforced by tests/test_svc.cpp and
// tests/test_sweep.cpp):
//   * writes are atomic (unique temp file + rename), so a killed
//     writer never leaves a half-written entry under a live name and
//     concurrent writers of the same point — threads or processes —
//     converge on one valid file;
//   * lookups verify a whole-entry CRC, the magic, format version,
//     the stored identity bytes (guarding against hash collisions and
//     codec drift) and the payload CRC — a flip of any byte in the
//     file reads as a miss, so corruption causes a clean re-run (which
//     rewrites the entry), never a wrong or crashed result;
//   * entries embed the producing build's provenance string, so every
//     cached result is attributable to the binary that computed it.
#pragma once

#include <cstddef>
#include <string>

#include "ckpt/spec_codec.hpp"

namespace virec::svc {

/// Bumped whenever the entry layout changes incompatibly; old entries
/// then read as misses.
inline constexpr u32 kStoreFormatVersion = 1;
inline constexpr u32 kStoreMagic = 0x53455256u;  // "VRES"

/// A stored point plus its metadata.
struct StoreEntry {
  sim::RunResult result;
  double wall_secs = 0.0;   ///< producer's execution wall time
  std::string provenance;   ///< build that produced it
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit ResultStore(std::string dir);

  /// Result for @p spec, verified against its identity bytes; false on
  /// miss, version mismatch or any corruption (all equivalent to "not
  /// cached"). @p hash must be ckpt::spec_hash(spec) (passed in so
  /// callers hashing once can reuse it).
  bool lookup(u64 hash, const sim::RunSpec& spec,
              sim::RunResult* out) const;

  /// Full entry including metadata; same miss semantics as lookup().
  bool lookup_entry(u64 hash, const sim::RunSpec& spec,
                    StoreEntry* out) const;

  /// Persist a completed point (atomic temp + rename; last writer
  /// wins, which is safe because identical specs produce identical
  /// results). Throws ckpt::CkptError (a std::runtime_error) on I/O
  /// failure.
  void put(u64 hash, const sim::RunSpec& spec,
           const sim::RunResult& result, double wall_secs = 0.0);

  /// Number of entry files currently on disk (directory scan).
  std::size_t size() const;

  const std::string& dir() const { return dir_; }

  /// Path of the entry file for @p hash (exposed for tests).
  std::string entry_path(u64 hash) const;

 private:
  std::string dir_;
};

}  // namespace virec::svc

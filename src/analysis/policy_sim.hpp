// Offline register-cache policy simulation on interleaved access
// traces.
//
// Section 4 motivates LRC as "aimed at evicting the registers used
// furthest in the future, similar to Belady's min". This module
// quantifies that: it builds the same round-robin-interleaved
// (thread, register) access trace the ViReC RF sees and replays it
// through a fully-associative cache of a given size under
//   * OPT      — Belady's clairvoyant optimum (upper bound),
//   * LRU      — perfect recency (thrashes under round-robin),
//   * FIFO,
//   * MRT-LRU  — thread recency first, then LRU within a thread,
// so the online LRC hit rate from the timing simulator can be placed
// between the implementable policies and the theoretical bound.
#pragma once

#include <vector>

#include "workloads/workload.hpp"

namespace virec::analysis {

/// One register access in the interleaved trace.
struct TraceAccess {
  u8 tid = 0;
  isa::RegId arch = 0;
  u32 key() const { return static_cast<u32>(tid) * 64 + arch; }
};

/// Round-robin interleaving of per-thread register access streams with
/// a fixed number of accesses per scheduling episode (the offline
/// stand-in for CGMT context switching).
std::vector<TraceAccess> interleaved_trace(
    const workloads::Workload& workload,
    const workloads::WorkloadParams& params, u32 threads,
    u32 accesses_per_episode, u64 max_instructions = 50'000'000);

struct OfflineHitRates {
  double opt = 0.0;
  double lru = 0.0;
  double fifo = 0.0;
  double mrt_lru = 0.0;
  u64 accesses = 0;
};

/// Replay @p trace through an @p rf_entries-entry fully-associative
/// register cache under each offline policy. @p threads must cover
/// every tid in the trace: MRT-LRU ranks threads by when each was last
/// suspended, read off the trace's thread changes.
OfflineHitRates offline_hit_rates(const std::vector<TraceAccess>& trace,
                                  u32 rf_entries, u32 threads);

/// Belady's optimal hit rate alone (convenience).
double belady_hit_rate(const std::vector<TraceAccess>& trace, u32 rf_entries);

}  // namespace virec::analysis

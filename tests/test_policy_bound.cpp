// Offline policy simulation tests (Belady bound, LRU/FIFO/MRT-LRU on
// interleaved register traces).
#include <gtest/gtest.h>

#include <set>

#include "analysis/policy_sim.hpp"

namespace virec::analysis {
namespace {

workloads::WorkloadParams tiny_params() {
  workloads::WorkloadParams params;
  params.iters_per_thread = 48;
  params.elements = 1 << 12;
  return params;
}

std::vector<TraceAccess> gather_trace(u32 threads = 4) {
  return interleaved_trace(workloads::find_workload("gather"), tiny_params(),
                           threads, 14);
}

TEST(Trace, NonEmptyAndWellFormed) {
  const auto trace = gather_trace();
  ASSERT_FALSE(trace.empty());
  for (const TraceAccess& a : trace) {
    EXPECT_LT(a.tid, 4);
    EXPECT_LT(a.arch, isa::kNumAllocatableRegs);
  }
}

TEST(Trace, EpisodesInterleaveThreads) {
  const auto trace = gather_trace();
  // The first access is thread 0's; within the first 4 episodes every
  // thread must appear.
  std::set<u8> seen;
  for (std::size_t i = 0; i < std::min<std::size_t>(trace.size(), 4 * 14);
       ++i) {
    seen.insert(trace[i].tid);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Trace, BadArgumentsThrow) {
  EXPECT_THROW(interleaved_trace(workloads::find_workload("gather"),
                                 tiny_params(), 0, 8),
               std::invalid_argument);
  EXPECT_THROW(interleaved_trace(workloads::find_workload("gather"),
                                 tiny_params(), 2, 0),
               std::invalid_argument);
}

TEST(Belady, PerfectWhenEverythingFits) {
  const auto trace = gather_trace();
  // 4 threads x at most 31 registers.
  const double hit = belady_hit_rate(trace, 4 * 31);
  // Only first touches miss.
  EXPECT_GT(hit, 0.95);
}

TEST(Belady, DegradesWithSize) {
  const auto trace = gather_trace();
  double prev = -1.0;
  for (u32 rf : {4u, 8u, 16u, 32u}) {
    const double hit = belady_hit_rate(trace, rf);
    EXPECT_GE(hit, prev);
    prev = hit;
  }
}

TEST(Belady, DominatesEveryOnlinePolicy) {
  const auto trace = gather_trace();
  for (u32 rf : {6u, 12u, 18u, 24u}) {
    const OfflineHitRates rates = offline_hit_rates(trace, rf, 4);
    EXPECT_GE(rates.opt + 1e-9, rates.lru) << rf;
    EXPECT_GE(rates.opt + 1e-9, rates.fifo) << rf;
    EXPECT_GE(rates.opt + 1e-9, rates.mrt_lru) << rf;
  }
}

TEST(Offline, MrtLruBeatsLruUnderRoundRobin) {
  // The Section 4.1 effect, measured offline: plain LRU victimises the
  // next-to-run thread's registers.
  const auto trace = gather_trace(8);
  const OfflineHitRates rates = offline_hit_rates(trace, 24, 8);
  EXPECT_GT(rates.mrt_lru, rates.lru + 0.05);
}

TEST(Offline, AllPoliciesPerfectAtFullCapacity) {
  const auto trace = gather_trace();
  const OfflineHitRates rates = offline_hit_rates(trace, 4 * 31, 4);
  EXPECT_NEAR(rates.opt, rates.lru, 1e-9);
  EXPECT_NEAR(rates.opt, rates.fifo, 1e-9);
  EXPECT_NEAR(rates.opt, rates.mrt_lru, 1e-9);
}

TEST(Offline, Deterministic) {
  const auto trace = gather_trace();
  const OfflineHitRates a = offline_hit_rates(trace, 12, 4);
  const OfflineHitRates b = offline_hit_rates(trace, 12, 4);
  EXPECT_EQ(a.opt, b.opt);
  EXPECT_EQ(a.lru, b.lru);
  EXPECT_EQ(a.mrt_lru, b.mrt_lru);
}

TEST(Offline, EmptyTraceIsTriviallyPerfect) {
  const OfflineHitRates rates = offline_hit_rates({}, 8, 4);
  EXPECT_EQ(rates.opt, 1.0);
  EXPECT_EQ(rates.accesses, 0u);
}

TEST(Offline, ZeroEntryRfThrows) {
  EXPECT_THROW(offline_hit_rates(gather_trace(), 0, 4), std::invalid_argument);
}

TEST(Offline, HandCraftedBeladyExample) {
  // Classic: A B C A B C with 2 entries.
  // OPT: A miss, B miss, C miss (evict B, keep A since A is next)...
  auto mk = [](u8 arch) { return TraceAccess{0, arch}; };
  const std::vector<TraceAccess> trace = {mk(0), mk(1), mk(2),
                                          mk(0), mk(1), mk(2)};
  // OPT with 2 entries: misses A,B,C, then A hits iff kept. Best
  // achievable: 2 hits (keep the nearest-reused key each time).
  EXPECT_NEAR(belady_hit_rate(trace, 2), 2.0 / 6.0, 1e-9);
  // LRU gets zero hits on this pattern.
  const OfflineHitRates rates = offline_hit_rates(trace, 2, 1);
  EXPECT_NEAR(rates.lru, 0.0, 1e-9);
}

}  // namespace
}  // namespace virec::analysis

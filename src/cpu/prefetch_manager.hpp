// Register-context prefetching into a double buffer (the LTRF-style
// alternative evaluated in Figure 9 of the paper): two 32-entry banks;
// while one thread executes out of one bank, the predicted next
// thread's context is prefetched into the other.
//
// Two strategies:
//  * kFull  — prefetch the complete 31-register context (plus sysregs)
//             and store back the full previous context on every switch;
//  * kExact — oracle prefetch of exactly the registers the thread will
//             use in its next scheduling episode. The oracle is
//             history-based: for the loop kernels studied here a
//             thread's per-episode register set is stable, so the set
//             used in the previous episode equals the future set in
//             steady state (documented substitution in DESIGN.md).
//
// Registers that the oracle missed are demand-fetched with a decode
// stall, and a wrong next-thread prediction falls back to a demand
// fetch of the whole needed set at switch time.
#pragma once

#include <array>
#include <cstring>
#include <vector>

#include "cpu/context_manager.hpp"

namespace virec::cpu {

enum class PrefetchMode { kFull, kExact };

class PrefetchManager final : public ContextManager {
 public:
  PrefetchManager(const CoreEnv& env, PrefetchMode mode);

  Cycle on_thread_start(int tid, Cycle now) override;
  DecodeAccess on_decode(int tid, const isa::Inst& inst, Cycle now) override;
  Cycle on_context_switch(int from_tid, int to_tid, int predicted_next,
                          Cycle now) override;
  void on_thread_halt(int tid, Cycle now) override;
  void warm_thread_start(int tid, Cycle warm_now) override;
  void warm_decode(int tid, const isa::Inst& inst, Cycle warm_now) override;
  void warm_context_switch(int from_tid, int to_tid, int predicted_next,
                           Cycle warm_now) override;
  void warm_thread_halt(int tid, Cycle warm_now) override;

  u64 read_reg(int tid, isa::RegId reg) override;
  void write_reg(int tid, isa::RegId reg, u64 value) override;

  void state(ckpt::Archive& ar) override;

 private:
  using RegMask = u32;  // bit r set => x<r> involved, r in [0, 31)

  /// Issue dcache accesses for every register in @p mask starting at
  /// @p now; returns the completion of the last one.
  Cycle transfer(int tid, RegMask mask, bool is_write, Cycle now);
  /// Functional mirror of transfer(): same backing writes and dcache
  /// footprint via warm accesses, zero timing.
  void warm_transfer(int tid, RegMask mask, bool is_write, Cycle warm_now);
  /// The register set to prefetch for @p tid's next episode.
  RegMask predicted_set(int tid) const;
  /// Store the registers in @p mask of @p tid's values to the backing
  /// store (one block copy for the whole context).
  void write_back(int tid, RegMask mask);
  /// Make @p tid's registers live from the backing store (thread start).
  void load_started(int tid);

  PrefetchMode mode_;
  // Functional values (authoritative once a thread has started).
  std::vector<RegValues> values_;
  // Per-thread on-chip residency (only two threads are resident at a
  // time: the running one and the prefetched one).
  std::vector<RegMask> resident_;
  std::vector<RegMask> used_this_episode_;
  std::vector<RegMask> last_episode_used_;
  std::vector<u8> started_;
  std::vector<Cycle> prefetch_ready_;
  int prefetched_tid_ = -1;
  // Hot-path counter handles (owned by stats_).
  double* c_rf_accesses_ = nullptr;
  double* c_reg_fills_ = nullptr;
  double* c_reg_spills_ = nullptr;
  double* c_demand_fills_ = nullptr;
  double* c_context_switches_ = nullptr;
  double* c_prefetches_ = nullptr;
  double* c_prefetch_mispredicts_ = nullptr;
};

}  // namespace virec::cpu

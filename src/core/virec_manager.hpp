// The ViReC context manager (Figure 3(c) / Section 5): a small
// physical register file used as a fully-associative, hardware-managed
// cache of partial per-thread register contexts, with inactive
// registers spilled to the dcache-backed reserved memory region.
//
// Components (each its own module, mirroring Figure 7):
//   TagStore               — CAM mapping (tid, arch reg) -> phys index
//   ReplacementPolicy      — PLRU / LRU / MRT-* / LRC victim selection
//   RollbackQueue          — C-bit rollback for flushed instructions
//   BackingStoreInterface  — register fills/spills through the dcache
//   ContextSwitchLogic     — sysreg ping-pong buffer on switches
//
// The NSF (Named-State Register File) prior-work baseline is the same
// datapath with its published feature set: PLRU replacement, blocking
// BSI, no dummy-destination fill, no dcache line pinning and no sysreg
// prefetching (see make_nsf_config()).
#pragma once

#include <memory>
#include <vector>

#include "core/context_switch_logic.hpp"
#include "core/rollback_queue.hpp"
#include "core/tag_store.hpp"
#include "cpu/context_manager.hpp"
#include "cpu/trace.hpp"

namespace virec::core {

struct ViReCConfig {
  /// Physical registers shared by all thread contexts.
  u32 num_phys_regs = 32;
  PolicyKind policy = PolicyKind::kLRC;
  BsiConfig bsi{};
  CslConfig csl{};
  /// Rollback queue depth = processor backend capacity.
  u32 rollback_depth = 8;
  u64 seed = 0x5eedf00d;

  // --- future-work extensions (Section 8 of the paper) ---
  /// Group evictions: on a context switch, eagerly write back the
  /// suspended thread's dirty *committed* registers as a group, so
  /// later evictions of those entries are spill-free.
  bool group_spill = false;
  /// Prefetch + caching hybrid: on a switch, prefetch the incoming
  /// thread's previous-episode register set into the RF in the
  /// background, overlapping the pipeline refill.
  bool switch_prefetch = false;
};

/// The NSF baseline configuration evaluated in Figure 9.
ViReCConfig make_nsf_config(u32 num_phys_regs);

class ViReCManager final : public cpu::ContextManager {
 public:
  ViReCManager(const ViReCConfig& config, const cpu::CoreEnv& env);

  // --- cpu::ContextManager ---
  Cycle on_thread_start(int tid, Cycle now) override;
  cpu::DecodeAccess on_decode(int tid, const isa::Inst& inst,
                              Cycle now) override;
  void on_commit(int tid, const isa::Inst& inst) override;
  void on_mispredict_flush(int tid) override;
  Cycle on_context_switch(int from_tid, int to_tid, int predicted_next,
                          Cycle now) override;
  bool switch_allowed(Cycle now) const override;
  Cycle next_event_cycle(Cycle now) const override;
  void on_thread_halt(int tid, Cycle now) override;
  void warm_thread_start(int tid, Cycle warm_now) override;
  void warm_decode(int tid, const isa::Inst& inst, Cycle warm_now) override;
  void warm_context_switch(int from_tid, int to_tid, int predicted_next,
                           Cycle warm_now) override;
  void warm_thread_halt(int tid, Cycle warm_now) override;

  // --- isa::RegisterFileIO (functional) ---
  u64 read_reg(int tid, isa::RegId reg) override;
  void write_reg(int tid, isa::RegId reg, u64 value) override;

  // Introspection for tests and experiments.
  const TagStore& tag_store() const { return tags_; }
  const RollbackQueue& rollback_queue() const { return rollback_; }
  /// Mutable access for fault-injection tests (negative check tests).
  TagStore& tag_store_for_test() { return tags_; }
  const ViReCConfig& config() const { return config_; }
  double rf_hit_rate() const;

  /// Attach a trace sink for register fills/spills and rollback
  /// flushes (nullptr detaches; not owned). Typically the same sink
  /// the owning core uses.
  void set_tracer(cpu::TraceSink* tracer) override { tracer_ = tracer; }

  void state(ckpt::Archive& ar) override;

 private:
  /// Evict whatever currently occupies (the policy's choice of) an
  /// entry and install (tid, arch); returns phys index or -1 when all
  /// entries are locked.
  int allocate_entry(int tid, isa::RegId arch, std::vector<u8>& locked,
                     Cycle now, Cycle& spill_done);
  /// Functional mirror of allocate_entry: same tag-store transition and
  /// dirty-victim backing write, dcache warmth via the BSI warm path,
  /// no timing, counters, or rollback interaction.
  int warm_allocate(int tid, isa::RegId arch, std::vector<u8>& locked,
                    Cycle warm_now);

  ViReCConfig config_;
  TagStore tags_;
  RollbackQueue rollback_;
  BackingStoreInterface bsi_;
  ContextSwitchLogic csl_;
  std::vector<u64> phys_values_;
  // Per-decode scratch: entries this instruction already references
  // (must not evict each other). Reused across decodes so the hot path
  // never heap-allocates.
  std::vector<u8> locked_scratch_;
  // Per-thread register sets for the switch-prefetch extension.
  std::vector<u32> used_this_episode_;
  std::vector<u32> last_episode_used_;
  // Detailed (opt-in) stats; owned by stats_.
  Histogram* hist_rollback_depth_ = nullptr;
  Distribution* dist_decode_stall_ = nullptr;
  // Hot-path counter handles (owned by stats_).
  double* c_rf_hits_ = nullptr;
  double* c_rf_misses_ = nullptr;
  double* c_rf_spills_ = nullptr;
  double* c_rf_evictions_ = nullptr;
  double* c_context_switches_ = nullptr;
  double* c_group_spills_ = nullptr;
  double* c_switch_prefetch_fills_ = nullptr;
  cpu::TraceSink* tracer_ = nullptr;
};

}  // namespace virec::core

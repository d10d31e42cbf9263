// Context Switching Logic (Section 5.2): system-register handling on
// thread switches.
//
// System registers (PC, NZCV, thread pointer) are stored per thread in
// the backing store. With the ping-pong buffer enabled, the CSL keeps
// the current and the predicted-next thread's sysregs on chip: on a
// switch the buffer halves swap, the outgoing thread's sysregs are
// written back in the background, and the next predicted thread's
// sysregs are prefetched, overlapping pipeline warm-up. Without the
// buffer (NSF baseline) the incoming thread demand-fetches its sysregs
// before its first fetch.
#pragma once

#include <vector>

#include "core/backing_store_interface.hpp"

namespace virec::core {

struct CslConfig {
  bool sysreg_prefetch = true;
};

class ContextSwitchLogic {
 public:
  ContextSwitchLogic(const CslConfig& config, u32 num_threads,
                     BackingStoreInterface& bsi, StatSet& stats);

  /// First scheduling of @p tid: demand-fetch its sysreg line.
  Cycle on_thread_start(int tid, Cycle now);

  /// Switch from @p from_tid to @p to_tid at @p now; @p predicted_next
  /// is the thread the round-robin scheduler will pick after to_tid
  /// (prefetch target). Returns when the new thread may start fetching.
  Cycle on_switch(int from_tid, int to_tid, int predicted_next, Cycle now);

  /// Functional warm mirrors (tiered fast-forward): same ping-pong
  /// buffer occupancy and sysreg-line dcache warmth, zero timing.
  void warm_thread_start(int tid, Cycle warm_now);
  void warm_switch(int from_tid, int to_tid, int predicted_next,
                   Cycle warm_now);

  /// Snapshot fields: the ping-pong buffer / prefetch state.
  void state(ckpt::Archive& ar) {
    ar.vec(sysreg_ready_, "CSL threads");
    ar.vec(buffered_, "CSL buffer");
  }

 private:
  CslConfig config_;
  BackingStoreInterface& bsi_;
  StatSet& stats_;
  std::vector<Cycle> sysreg_ready_;  // prefetch completion per thread
  std::vector<u8> buffered_;         // sysregs currently on chip
  // Hot-path counter handles (owned by stats_).
  double* c_prefetch_late_ = nullptr;
  double* c_demand_fetches_ = nullptr;
  double* c_prefetches_ = nullptr;
};

}  // namespace virec::core

// Backing Store Interface (Section 5.3): moves registers between the
// physical RF and the dcache backing store.
//
//  * Fills are loads from the reserved register region; spills are
//    stores. Register-region accesses drive the dcache pin counters
//    when pinning is enabled.
//  * Non-blocking mode pipelines requests through the dcache port;
//    blocking mode (the NSF baseline) serialises them.
//  * The dummy-destination optimisation writes a placeholder for
//    destination-only registers: the backing transaction is still
//    issued for metadata bookkeeping, but its latency leaves the
//    critical path.
//  * While a fill is outstanding the BSI masks context switches
//    (switch_allowed input to the CSL).
#pragma once

#include "common/stats.hpp"
#include "cpu/context_manager.hpp"

namespace virec::core {

struct BsiConfig {
  bool non_blocking = true;
  bool dummy_dest_fill = true;
  /// Pin register lines in the dcache while their registers are live.
  bool pin_lines = true;
};

class BackingStoreInterface {
 public:
  BackingStoreInterface(const BsiConfig& config, const cpu::CoreEnv& env,
                        StatSet& stats);

  /// Fetch (tid, arch) from the backing store; returns data-ready time.
  Cycle fill(int tid, isa::RegId arch, Cycle now);

  /// Destination-only allocation: bookkeeping transaction off the
  /// critical path (or a real fill when the optimisation is disabled).
  Cycle dummy_fill(int tid, isa::RegId arch, Cycle now);

  /// Write an evicted register back; background (does not stall decode)
  /// but occupies the dcache port and, in blocking mode, the BSI.
  Cycle spill(int tid, isa::RegId arch, Cycle now);

  /// Write/read the sysreg line (used by the CSL ping-pong buffer).
  Cycle sysreg_transfer(int tid, bool is_write, Cycle now);

  /// Functional warm variants (tiered fast-forward): same dcache line
  /// and pin-counter footprint via Cache::warm_access, but no occupancy
  /// cursors, no counters and no switch masking.
  void warm_reg_transfer(int tid, isa::RegId arch, bool is_write,
                         Cycle warm_now);
  void warm_sysreg_transfer(int tid, bool is_write, Cycle warm_now);

  /// CSL mask: an outstanding fill forbids context switches.
  bool fill_outstanding(Cycle now) const { return last_fill_done_ > now; }

  /// Completion cycle of the masking fill when one is outstanding at
  /// @p now (kNeverCycle otherwise) — the cycle the CSL mask clears.
  Cycle mask_clear_cycle(Cycle now) const {
    return last_fill_done_ > now ? last_fill_done_ : kNeverCycle;
  }

  const BsiConfig& config() const { return config_; }

  /// Snapshot fields: the occupancy cursors (the stat set is owned by
  /// the manager and checkpointed there).
  void state(ckpt::Archive& ar) { ar(busy_until_, last_fill_done_); }

 private:
  Cycle issue(Addr addr, bool is_write, Cycle now);

  BsiConfig config_;
  cpu::CoreEnv env_;
  StatSet& stats_;
  mem::Cache& dcache_;  // this core's dcache, resolved once
  Cycle busy_until_ = 0;      // blocking-mode serialisation
  Cycle last_fill_done_ = 0;  // switch mask
  // Hot-path counter handles (owned by stats_).
  double* c_fills_ = nullptr;
  double* c_dummy_fills_ = nullptr;
  double* c_spills_ = nullptr;
  double* c_sysreg_reads_ = nullptr;
  double* c_sysreg_writes_ = nullptr;
};

}  // namespace virec::core

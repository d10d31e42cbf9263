// A complete simulated near-memory system: N processors (each with its
// own context manager and L1 caches) behind a shared crossbar and DRAM,
// plus the task-level offload mechanism the paper describes — thread
// contexts are written into each processor's reserved memory region and
// the processor fetches them when the thread is first scheduled.
#pragma once

#include <array>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "ckpt/checkpoint.hpp"
#include "cpu/banked_manager.hpp"
#include "cpu/cgmt_core.hpp"
#include "cpu/prefetch_manager.hpp"
#include "cpu/software_manager.hpp"
#include "core/virec_manager.hpp"
#include "sim/system_config.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {

struct RunResult {
  Cycle cycles = 0;        ///< max over all cores
  u64 instructions = 0;    ///< summed over all cores
  double ipc = 0.0;        ///< instructions / cycles (system level)
  bool check_ok = false;
  std::string check_msg;
  double rf_hit_rate = 1.0;   ///< register-cache schemes only
  u64 context_switches = 0;
  u64 rf_fills = 0;
  u64 rf_spills = 0;
  /// Mean cycles per demand dcache miss, over every core (0 if none).
  double avg_dcache_miss_latency = 0.0;
  /// Closed cycle accounting: cycles charged to each CycleBucket,
  /// summed over all cores (Σ == Σ core cycles; per-core and
  /// per-thread splits live in the stat registry as cpi_*).
  std::array<double, kNumCycleBuckets> cpi_stack{};

  /// The result-store payload (ckpt::encode_result): every field in
  /// this order, doubles by bit pattern.
  void state(ckpt::Archive& ar) {
    ar(cycles, instructions, ipc, check_ok, check_msg, rf_hit_rate,
       context_switches, rf_fills, rf_spills, avg_dcache_miss_latency);
    ar.length(cpi_stack.size(), "cycle buckets");
    ar(cpi_stack);
  }
};

/// One row of the sampled time series (see System::set_sample_interval).
struct Sample {
  Cycle cycle = 0;             ///< sample time (max core cycle)
  u64 instructions = 0;        ///< cumulative, summed over cores
  double ipc = 0.0;            ///< cumulative instructions / cycle
  double interval_ipc = 0.0;   ///< IPC within this interval alone
  double rf_hit_rate = 1.0;    ///< cumulative RF hit rate
  u32 runnable_threads = 0;    ///< threads able to run at sample time
  u32 outstanding_misses = 0;  ///< busy dcache MSHRs, summed over cores
  /// Cumulative cycle-accounting stack at sample time (summed over
  /// cores); consumers diff consecutive samples for per-epoch stacks.
  std::array<double, kNumCycleBuckets> cpi{};
};

/// One heartbeat of a running simulation (see System::set_progress).
struct RunProgress {
  Cycle cycle = 0;           ///< current cycle (max over cores)
  u64 max_cycles = 0;        ///< watchdog budget (ETA denominator)
  u64 instructions = 0;      ///< committed so far, summed over cores
  double ipc = 0.0;          ///< cumulative IPC
  const char* top_stall = "";    ///< dominant non-useful cycle bucket
  double top_stall_frac = 0.0;   ///< its share of elapsed core cycles
  /// Core-cycles fast-forwarded / core-cycles elapsed since run()
  /// started, both summed over cores (so always in [0, 1]).
  double skip_efficiency = 0.0;
  double wall_secs = 0.0;        ///< wall time since run() started
};

class System {
 public:
  System(const SystemConfig& config, const workloads::Workload& workload,
         const workloads::WorkloadParams& params);

  /// Offload all thread contexts, run every core to completion, verify
  /// results.
  RunResult run();

  /// Assemble the RunResult for the current simulation state (run()'s
  /// final bookkeeping, exposed so sim::TieredRunner can finish a
  /// sampled run through the same path).
  RunResult make_result();

  /// Instructions committed so far, summed over cores.
  u64 total_instructions() const;

  cpu::CgmtCore& core(u32 i) { return *cores_[i]; }
  const cpu::CgmtCore& core(u32 i) const { return *cores_[i]; }
  cpu::ContextManager& manager(u32 i) { return *managers_[i]; }
  mem::MemorySystem& memory_system() { return *ms_; }
  const SystemConfig& config() const { return config_; }
  const kasm::Program& program() const { return program_; }
  const workloads::Workload& workload() const { return workload_; }
  const workloads::WorkloadParams& params() const { return params_; }
  u32 total_threads() const {
    return config_.num_cores * config_.threads_per_core;
  }

  /// Every component's StatSet under hierarchical names
  /// ("core0.virec.*", "core0.dcache.*", "dram.*", "xbar.*", ...).
  StatRegistry& registry() { return registry_; }
  const StatRegistry& registry() const { return registry_; }

  /// Enable detailed (histogram / distribution) collection on every
  /// component. Off by default; recording is then a no-op branch.
  void set_detailed_stats(bool on) { registry_.set_detailed(on); }

  /// Record a Sample every @p interval cycles during run() (0 turns
  /// sampling off). Grid points are epoch ends of the scheduler: event
  /// skips are clamped to them, so samples land on the same cycles with
  /// and without skipping.
  void set_sample_interval(Cycle interval) { sample_interval_ = interval; }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Invoke @p hook whenever run() appends a Sample (after the append).
  /// Lets live consumers — e.g. Perfetto counter tracks — stream the
  /// series without polling. nullptr detaches.
  void set_sample_hook(std::function<void(const Sample&)> hook) {
    sample_hook_ = std::move(hook);
  }

  /// Emit a RunProgress heartbeat to @p fn roughly every @p every_secs
  /// of wall time during run(), plus one when it ends (purely an
  /// observer — simulation results stay bit-identical). nullptr
  /// detaches.
  void set_progress(std::function<void(const RunProgress&)> fn,
                    double every_secs = 1.0) {
    progress_ = std::move(fn);
    progress_every_secs_ = every_secs;
  }

  /// Total cycles charged to @p b, summed over every core.
  double cpi_bucket_cycles(CycleBucket b) const;

  /// Attach one trace sink per core (pipeline events from the core,
  /// register traffic from its context manager). nullptr detaches.
  void set_tracer(u32 core, cpu::TraceSink* tracer);

  /// Arm the lockstep reference oracle and all hard invariants
  /// (docs/correctness.md): every core's commits are compared against a
  /// functional interpreter and any divergence or violated structural
  /// invariant throws check::CheckError from run(). Works after
  /// restore() too — the oracle adopts the restored state lazily.
  void enable_check();
  const check::CheckContext* check_context() const { return check_.get(); }
  /// Mutable oracle access for the functional tier (nullptr when
  /// enable_check() has not run).
  check::CheckContext* check() { return check_.get(); }

  /// Hash of everything that must match between the system that saved
  /// a checkpoint and the system restoring it: scheme, core/thread
  /// counts, ViReC/memory configuration, workload name and parameters.
  /// Deliberately excludes max_cycles so a resumed run may extend the
  /// watchdog.
  u64 config_hash() const;

  /// Write a crash-safe snapshot of the complete simulation state
  /// (docs/checkpointing.md). Callable mid-run.
  void save(const std::string& path) const;

  /// Restore a snapshot produced by an identically configured system.
  /// Throws ckpt::CkptError on corruption or configuration mismatch.
  /// A subsequent run() continues from the snapshot point and produces
  /// bit-identical results to an uninterrupted run.
  void restore(const std::string& path);

  /// Save a snapshot to "<dir>/ckpt-<cycle>.vckpt" every @p every
  /// cycles during run() (0 disables). Grid points are epoch ends of
  /// the scheduler, like the sampling grid, so snapshots land on the
  /// same cycles with and without skipping.
  void set_checkpointing(Cycle every, std::string dir) {
    checkpoint_every_ = every;
    checkpoint_dir_ = std::move(dir);
  }

 private:
  /// The snapshot's sections, in file order (save() and restore()).
  void state(ckpt::Sections& sections);
  void offload_contexts();
  void build_registry();
  void take_sample(Cycle prev_cycle, u64 prev_instructions);
  /// Register-file hit rate over every core's manager (1 before any
  /// access).
  double rf_hit_rate() const;
  /// Max cycle over all cores (the system clock at an epoch end).
  Cycle max_core_cycle() const;
  /// run()'s scheduler: every core to completion in (cycle, core index)
  /// order, with the sampling/checkpoint/progress/watchdog observers.
  void schedule();
  /// Throw the watchdog error naming every stuck core.
  [[noreturn]] void throw_watchdog() const;
  /// Build and emit one RunProgress heartbeat; @p start_cycles holds
  /// each core's cycle when run() started.
  void emit_progress(std::chrono::steady_clock::time_point wall_start,
                     const std::vector<Cycle>& start_cycles,
                     Cycle skipped_cycles);

  SystemConfig config_;
  const workloads::Workload& workload_;
  workloads::WorkloadParams params_;
  kasm::Program program_;
  std::unique_ptr<mem::MemorySystem> ms_;
  std::vector<std::unique_ptr<cpu::ContextManager>> managers_;
  std::vector<std::unique_ptr<cpu::CgmtCore>> cores_;
  std::unique_ptr<check::CheckContext> check_;
  StatRegistry registry_;
  Cycle sample_interval_ = 0;
  std::vector<Sample> samples_;
  std::function<void(const Sample&)> sample_hook_;
  std::function<void(const RunProgress&)> progress_;
  double progress_every_secs_ = 1.0;
  // Sampling bookkeeping lives on the System (not as run() locals) so
  // a mid-run checkpoint captures it and a restored run resamples at
  // exactly the same cycles.
  Cycle sample_next_ = 0;
  Cycle sample_prev_cycle_ = 0;
  u64 sample_prev_instructions_ = 0;
  Cycle checkpoint_every_ = 0;
  std::string checkpoint_dir_;
  /// run() continues from restored state instead of starting fresh.
  bool restored_ = false;
};

}  // namespace virec::sim

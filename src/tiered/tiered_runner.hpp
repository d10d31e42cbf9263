// Tiered simulation: SMARTS-style systematic sampling over a single
// golden execution stream (docs/performance.md).
//
// One System carries the run, driven by a recorded functional stream
// (tiered/func_stream.hpp): replaying its records through the point's
// warm hooks advances architectural state at interpreter speed while
// keeping caches / register-cache residency warm, and the stream is
// shared across every point of a sweep with the same functional
// identity — the prepass cost is paid once per sweep, not once per
// point. Each measurement window is a detailed *probe*: the
// cycle-accurate pipeline re-attaches, burns a warm-up prefix of W
// instructions and measures K instructions of CPI + CPI stack;
// afterwards the probe's architectural effects (memory via an undo
// journal, registers and thread PCs/NZCV/halts via snapshots) are
// reverted, so the replayed stream remains the sole driver of
// architectural progress and every probe measures exactly the golden
// execution. Microarchitectural warm state (caches, register-cache
// residency) deliberately carries across. The per-window CPIs give a
// sampled mean with a confidence interval from inter-window variance.
// A sampled run takes no snapshot of its own: a finished point
// persists as a svc::ResultStore entry.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/run_spec.hpp"
#include "sim/system.hpp"
#include "tiered/func_stream.hpp"

namespace virec::sim {

/// One measurement window.
struct WindowStat {
  u64 start_inst = 0;  ///< committed instructions when measurement began
  u64 insts = 0;       ///< instructions measured (== K except at the tail)
  Cycle cycles = 0;    ///< detailed cycles they took
  double cpi = 0.0;
  /// Cycle-accounting deltas over the measured stretch.
  std::array<double, kNumCycleBuckets> cpi_stack{};
};

/// Heartbeat of a tiered run (tier-aware --progress): ETA is
/// instruction-based with a separate measured rate per tier, since
/// cycles/sec differs by orders of magnitude between tiers.
struct TieredProgress {
  const char* tier = "";  ///< "prepass" | "functional" | "detailed"
  u64 insts_done = 0;     ///< committed so far (both tiers)
  u64 insts_total = 0;    ///< prepass total (0 while prepassing)
  u32 window = 0;         ///< completed measurement windows
  u32 windows = 0;
  double wall_secs = 0.0;
  double eta_secs = 0.0;  ///< 0 when no rate has been measured yet
};

struct TieredResult {
  /// Final result through System::make_result(): workload check over
  /// the (bit-exact) functional+detailed memory image, totals over
  /// both tiers. `full.cycles`/`full.ipc` mix warm-clock and detailed
  /// cycles — use est_* for performance numbers.
  RunResult full;
  u64 total_insts = 0;  ///< from the functional prepass
  std::vector<WindowStat> windows;
  double cpi_mean = 0.0;     ///< mean of the per-window CPIs
  double cpi_ci_half = 0.0;  ///< t_{95%,n-1} * s / sqrt(n); 0 when n < 2
  /// Stratified estimate: exact cycles of the detailed stretches plus
  /// cpi_mean extrapolated over the functional instructions.
  double est_cycles = 0.0;
  double est_ipc = 0.0;      ///< total_insts / est_cycles
  double est_ipc_lo = 0.0;   ///< from cpi_mean + ci_half
  double est_ipc_hi = 0.0;   ///< from cpi_mean - ci_half
  u64 insts_functional = 0;
  u64 insts_detailed = 0;    ///< warm-up + measured
  double wall_secs_functional = 0.0;
  double wall_secs_detailed = 0.0;
};

class TieredRunner {
 public:
  /// @p system must be built from @p spec (build_config) and freshly
  /// constructed. The runner reads the spec's sampling knobs and
  /// replays the functional stream StreamCache keeps for the spec's
  /// functional identity (ckpt::functional_stream_hash). Throws
  /// std::invalid_argument on a spec validate() rejects or one without
  /// sample_windows. With System::enable_check() the lockstep oracle
  /// checks every replayed instruction; probes run unchecked, since
  /// they are reverted.
  TieredRunner(System& system, const RunSpec& spec);

  /// Execute the tiered run to completion and return the estimates.
  /// Call once.
  TieredResult run();

  /// Emit TieredProgress heartbeats roughly every @p every_secs of
  /// wall time (nullptr detaches).
  void set_progress(std::function<void(const TieredProgress&)> fn,
                    double every_secs = 1.0);

 private:
  /// Replay stream records up to golden position @p target through the
  /// system's warm hooks (cutting the pipeline first if attached) and
  /// re-attach. Instructions a reverted probe already committed are
  /// absorbed into the credit, so the commit count lands on @p target.
  void replay_advance(u64 target);
  /// Begin a detailed probe: disable the lockstep oracle, snapshot
  /// per-thread registers and scheduling state, open the memory undo
  /// journal.
  void begin_probe();
  /// End a detailed probe: squash the pipeline (cut), roll back
  /// memory, diff-restore registers through the context manager's
  /// canonical write path, revert thread PCs/NZCV/halts, re-enable the
  /// oracle. Leaves the core detached (replay_advance re-attaches).
  void end_probe();
  void run_detailed(u64 insts);
  void emit_progress(const char* tier, bool force);
  void finalize(TieredResult& r);
  /// Warm-clock cycles per functional instruction: the running CPI of
  /// the detailed stretches so far (1 until one has run). Keeps warm
  /// recency stamps spaced like detailed ones, so replacement decisions
  /// made on warm state match the detailed model's.
  u64 cpi_scale() const;

  System& sys_;
  const RunSpec spec_;
  // Sampling progress.
  u64 n_total_ = 0;
  u32 window_ = 0;  // completed windows
  std::vector<WindowStat> windows_;
  u64 insts_functional_ = 0;
  u64 insts_detailed_ = 0;
  Cycle cycles_detailed_ = 0;  // detailed cycles backing cpi_scale()
  // Stream replay state.
  std::shared_ptr<const FuncStream> stream_;
  std::unique_ptr<FuncStreamReplayer> replayer_;
  bool detached_ = false;  // core cut, not yet resumed
  // Probe revert buffers (live only between begin_/end_probe).
  std::vector<std::array<u64, isa::kNumAllocatableRegs>> probe_regs_;
  std::vector<cpu::CgmtCore::ThreadProbeState> probe_threads_;
  std::vector<u8> probe_launched_;  // launch state at begin_probe
  // Instructions executed in the current functional phase but not yet
  // folded into the core's commit count (progress reporting only).
  u64 pending_functional_ = 0;
  // Wall-clock accounting.
  double wall_functional_ = 0.0;
  double wall_detailed_ = 0.0;
  // Progress plumbing.
  std::function<void(const TieredProgress&)> progress_;
  double progress_every_secs_ = 1.0;
  double next_emit_wall_ = 0.0;
  double wall_start_ = 0.0;
};

}  // namespace virec::sim

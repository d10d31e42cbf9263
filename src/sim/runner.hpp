// Experiment-runner helpers shared by the figure harnesses, examples
// and tests: one-call "configure + run + check" entry points.
#pragma once

#include <string>

#include "sim/system.hpp"
#include "tiered/tiered_runner.hpp"

namespace virec::sim {

/// One experiment point.
struct RunSpec {
  std::string workload = "gather";
  Scheme scheme = Scheme::kViReC;
  u32 num_cores = 1;
  u32 threads_per_core = 8;
  /// Fraction of the per-thread active context stored on chip
  /// (register-cache schemes). 1.0 => full active context.
  double context_fraction = 1.0;
  core::PolicyKind policy = core::PolicyKind::kLRC;
  workloads::WorkloadParams params{};
  /// Optional overrides applied to the Table-1 preset.
  u32 dcache_bytes = 0;       // 0 = preset
  u32 dcache_latency = 0;     // 0 = preset
  /// Explicit physical register count; 0 derives from context_fraction.
  u32 phys_regs = 0;
  /// Future-work extensions (see core::ViReCConfig).
  bool group_spill = false;
  bool switch_prefetch = false;
  /// Watchdog: abort the run (std::runtime_error naming the stuck
  /// core/thread) after this many cycles. 0 keeps the preset guard.
  u64 max_cycles = 0;
  /// Arm the lockstep reference oracle and hard invariants
  /// (System::enable_check); divergence throws check::CheckError.
  bool check = false;
  /// Disable event-driven cycle skipping (CgmtCoreConfig::skip): every
  /// core steps every cycle. Results are bit-identical either
  /// way; skipping only trades simulator wall-clock.
  bool no_skip = false;
  /// Tiered simulation (sim::TieredRunner; docs/performance.md).
  /// sample_windows > 0 runs SMARTS-style sampled measurement: the
  /// returned RunResult carries the *estimated* cycles/IPC
  /// (cpi_mean * prepass instruction count) instead of measured
  /// full-run values. functional_ff runs the whole program through the
  /// functional tier. Both require a single-core spec and are mutually
  /// exclusive. Sampling also excludes check: a checked run exists to
  /// validate the full detailed model, which sampling deliberately
  /// skips most of (functional_ff + check is allowed — that is exactly
  /// how the functional tier itself is validated).
  u32 sample_windows = 0;
  u64 window_insts = 10'000;
  u64 warmup_insts = 2'000;
  bool functional_ff = false;
  /// Adaptive warm-up multiplier for sampled runs: each detailed probe
  /// may extend its warm-up by additional warmup_insts chunks (up to
  /// this factor in total) while the dcache miss rate is still
  /// converging — bulk-miss schemes need longer warm-up than the fixed
  /// budget. 1 = fixed warm-up (default); part of the spec identity.
  u32 adaptive_warmup = 1;
  /// Reuse the functional prepass stream across same-identity points
  /// (sweeps over scheme/policy/phys_regs). Pure simulator-speed knob:
  /// per-point estimates are bit-identical with reuse on or off, so —
  /// like no_skip — it is deliberately excluded from the spec identity
  /// and from result-store keys.
  bool stream_reuse = true;
  /// Directory for persisted functional streams ("" = in-memory reuse
  /// only). Excluded from the identity for the same reason.
  std::string stream_dir;
};

/// Build the SystemConfig a RunSpec describes (exposed for tests).
SystemConfig build_config(const RunSpec& spec);

/// Run the experiment point; throws std::runtime_error if the workload
/// result check fails (a simulator correctness bug, not a model
/// property). Tiered specs (sample_windows > 0 / functional_ff)
/// dispatch through sim::TieredRunner; a sampled spec's RunResult then
/// carries the estimated cycles/IPC.
RunResult run_spec(const RunSpec& spec);

/// Tiered entry point returning the full per-window statistics.
/// Requires spec.sample_windows > 0 or spec.functional_ff; throws
/// std::invalid_argument on rejected combinations (multi-core,
/// sampling + check, zero-size windows).
TieredResult run_spec_tiered(const RunSpec& spec);

/// Registers per thread implied by a spec (for reporting).
u32 spec_phys_regs(const RunSpec& spec);

}  // namespace virec::sim

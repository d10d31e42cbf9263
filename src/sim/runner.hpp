// Experiment-runner helpers shared by the figure driver, examples
// and tests: one-call "configure + run + check" entry points.
#pragma once

#include <string>

#include "sim/run_spec.hpp"
#include "sim/system.hpp"
#include "tiered/tiered_runner.hpp"

namespace virec::sim {

/// Build the SystemConfig a RunSpec describes (exposed for tests);
/// validate()s the spec first.
SystemConfig build_config(const RunSpec& spec);

/// Run the experiment point; throws std::runtime_error if the workload
/// result check fails (a simulator correctness bug, not a model
/// property). Sampled specs (sample_windows > 0) dispatch through
/// sim::TieredRunner; their RunResult then carries the estimated
/// cycles/IPC.
RunResult run_spec(const RunSpec& spec);

/// Tiered entry point returning the full per-window statistics.
/// Requires spec.sample_windows > 0; throws std::invalid_argument on
/// a spec validate() rejects. spec.check runs the lockstep oracle over
/// every replayed instruction.
TieredResult run_spec_tiered(const RunSpec& spec);

/// Registers per thread implied by a spec (for reporting).
u32 spec_phys_regs(const RunSpec& spec);

}  // namespace virec::sim

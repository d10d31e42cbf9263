// Checked execution harness: run one program on a sim::System built
// from a sim::RunSpec, with the lockstep oracle and all hard invariants
// attached. This is the engine behind apps/virec_fuzz.cpp and
// `virec-sim --replay`.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "kasm/program.hpp"
#include "sim/run_spec.hpp"
#include "workloads/workload.hpp"

namespace virec::check {

/// The workload of a checked run: one program on every thread, the
/// seeded arena (seed_arena) as its data, and the arena base register
/// pointing at it on every thread. Its check() passes: the oracle
/// judges the run.
class ProgramWorkload final : public workloads::Workload {
 public:
  explicit ProgramWorkload(kasm::Program program)
      : program_(std::move(program)) {}

  std::string name() const override { return "program"; }
  std::string description() const override {
    return "one generated program on every thread (checked runs)";
  }
  u32 active_regs() const override { return isa::kNumAllocatableRegs; }
  kasm::Program program(const workloads::WorkloadParams&) const override {
    return program_;
  }
  void init_memory(mem::SparseMemory& memory, const workloads::WorkloadParams&,
                   u32) const override;
  workloads::RegContext thread_regs(const workloads::WorkloadParams&, u32,
                                    u32) const override;
  bool check(const mem::SparseMemory&, const workloads::WorkloadParams&, u32,
             std::string*) const override {
    return true;
  }

 private:
  kasm::Program program_;
};

/// The fuzzer's base point: one core, 2 threads, 6 physical registers
/// (a deliberately small RF keeps every register crossing the
/// fill/spill path) and a 2,000,000-cycle budget, whose overrun reports
/// a timeout, not a failure (shrinking can produce non-terminating
/// loops). params.seed carries the generator seed for provenance in
/// repro files (0 = none).
sim::RunSpec fuzz_spec();

/// Whether run_checked reads @p knob of @p spec: every knob
/// sim::build_config reads but the kernel's parameters (params.seed
/// stays, as the program's provenance), the sampling knobs and check.
/// The workload and the context fraction size the register file only
/// through sim::spec_phys_regs, so they are read only when
/// spec.phys_regs is 0.
bool checked_run_reads(const sim::Knob& knob, const sim::RunSpec& spec);

/// The knob flags of a checked run (virec-fuzz flags, repro headers),
/// over fuzz_spec().
class CheckedFlags {
 public:
  /// sim::SpecFlags::parse; throws std::invalid_argument naming @p arg
  /// if it is the flag of a knob no checked run reads.
  bool parse(const std::string& arg,
             const std::function<std::string()>& value);

  /// The spec the flags give. Throws std::invalid_argument naming a
  /// given flag whose knob that spec leaves unread (--ctx or --workload
  /// without --regs 0), whatever order the flags came in.
  sim::RunSpec spec() const;

 private:
  sim::SpecFlags flags_{fuzz_spec()};
  std::vector<std::string> given_;
};

struct HarnessResult {
  bool ok = false;
  bool timed_out = false;
  std::string message;       ///< divergence / invariant report when !ok
  Cycle cycles = 0;          ///< max over the cores
  u64 instructions = 0;      ///< summed over the cores
  u64 commits_checked = 0;
};

/// Execute @p program on every thread of the system @p spec describes,
/// with the oracle + invariants armed. A run the System watchdog stops
/// (any core past spec.max_cycles) reports a timeout; an exception
/// other than check::CheckError propagates.
HarnessResult run_checked(const kasm::Program& program,
                          const sim::RunSpec& spec);

/// Negative self-test: run @p program on the ViReC datapath, stepping
/// core 0, and corrupt the tag store mid-run (swap two entries' tags
/// without fixing the map). Returns true iff the check layer catches it.
bool tag_bug_detected(const kasm::Program& program, const sim::RunSpec& spec);

}  // namespace virec::check

#include "check/harness.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "check/check.hpp"
#include "check/progen.hpp"
#include "core/virec_manager.hpp"
#include "sim/runner.hpp"

namespace virec::check {

void ProgramWorkload::init_memory(mem::SparseMemory& memory,
                                  const workloads::WorkloadParams&,
                                  u32) const {
  seed_arena(memory);
}

workloads::RegContext ProgramWorkload::thread_regs(
    const workloads::WorkloadParams&, u32, u32) const {
  workloads::RegContext regs{};
  regs[kArenaBaseReg] = kArenaBase;
  return regs;
}

sim::RunSpec fuzz_spec() {
  sim::RunSpec spec;
  spec.threads_per_core = 2;
  spec.phys_regs = 6;
  spec.max_cycles = 2'000'000;
  spec.params.seed = 0;
  return spec;
}

bool checked_run_reads(const sim::Knob& knob, const sim::RunSpec& spec) {
  const std::string_view field = knob.field;
  const bool kernel = field.starts_with("params.") && field != "params.seed";
  const bool sizes_regs = field == "workload" || field == "context_fraction";
  return !kernel && (knob.roles & sim::kSampling) == 0 &&
         field != "sample_windows" && field != "check" &&
         (!sizes_regs || spec.phys_regs == 0);
}

bool CheckedFlags::parse(const std::string& arg,
                         const std::function<std::string()>& value) {
  sim::RunSpec any = fuzz_spec();
  any.phys_regs = 0;  // the spec that reads the most knobs
  sim::for_each_knob([&](const sim::Knob& knob, auto) {
    if (*knob.flag != '\0' && arg == knob.flag &&
        !checked_run_reads(knob, any)) {
      throw std::invalid_argument(arg + ": checked runs ignore this knob");
    }
  });
  if (!flags_.parse(arg, value)) return false;
  given_.push_back(arg);
  return true;
}

sim::RunSpec CheckedFlags::spec() const {
  const sim::RunSpec spec = flags_.single();
  sim::for_each_knob([&](const sim::Knob& knob, auto) {
    if (*knob.flag != '\0' && !checked_run_reads(knob, spec) &&
        std::find(given_.begin(), given_.end(), knob.flag) != given_.end()) {
      throw std::invalid_argument(
          std::string(knob.flag) +
          ": checked runs read this knob only with --regs 0");
    }
  });
  return spec;
}

namespace {

/// The System watchdog fires at an epoch end, with every live core
/// past the budget.
bool watchdog_fired(const sim::System& system) {
  const Cycle budget = system.config().core.max_cycles;
  bool past = false;
  for (u32 c = 0; c < system.config().num_cores; ++c) {
    const cpu::CgmtCore& core = system.core(c);
    if (core.cycle() > budget) {
      past = true;
    } else if (!core.done()) {
      return false;
    }
  }
  return past;
}

}  // namespace

HarnessResult run_checked(const kasm::Program& program,
                          const sim::RunSpec& spec) {
  const ProgramWorkload workload(program);
  sim::System system(sim::build_config(spec), workload, spec.params);
  system.enable_check();
  HarnessResult result;
  try {
    system.run();
    result.ok = true;
  } catch (const CheckError& e) {
    result.message = e.what();
  } catch (const std::runtime_error&) {
    if (!watchdog_fired(system)) throw;
    result.timed_out = true;
    result.message = "timed out after " +
                     std::to_string(system.config().core.max_cycles) +
                     " cycles";
  }
  for (u32 c = 0; c < system.config().num_cores; ++c) {
    result.cycles = std::max(result.cycles, system.core(c).cycle());
  }
  result.instructions = system.total_instructions();
  result.commits_checked = system.check_context()->commits_checked();
  return result;
}

bool tag_bug_detected(const kasm::Program& program, const sim::RunSpec& spec) {
  sim::RunSpec vspec = spec;
  vspec.scheme = sim::Scheme::kViReC;
  const ProgramWorkload workload(program);
  sim::System system(sim::build_config(vspec), workload, vspec.params);
  system.enable_check();
  auto& manager = dynamic_cast<core::ViReCManager&>(system.manager(0));
  cpu::CgmtCore& core = system.core(0);
  const Cycle budget = system.config().core.max_cycles;
  bool corrupted = false;
  try {
    while (!core.done()) {
      core.step();
      // Let the RF warm up, then swap two entries' (tid, arch) tags
      // without fixing the reverse map — the CAM-aliasing bug class.
      if (!corrupted && system.check_context()->commits_checked() >= 32) {
        corrupted = manager.tag_store_for_test().corrupt_swap_tags_for_test();
      }
      if (core.cycle() > budget) return false;
    }
  } catch (const CheckError&) {
    return corrupted;
  }
  return false;
}

}  // namespace virec::check

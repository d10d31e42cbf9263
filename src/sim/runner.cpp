#include "sim/runner.hpp"

#include <cmath>
#include <stdexcept>

namespace virec::sim {

u32 spec_phys_regs(const RunSpec& spec) {
  if (spec.phys_regs != 0) return spec.phys_regs;
  const workloads::Workload& w = workloads::find_workload(spec.workload);
  return context_regs(spec.context_fraction, w.active_regs(),
                      spec.threads_per_core);
}

SystemConfig build_config(const RunSpec& spec) {
  validate(spec);
  SystemConfig config = SystemConfig::nmp_default();
  config.num_cores = spec.num_cores;
  config.threads_per_core = spec.threads_per_core;
  config.scheme = spec.scheme;
  config.virec.policy = spec.policy;
  config.virec.num_phys_regs = spec_phys_regs(spec);
  config.virec.group_spill = spec.group_spill;
  config.virec.switch_prefetch = spec.switch_prefetch;
  if (spec.dcache_bytes != 0) config.mem.dcache.size_bytes = spec.dcache_bytes;
  if (spec.dcache_latency != 0) {
    config.mem.dcache.hit_latency = spec.dcache_latency;
  }
  if (spec.max_cycles != 0) config.core.max_cycles = spec.max_cycles;
  config.core.skip = !spec.no_skip;
  return config;
}

TieredResult run_spec_tiered(const RunSpec& spec) {
  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  System system(build_config(spec), workload, spec.params);
  if (spec.check) system.enable_check();
  TieredRunner runner(system, spec);
  TieredResult result = runner.run();
  if (!result.full.check_ok) {
    throw std::runtime_error("workload check failed (" + spec.workload +
                             ", scheme " + scheme_name(spec.scheme) +
                             "): " + result.full.check_msg);
  }
  return result;
}

RunResult run_spec(const RunSpec& spec) {
  if (spec.sample_windows > 0) {
    const TieredResult tiered = run_spec_tiered(spec);
    // Report the sampled estimates through the standard fields so
    // sweeps and harnesses consume them unchanged.
    RunResult result = tiered.full;
    result.cycles = static_cast<Cycle>(std::llround(tiered.est_cycles));
    result.instructions = tiered.total_insts;
    result.ipc = tiered.est_ipc;
    return result;
  }
  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  System system(build_config(spec), workload, spec.params);
  if (spec.check) system.enable_check();
  RunResult result = system.run();
  if (!result.check_ok) {
    throw std::runtime_error("workload check failed (" + spec.workload +
                             ", scheme " + scheme_name(spec.scheme) +
                             "): " + result.check_msg);
  }
  return result;
}

}  // namespace virec::sim

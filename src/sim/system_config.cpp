#include "sim/system_config.hpp"

#include <cmath>
#include <stdexcept>

#include "cpu/banked_manager.hpp"
#include "cpu/prefetch_manager.hpp"
#include "cpu/software_manager.hpp"

namespace virec::sim {

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBanked: return "banked";
    case Scheme::kSoftware: return "software";
    case Scheme::kPrefetchFull: return "prefetch-full";
    case Scheme::kPrefetchExact: return "prefetch-exact";
    case Scheme::kViReC: return "virec";
    case Scheme::kNSF: return "nsf";
  }
  return "?";
}

Scheme parse_scheme(const std::string& name) {
  for (Scheme s : {Scheme::kBanked, Scheme::kSoftware, Scheme::kPrefetchFull,
                   Scheme::kPrefetchExact, Scheme::kViReC, Scheme::kNSF}) {
    if (name == scheme_name(s)) return s;
  }
  throw std::invalid_argument("unknown scheme '" + name + "'");
}

SystemConfig SystemConfig::nmp_default() {
  SystemConfig config;
  config.num_cores = 1;
  config.threads_per_core = 8;
  config.scheme = Scheme::kViReC;
  config.core.num_threads = 8;
  config.core.sq_entries = 5;
  // Table 1 memory system: 32 kB 4-way icache (2 cycles), 8 kB 4-way
  // dcache (2 cycles, 24 MSHRs), crossbar to 2-channel DDR5-6400.
  config.mem.num_cores = 1;
  config.mem.icache = mem::CacheConfig{.name = "icache",
                                       .size_bytes = 32 * 1024,
                                       .assoc = 4,
                                       .hit_latency = 2,
                                       .mshrs = 8};
  config.mem.dcache = mem::CacheConfig{.name = "dcache",
                                       .size_bytes = 8 * 1024,
                                       .assoc = 4,
                                       .hit_latency = 2,
                                       .mshrs = 24};
  config.mem.has_l2 = false;
  return config;
}

std::unique_ptr<cpu::ContextManager> make_context_manager(
    Scheme scheme, const core::ViReCConfig& virec, const cpu::CoreEnv& env) {
  switch (scheme) {
    case Scheme::kBanked:
      return std::make_unique<cpu::BankedManager>(env);
    case Scheme::kSoftware:
      return std::make_unique<cpu::SoftwareManager>(env);
    case Scheme::kPrefetchFull:
      return std::make_unique<cpu::PrefetchManager>(
          env, cpu::PrefetchMode::kFull);
    case Scheme::kPrefetchExact:
      return std::make_unique<cpu::PrefetchManager>(
          env, cpu::PrefetchMode::kExact);
    case Scheme::kViReC:
      return std::make_unique<core::ViReCManager>(virec, env);
    case Scheme::kNSF: {
      core::ViReCConfig nsf = core::make_nsf_config(virec.num_phys_regs);
      nsf.rollback_depth = virec.rollback_depth;
      nsf.seed = virec.seed;
      return std::make_unique<core::ViReCManager>(nsf, env);
    }
  }
  throw std::logic_error("unknown scheme");
}

u32 context_regs(double fraction, u32 active_regs, u32 threads) {
  const double per_thread = fraction * static_cast<double>(active_regs);
  const u32 total = static_cast<u32>(
      std::ceil(per_thread * static_cast<double>(threads)));
  return std::max<u32>(total, 4);
}

}  // namespace virec::sim

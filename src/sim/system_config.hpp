// System-level configuration: which register-context scheme each
// near-memory processor uses, how many processors and threads, and the
// Table-1 memory-system presets.
#pragma once

#include <memory>
#include <string>

#include "core/virec_manager.hpp"
#include "cpu/cgmt_core.hpp"
#include "mem/memory_system.hpp"

namespace virec::sim {

/// Register-context management scheme of a near-memory processor.
enum class Scheme {
  kBanked,         // one full bank per thread (Figure 3(b))
  kSoftware,       // software save/restore (Figure 3(a))
  kPrefetchFull,   // double-buffer, full-context prefetch
  kPrefetchExact,  // double-buffer, oracle exact-set prefetch
  kViReC,          // the paper's architecture (Figure 3(c))
  kNSF,            // Named-State Register File baseline [41]
};

const char* scheme_name(Scheme scheme);
Scheme parse_scheme(const std::string& name);

struct SystemConfig {
  u32 num_cores = 1;
  u32 threads_per_core = 8;
  Scheme scheme = Scheme::kViReC;
  /// ViReC parameters (physical RF size, policy, BSI/CSL features);
  /// also the base for the NSF scheme (its feature set is forced).
  core::ViReCConfig virec{};
  cpu::CgmtCoreConfig core{};
  mem::MemSystemConfig mem{};

  /// Table 1 near-memory processor preset: 1 GHz single-issue, 32 kB
  /// icache, 8 kB dcache, no L2, DDR5-6400-like DRAM behind a crossbar.
  static SystemConfig nmp_default();
};

/// The register-context manager of one core running @p scheme. ViReC
/// takes @p virec as is; NSF takes its RF size, rollback depth and seed
/// and forces the rest (core::make_nsf_config); the other schemes
/// ignore it.
std::unique_ptr<cpu::ContextManager> make_context_manager(
    Scheme scheme, const core::ViReCConfig& virec, const cpu::CoreEnv& env);

/// Physical registers for a ViReC processor that stores @p fraction of
/// each thread's @p active_regs-register context (Figures 1, 9, 10).
u32 context_regs(double fraction, u32 active_regs, u32 threads);

}  // namespace virec::sim

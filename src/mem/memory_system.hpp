// Assembles the timing memory hierarchy of an N-processor near-memory
// system (per-core L1 i/d caches -> optional shared L2 -> crossbar ->
// DRAM) plus the shared functional memory, and defines the reserved
// register backing-store layout each ViReC processor uses.
//
// Register region layout (per paper Section 5.3): each (core, thread)
// owns 4 lines of 8x8 B general-purpose registers followed by one line
// of system registers.
#pragma once

#include <memory>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "mem/cache.hpp"
#include "mem/crossbar.hpp"
#include "mem/dram.hpp"
#include "mem/sparse_memory.hpp"

namespace virec::mem {

struct MemSystemConfig {
  u32 num_cores = 1;
  CacheConfig icache{.name = "icache",
                     .size_bytes = 32 * 1024,
                     .assoc = 4,
                     .hit_latency = 2,
                     .mshrs = 8};
  CacheConfig dcache{.name = "dcache",
                     .size_bytes = 8 * 1024,
                     .assoc = 4,
                     .hit_latency = 2,
                     .mshrs = 24};
  bool has_l2 = false;
  CacheConfig l2{.name = "l2",
                 .size_bytes = 1024 * 1024,
                 .assoc = 8,
                 .hit_latency = 12,
                 .mshrs = 64,
                 .stride_prefetch = true,
                 .prefetch_degree = 8};
  CrossbarConfig xbar{};
  DramConfig dram{};
};

class MemorySystem {
 public:
  /// Base of the reserved register backing region.
  static constexpr Addr kRegRegionBase = 0xf000'0000ull;
  /// Reserved bytes per core within the register region.
  static constexpr Addr kRegRegionPerCore = 64 * 1024;
  /// Bytes reserved per thread context: 4 GPR lines + 1 sysreg line,
  /// rounded up to 512 for cheap address arithmetic.
  static constexpr Addr kBytesPerContext = 512;
  /// Base of the (synthetic) code region used for icache timing.
  static constexpr Addr kCodeBase = 0x1000'0000ull;

  explicit MemorySystem(const MemSystemConfig& config);

  Cache& icache(u32 core) { return *icaches_[core]; }
  Cache& dcache(u32 core) { return *dcaches_[core]; }
  bool has_l2() const { return l2_ != nullptr; }
  Cache& l2() { return *l2_; }
  Crossbar& crossbar() { return *crossbar_; }
  DramModel& dram() { return *dram_; }
  SparseMemory& memory() { return functional_; }
  const SparseMemory& memory() const { return functional_; }
  u32 num_cores() const { return config_.num_cores; }
  const MemSystemConfig& config() const { return config_; }

  /// Register backing-store addresses.
  Addr reg_region_base(u32 core) const {
    return kRegRegionBase + core * kRegRegionPerCore;
  }
  Addr context_base(u32 core, u32 tid) const {
    return reg_region_base(core) + tid * kBytesPerContext;
  }
  /// Backing address of general-purpose register @p arch (x0..x30).
  Addr reg_addr(u32 core, u32 tid, u32 arch) const {
    return context_base(core, tid) + arch * 8;
  }
  /// Backing address of the system-register line (PC, NZCV, ...).
  Addr sysreg_addr(u32 core, u32 tid) const {
    return context_base(core, tid) + 4 * kLineBytes;
  }
  bool in_reg_region(Addr addr) const {
    return addr >= kRegRegionBase &&
           addr < kRegRegionBase + config_.num_cores * kRegRegionPerCore;
  }
  /// icache address for instruction index @p pc.
  static Addr code_addr(u64 pc) { return kCodeBase + pc * 4; }

  /// The whole hierarchy's snapshot sections: the functional memory,
  /// DRAM, crossbar, the L2 (if present) and each core's L1s.
  void state(ckpt::Sections& sections);

 private:
  MemSystemConfig config_;
  SparseMemory functional_;
  std::unique_ptr<DramModel> dram_;
  std::unique_ptr<Crossbar> crossbar_;
  std::unique_ptr<Cache> l2_;
  std::vector<std::unique_ptr<Cache>> icaches_;
  std::vector<std::unique_ptr<Cache>> dcaches_;
};

}  // namespace virec::mem

// MemorySystem layout and integration tests: reserved register-region
// addressing, code addresses, per-core cache isolation and shared DRAM.
#include <gtest/gtest.h>

#include <set>

#include "mem/memory_system.hpp"

namespace virec::mem {
namespace {

TEST(Layout, RegAddressesAreDisjointPerThread) {
  MemSystemConfig config;
  config.num_cores = 2;
  MemorySystem ms(config);
  std::set<Addr> seen;
  for (u32 core = 0; core < 2; ++core) {
    for (u32 tid = 0; tid < 16; ++tid) {
      for (u32 reg = 0; reg < 31; ++reg) {
        const Addr addr = ms.reg_addr(core, tid, reg);
        EXPECT_TRUE(seen.insert(addr).second) << core << "/" << tid << "/"
                                              << reg;
        EXPECT_TRUE(ms.in_reg_region(addr));
      }
      EXPECT_TRUE(seen.insert(ms.sysreg_addr(core, tid)).second);
    }
  }
}

TEST(Layout, GprsSpanFourLinesSysregsOneMore) {
  MemorySystem ms(MemSystemConfig{});
  const Addr base = ms.context_base(0, 0);
  EXPECT_EQ(ms.reg_addr(0, 0, 0), base);
  EXPECT_EQ(ms.reg_addr(0, 0, 7), base + 56);       // same line
  EXPECT_EQ(line_of(ms.reg_addr(0, 0, 8)), base + 64);
  EXPECT_EQ(ms.sysreg_addr(0, 0), base + 4 * kLineBytes);
}

TEST(Layout, ContextsAreLineAligned) {
  MemorySystem ms(MemSystemConfig{});
  for (u32 tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(ms.context_base(0, tid) % kLineBytes, 0u);
  }
}

TEST(Layout, RegRegionDoesNotOverlapDataOrCode) {
  MemorySystem ms(MemSystemConfig{});
  EXPECT_FALSE(ms.in_reg_region(0x2000'0000));      // workload arrays
  EXPECT_FALSE(ms.in_reg_region(MemorySystem::code_addr(100)));
  EXPECT_TRUE(ms.in_reg_region(MemorySystem::kRegRegionBase));
}

TEST(Layout, CodeAddressesAreSequential) {
  EXPECT_EQ(MemorySystem::code_addr(1) - MemorySystem::code_addr(0), 4u);
}

TEST(Integration, PerCoreCachesAreIndependent) {
  MemSystemConfig config;
  config.num_cores = 2;
  MemorySystem ms(config);
  ms.dcache(0).access(0x1000, false, 0);
  EXPECT_TRUE(ms.dcache(0).probe(0x1000));
  EXPECT_FALSE(ms.dcache(1).probe(0x1000));
}

TEST(Integration, CoresShareDramBandwidth) {
  MemSystemConfig config;
  config.num_cores = 2;
  MemorySystem ms(config);
  // Same instant, both cores miss: the second completes later because
  // the crossbar and DRAM serialise the transfers.
  const Cycle a = ms.dcache(0).access(0x10000, false, 0).done;
  const Cycle b = ms.dcache(1).access(0x20000, false, 0).done;
  EXPECT_NE(a, b);
}

TEST(Integration, L2OptionInterposes) {
  MemSystemConfig config;
  config.has_l2 = true;
  MemorySystem ms(config);
  // First touch misses through L2 to DRAM; evicting it from L1 and
  // re-touching must be served much faster (L2 hit).
  const Cycle cold = ms.dcache(0).access(0x5000, false, 0).done;
  // Thrash the L1 set.
  Cycle t = cold + 1;
  const u32 stride = ms.dcache(0).num_sets() * kLineBytes;
  for (u32 i = 1; i <= 4; ++i) {
    t = ms.dcache(0).access(0x5000 + i * stride, false, t).done + 1;
  }
  ASSERT_FALSE(ms.dcache(0).probe(0x5000));
  const Cycle warm_start = t;
  const Cycle warm = ms.dcache(0).access(0x5000, false, warm_start).done;
  EXPECT_LT(warm - warm_start, cold);
}

TEST(Integration, PerContextStrideFitsGprsAndSysregs) {
  // 4 GPR lines + 1 sysreg line = 320 B must fit in the 512 B stride.
  EXPECT_GE(MemorySystem::kBytesPerContext, 5 * kLineBytes);
  // And 64 contexts per core must fit the per-core region.
  EXPECT_GE(MemorySystem::kRegRegionPerCore,
            64 * MemorySystem::kBytesPerContext);
}

}  // namespace
}  // namespace virec::mem

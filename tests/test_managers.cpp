// Context-manager tests for the baseline schemes (banked, software,
// prefetch): timing contracts and functional register movement.
#include <gtest/gtest.h>

#include "cpu/banked_manager.hpp"
#include "cpu/prefetch_manager.hpp"
#include "cpu/software_manager.hpp"

namespace virec::cpu {
namespace {

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest()
      : ms(mem::MemSystemConfig{}),
        env{.core_id = 0, .num_threads = 4, .ms = &ms} {}

  void seed_backing(int tid, int reg, u64 value) {
    ms.memory().write_u64(
        ms.reg_addr(0, static_cast<u32>(tid), static_cast<u32>(reg)), value);
  }
  u64 backing(int tid, int reg) {
    return ms.memory().read_u64(
        ms.reg_addr(0, static_cast<u32>(tid), static_cast<u32>(reg)));
  }

  isa::Inst add(int rd, int rn, int rm) {
    isa::Inst inst;
    inst.op = isa::Op::kAdd;
    inst.rd = static_cast<isa::RegId>(rd);
    inst.rn = static_cast<isa::RegId>(rn);
    inst.rm = static_cast<isa::RegId>(rm);
    return inst;
  }

  mem::MemorySystem ms;
  CoreEnv env;
};

TEST_F(ManagerTest, BankedLoadsOffloadedContextOnStart) {
  BankedManager banked(env);
  seed_backing(2, 7, 1234);
  const Cycle ready = banked.on_thread_start(2, 100);
  EXPECT_GT(ready, 100u);  // paid the context fetch
  EXPECT_EQ(banked.read_reg(2, 7), 1234u);
}

TEST_F(ManagerTest, BankedDecodeAlwaysHits) {
  BankedManager banked(env);
  banked.on_thread_start(0, 0);
  const DecodeAccess acc = banked.on_decode(0, add(1, 2, 3), 500);
  EXPECT_TRUE(acc.hit);
  EXPECT_EQ(acc.ready, 500u);
}

TEST_F(ManagerTest, BankedIsolatesThreads) {
  BankedManager banked(env);
  banked.write_reg(0, 5, 111);
  banked.write_reg(1, 5, 222);
  EXPECT_EQ(banked.read_reg(0, 5), 111u);
  EXPECT_EQ(banked.read_reg(1, 5), 222u);
}

TEST_F(ManagerTest, BankedHaltWritesBackToBacking) {
  BankedManager banked(env);
  banked.on_thread_start(0, 0);
  banked.write_reg(0, 3, 999);
  banked.on_thread_halt(0, 50);
  EXPECT_EQ(backing(0, 3), 999u);
}

TEST_F(ManagerTest, SoftwareChargesSaveRestoreOnThreadChange) {
  SoftwareManager sw(env);
  seed_backing(0, 1, 10);
  seed_backing(1, 1, 20);
  // First decode of thread 0 loads its context.
  const DecodeAccess first = sw.on_decode(0, add(2, 1, 1), 100);
  EXPECT_FALSE(first.hit);
  EXPECT_GT(first.ready, 100u);
  // Subsequent decodes of the same thread are free.
  const DecodeAccess same = sw.on_decode(0, add(2, 1, 1), first.ready);
  EXPECT_TRUE(same.hit);
  // Switching threads pays a full save+restore.
  const DecodeAccess other = sw.on_decode(1, add(2, 1, 1), same.ready);
  EXPECT_FALSE(other.hit);
  EXPECT_GT(other.ready - same.ready, 30u);  // ~32 paired ld/st accesses
  EXPECT_EQ(sw.read_reg(1, 1), 20u);
}

TEST_F(ManagerTest, SoftwarePreservesValuesAcrossSwitches) {
  SoftwareManager sw(env);
  sw.on_decode(0, add(2, 1, 1), 0);
  sw.write_reg(0, 2, 777);
  sw.on_decode(1, add(2, 1, 1), 1000);  // switches away, saving thread 0
  EXPECT_EQ(backing(0, 2), 777u);
  EXPECT_EQ(sw.read_reg(0, 2), 777u);  // readable through the backing
  sw.on_decode(0, add(2, 1, 1), 2000);
  EXPECT_EQ(sw.read_reg(0, 2), 777u);
}

TEST_F(ManagerTest, SoftwareHaltSavesResidentContext) {
  SoftwareManager sw(env);
  sw.on_decode(0, add(2, 1, 1), 0);
  sw.write_reg(0, 4, 31337);
  sw.on_thread_halt(0, 500);
  EXPECT_EQ(backing(0, 4), 31337u);
}

class PrefetchTest : public ManagerTest,
                     public ::testing::WithParamInterface<PrefetchMode> {};

TEST_P(PrefetchTest, StartLoadsInitialContext) {
  PrefetchManager pf(env, GetParam());
  seed_backing(0, 3, 42);
  const Cycle ready = pf.on_thread_start(0, 10);
  EXPECT_GT(ready, 10u);
  EXPECT_EQ(pf.read_reg(0, 3), 42u);
}

TEST_P(PrefetchTest, PrefetchedThreadSwitchesQuickly) {
  PrefetchManager pf(env, GetParam());
  pf.on_thread_start(0, 0);
  pf.on_thread_start(1, 0);
  pf.on_decode(0, add(2, 1, 1), 50);
  // The switch kicks a prefetch for the predicted thread (0).
  pf.on_context_switch(0, 1, 0, 100);
  // Later switch back to 0: nearly free (context already resident).
  const Cycle r2 = pf.on_context_switch(1, 0, 1, 10'000);
  EXPECT_LE(r2 - 10'000, 2u);
}

TEST_P(PrefetchTest, FirstScheduleHasNoOutgoingSpill) {
  // The core's very first schedule (and the one after any idle period)
  // reports from_tid = -1: there is no outgoing episode to close.
  // Regression: the manager used to index its per-thread arrays with
  // -1 and spill out-of-bounds values to a wild backing address.
  PrefetchManager pf(env, GetParam());
  pf.on_thread_start(0, 0);
  const double spills_before = pf.stats().get("reg_spills");
  const Cycle ready = pf.on_context_switch(-1, 0, 1, 100);
  EXPECT_GE(ready, 100u);
  EXPECT_EQ(pf.stats().get("reg_spills"), spills_before);
}

TEST_P(PrefetchTest, HaltPersistsValues) {
  PrefetchManager pf(env, GetParam());
  pf.on_thread_start(0, 0);
  pf.write_reg(0, 9, 4711);
  pf.on_thread_halt(0, 100);
  EXPECT_EQ(backing(0, 9), 4711u);
}

INSTANTIATE_TEST_SUITE_P(Modes, PrefetchTest,
                         ::testing::Values(PrefetchMode::kFull,
                                           PrefetchMode::kExact),
                         [](const auto& info) {
                           return info.param == PrefetchMode::kFull ? "Full"
                                                                    : "Exact";
                         });

TEST_F(ManagerTest, ExactPrefetchDemandFillsOracleMisses) {
  PrefetchManager pf(env, PrefetchMode::kExact);
  pf.on_thread_start(0, 0);
  pf.on_thread_start(1, 0);
  // Thread 0 episode touches x1/x2 only.
  pf.on_decode(0, add(2, 1, 1), 10);
  pf.on_context_switch(0, 1, 0, 100);   // history(0) = {x1, x2}
  pf.on_decode(1, add(2, 1, 1), 150);
  pf.on_context_switch(1, 0, 1, 1000);  // prefetches history(0)
  // Now thread 0 touches registers outside its history: demand fill.
  const DecodeAccess acc = pf.on_decode(0, add(9, 8, 7), 2000);
  EXPECT_FALSE(acc.hit);
  EXPECT_GT(acc.fills, 0u);
}

TEST_F(ManagerTest, FullPrefetchMovesWholeContext) {
  PrefetchManager full(env, PrefetchMode::kFull);
  PrefetchManager exact(env, PrefetchMode::kExact);
  for (auto* pf : {&full, &exact}) {
    pf->on_thread_start(0, 0);
    pf->on_thread_start(1, 0);
    pf->on_decode(0, add(2, 1, 1), 10);
    pf->on_context_switch(0, 1, 0, 100);
    pf->on_decode(1, add(2, 1, 1), 150);
    pf->on_context_switch(1, 0, 1, 1000);
  }
  // Full mode spills every register on each switch, exact only the
  // used set.
  EXPECT_GT(full.stats().get("reg_spills"), exact.stats().get("reg_spills"));
}

}  // namespace
}  // namespace virec::cpu

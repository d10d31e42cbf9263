// ViReCManager tests: functional register movement through the cached
// RF and backing store, decode-time fill/eviction behaviour, rollback
// interactions and thread teardown.
#include <gtest/gtest.h>

#include "core/virec_manager.hpp"

namespace virec::core {
namespace {

class ViReCManagerTest : public ::testing::Test {
 protected:
  ViReCManagerTest()
      : ms(mem::MemSystemConfig{}),
        env{.core_id = 0, .num_threads = 4, .ms = &ms} {}

  std::unique_ptr<ViReCManager> make(u32 regs,
                                     PolicyKind policy = PolicyKind::kLRC) {
    ViReCConfig config;
    config.num_phys_regs = regs;
    config.policy = policy;
    return std::make_unique<ViReCManager>(config, env);
  }

  isa::Inst add(int rd, int rn, int rm) {
    isa::Inst inst;
    inst.op = isa::Op::kAdd;
    inst.rd = static_cast<isa::RegId>(rd);
    inst.rn = static_cast<isa::RegId>(rn);
    inst.rm = static_cast<isa::RegId>(rm);
    return inst;
  }

  void seed_backing(int tid, int reg, u64 value) {
    ms.memory().write_u64(
        ms.reg_addr(0, static_cast<u32>(tid), static_cast<u32>(reg)), value);
  }

  u64 backing(int tid, int reg) {
    return ms.memory().read_u64(
        ms.reg_addr(0, static_cast<u32>(tid), static_cast<u32>(reg)));
  }

  mem::MemorySystem ms;
  cpu::CoreEnv env;
};

TEST_F(ViReCManagerTest, ReadsFallBackToBackingStore) {
  auto mgr = make(8);
  seed_backing(0, 5, 1234);
  EXPECT_EQ(mgr->read_reg(0, 5), 1234u);
}

TEST_F(ViReCManagerTest, WriteWithoutMappingGoesToBacking) {
  auto mgr = make(8);
  mgr->write_reg(1, 3, 777);
  EXPECT_EQ(backing(1, 3), 777u);
}

TEST_F(ViReCManagerTest, DecodeFillsSourcesFromBacking) {
  auto mgr = make(8);
  seed_backing(0, 1, 11);
  seed_backing(0, 2, 22);
  const cpu::DecodeAccess acc = mgr->on_decode(0, add(3, 1, 2), 100);
  EXPECT_FALSE(acc.hit);
  EXPECT_EQ(acc.fills, 2u);
  EXPECT_GT(acc.ready, 100u);
  EXPECT_EQ(mgr->read_reg(0, 1), 11u);
  EXPECT_EQ(mgr->read_reg(0, 2), 22u);
  EXPECT_GE(mgr->tag_store().valid_entries(), 3u);  // 2 srcs + dest
  mgr->on_commit(0, add(3, 1, 2));
}

TEST_F(ViReCManagerTest, SecondDecodeHits) {
  auto mgr = make(8);
  const isa::Inst inst = add(3, 1, 2);
  mgr->on_decode(0, inst, 0);
  mgr->on_commit(0, inst);
  const cpu::DecodeAccess acc = mgr->on_decode(0, inst, 100);
  EXPECT_TRUE(acc.hit);
  EXPECT_EQ(acc.ready, 100u);
  mgr->on_commit(0, inst);
}

TEST_F(ViReCManagerTest, DestinationOnlyUsesDummyFill) {
  auto mgr = make(8);
  seed_backing(0, 1, 1);
  seed_backing(0, 2, 2);
  // Warm the backing line so dummy fills are cheap.
  mgr->on_decode(0, add(9, 1, 2), 0);
  mgr->on_commit(0, add(9, 1, 2));
  // rd=10 is a pure destination: with the optimisation its latency does
  // not extend decode.
  const cpu::DecodeAccess acc = mgr->on_decode(0, add(10, 1, 2), 1000);
  EXPECT_EQ(acc.ready, 1000u);
  EXPECT_GE(mgr->stats().get("bsi_dummy_fills"), 1.0);
  mgr->on_commit(0, add(10, 1, 2));
}

TEST_F(ViReCManagerTest, CommitWritesStayInPhysicalRf) {
  auto mgr = make(8);
  mgr->on_decode(0, add(3, 1, 2), 0);
  mgr->write_reg(0, 3, 99);  // commit-time write
  mgr->on_commit(0, add(3, 1, 2));
  EXPECT_EQ(mgr->read_reg(0, 3), 99u);
  // Not yet in backing store (dirty in RF).
  EXPECT_EQ(backing(0, 3), 0u);
}

TEST_F(ViReCManagerTest, EvictionSpillsDirtyValueToBacking) {
  auto mgr = make(4);  // tiny RF forces evictions
  mgr->on_decode(0, add(3, 1, 2), 0);
  mgr->write_reg(0, 3, 4242);
  mgr->on_commit(0, add(3, 1, 2));
  // Flood the RF with another thread's registers until x3 is evicted.
  Cycle t = 100;
  for (int i = 0; i < 8; ++i) {
    const isa::Inst inst = add((i % 5) + 4, (i % 7) + 10, (i % 3) + 20);
    mgr->on_decode(1, inst, t);
    mgr->on_commit(1, inst);
    t += 50;
  }
  // Wherever x3 lives now, its value must still be 4242.
  EXPECT_EQ(mgr->read_reg(0, 3), 4242u);
  EXPECT_GT(mgr->stats().get("rf_evictions"), 0.0);
}

TEST_F(ViReCManagerTest, ContextSwitchResetsFlushedCBits) {
  auto mgr = make(8);
  const isa::Inst inst = add(3, 1, 2);
  mgr->on_decode(0, inst, 0);
  // No commit: the instruction is in flight when the switch happens.
  mgr->on_context_switch(0, 1, 2, 10);
  const TagStore& tags = mgr->tag_store();
  bool found_flushed = false;
  for (u32 i = 0; i < tags.size(); ++i) {
    if (tags.entry(i).valid && tags.entry(i).tid == 0) {
      EXPECT_FALSE(tags.entry(i).c_bit);
      found_flushed = true;
    }
  }
  EXPECT_TRUE(found_flushed);
  EXPECT_TRUE(mgr->rollback_queue().empty());
}

TEST_F(ViReCManagerTest, CommittedRegistersKeepCBit) {
  auto mgr = make(8);
  const isa::Inst inst = add(3, 1, 2);
  mgr->on_decode(0, inst, 0);
  mgr->on_commit(0, inst);
  mgr->on_context_switch(0, 1, 2, 10);
  const TagStore& tags = mgr->tag_store();
  for (u32 i = 0; i < tags.size(); ++i) {
    if (tags.entry(i).valid && tags.entry(i).tid == 0) {
      EXPECT_TRUE(tags.entry(i).c_bit);
    }
  }
}

TEST_F(ViReCManagerTest, MispredictFlushDropsRollbackOnly) {
  auto mgr = make(8);
  mgr->on_decode(0, add(3, 1, 2), 0);
  mgr->on_mispredict_flush(0);
  EXPECT_TRUE(mgr->rollback_queue().empty());
  // Wrong-path registers keep their speculative C bit.
  const TagStore& tags = mgr->tag_store();
  for (u32 i = 0; i < tags.size(); ++i) {
    if (tags.entry(i).valid) {
      EXPECT_TRUE(tags.entry(i).c_bit);
    }
  }
}

TEST_F(ViReCManagerTest, SwitchMaskedDuringOutstandingFill) {
  auto mgr = make(8);
  const cpu::DecodeAccess acc = mgr->on_decode(0, add(3, 1, 2), 100);
  EXPECT_FALSE(mgr->switch_allowed(acc.ready - 1));
  EXPECT_TRUE(mgr->switch_allowed(acc.ready));
}

TEST_F(ViReCManagerTest, ThreadHaltSpillsAndInvalidates) {
  auto mgr = make(8);
  mgr->on_decode(0, add(3, 1, 2), 0);
  mgr->write_reg(0, 3, 555);
  mgr->on_commit(0, add(3, 1, 2));
  mgr->on_thread_halt(0, 1000);
  EXPECT_EQ(backing(0, 3), 555u);
  const TagStore& tags = mgr->tag_store();
  for (u32 i = 0; i < tags.size(); ++i) {
    EXPECT_FALSE(tags.entry(i).valid && tags.entry(i).tid == 0);
  }
}

TEST_F(ViReCManagerTest, HitRateAccounting) {
  auto mgr = make(8);
  const isa::Inst inst = add(3, 1, 2);
  mgr->on_decode(0, inst, 0);
  mgr->on_commit(0, inst);
  mgr->on_decode(0, inst, 100);
  mgr->on_commit(0, inst);
  EXPECT_GT(mgr->rf_hit_rate(), 0.0);
  EXPECT_LT(mgr->rf_hit_rate(), 1.0);
  EXPECT_EQ(mgr->stats().get("rf_hits") + mgr->stats().get("rf_misses"), 6.0);
}

TEST_F(ViReCManagerTest, NsfConfigHasPublishedFeatureSet) {
  const ViReCConfig nsf = make_nsf_config(32);
  EXPECT_EQ(nsf.policy, PolicyKind::kPLRU);
  EXPECT_FALSE(nsf.bsi.non_blocking);
  EXPECT_FALSE(nsf.bsi.dummy_dest_fill);
  EXPECT_FALSE(nsf.bsi.pin_lines);
  EXPECT_FALSE(nsf.csl.sysreg_prefetch);
  EXPECT_EQ(nsf.num_phys_regs, 32u);
}

TEST_F(ViReCManagerTest, FunctionalCorrectnessAcrossManyEvictions) {
  // Property: any interleaving of writes + evictions preserves values.
  auto mgr = make(6);
  Xorshift128 rng(42);
  std::array<std::array<u64, 8>, 2> expected{};
  Cycle t = 0;
  for (int step = 0; step < 500; ++step) {
    const int tid = static_cast<int>(rng.next_below(2));
    const int reg = static_cast<int>(rng.next_below(8));
    const isa::Inst inst = add(reg, (reg + 1) % 8, (reg + 2) % 8);
    mgr->on_decode(tid, inst, t);
    const u64 value = rng.next();
    mgr->write_reg(tid, static_cast<isa::RegId>(reg), value);
    expected[static_cast<u32>(tid)][static_cast<u32>(reg)] = value;
    mgr->on_commit(tid, inst);
    t += 20;
    if (step % 37 == 0) {
      mgr->on_context_switch(tid, 1 - tid, tid, t);
    }
  }
  for (int tid = 0; tid < 2; ++tid) {
    for (int reg = 0; reg < 8; ++reg) {
      EXPECT_EQ(mgr->read_reg(tid, static_cast<isa::RegId>(reg)),
                expected[static_cast<u32>(tid)][static_cast<u32>(reg)])
          << "tid " << tid << " reg " << reg;
    }
  }
}

}  // namespace
}  // namespace virec::core

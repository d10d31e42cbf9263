// CGMT pipeline tests: program execution correctness, branch handling,
// store queue behaviour, context switching on misses and multithreaded
// completion.
#include <gtest/gtest.h>

#include "cpu/banked_manager.hpp"
#include "cpu/cgmt_core.hpp"
#include "core/virec_manager.hpp"
#include "kasm/assembler.hpp"

namespace virec::cpu {
namespace {

class CgmtTest : public ::testing::Test {
 protected:
  void build(const std::string& source, u32 threads = 1) {
    program = kasm::assemble(source);
    mem::MemSystemConfig mc;
    ms = std::make_unique<mem::MemorySystem>(mc);
    env = CoreEnv{.core_id = 0, .num_threads = threads, .ms = ms.get()};
    manager = std::make_unique<BankedManager>(env);
    CgmtCoreConfig config;
    config.num_threads = threads;
    core = std::make_unique<CgmtCore>(config, env, *manager, program);
  }

  // Seed a thread's *offloaded* context: initial register values live
  // in the reserved backing region and are picked up by
  // on_thread_start when the thread is first scheduled.
  void set_reg(int tid, int reg, u64 value) {
    ms->memory().write_u64(
        ms->reg_addr(0, static_cast<u32>(tid), static_cast<u32>(reg)), value);
  }
  u64 reg(int tid, int r) {
    return manager->read_reg(tid, static_cast<isa::RegId>(r));
  }

  kasm::Program program;
  std::unique_ptr<mem::MemorySystem> ms;
  CoreEnv env;
  std::unique_ptr<ContextManager> manager;
  std::unique_ptr<CgmtCore> core;
};

TEST_F(CgmtTest, StraightLineArithmetic) {
  build(R"(
    mov x0, #6
    mov x1, #7
    mul x2, x0, x1
    halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 2), 42u);
  EXPECT_EQ(core->instructions(), 4u);
  EXPECT_TRUE(core->done());
}

TEST_F(CgmtTest, PipelineReachesHighIpcOnAluCode) {
  // ALU-only loop body: after icache warm-up the single-issue pipeline
  // should stream close to 1 IPC (BTFN predicts the loop branch).
  std::string source = "mov x0, #500\nmov x1, #0\nloop:\n";
  for (int i = 0; i < 8; ++i) source += "add x1, x1, #1\n";
  source += "sub x0, x0, #1\ncbnz x0, loop\nhalt\n";
  build(source);
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 1), 4000u);
  EXPECT_GT(core->ipc(), 0.8);
}

TEST_F(CgmtTest, CountedLoopExecutesExactly) {
  build(R"(
    mov x0, #10
    mov x1, #0
    loop:
      add x1, x1, #2
      sub x0, x0, #1
      cbnz x0, loop
    halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 1), 20u);
  EXPECT_EQ(reg(0, 0), 0u);
}

TEST_F(CgmtTest, BackwardBranchesArePredicted) {
  build(R"(
    mov x0, #50
    loop:
      sub x0, x0, #1
      cbnz x0, loop
    halt
  )");
  core->start_thread(0);
  core->run();
  // BTFN: only the final not-taken iteration mispredicts.
  EXPECT_LE(core->stats().get("mispredicts"), 2.0);
}

TEST_F(CgmtTest, ConditionalBranchSemantics) {
  build(R"(
    mov x0, #5
    cmp x0, #5
    b.ne not_taken
    mov x1, #111
    b end
    not_taken:
    mov x1, #222
    end: halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 1), 111u);
}

TEST_F(CgmtTest, ForwardTakenBranchMispredictsOnce) {
  build(R"(
    mov x0, #0
    cbz x0, far
    mov x1, #1
    far: halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 1), 0u);  // skipped instruction never committed
  EXPECT_EQ(core->stats().get("mispredicts"), 1.0);
}

TEST_F(CgmtTest, CallAndReturn) {
  build(R"(
    mov x0, #5
    bl double_it
    mov x2, x0
    halt
    double_it:
    add x0, x0, x0
    ret
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 2), 10u);
}

TEST_F(CgmtTest, LoadsAndStoresThroughTimingPath) {
  build(R"(
    mov x0, #0x5000
    mov x1, #77
    str x1, [x0]
    ldr x2, [x0]
    add x2, x2, #1
    str x2, [x0, #8]
    halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(ms->memory().read_u64(0x5000), 77u);
  EXPECT_EQ(ms->memory().read_u64(0x5008), 78u);
}

TEST_F(CgmtTest, PostIndexStreamsLoad) {
  // Sum four sequential values with post-index loads.
  for (int i = 0; i < 4; ++i) {
    // (filled below after build: memory belongs to the memory system)
  }
  build(R"(
    mov x0, #0x6000
    mov x1, #4
    mov x2, #0
    loop:
      ldr x3, [x0], #8
      add x2, x2, x3
      sub x1, x1, #1
      cbnz x1, loop
    halt
  )");
  for (int i = 0; i < 4; ++i) {
    ms->memory().write_u64(0x6000 + i * 8, static_cast<u64>(10 + i));
  }
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 2), 46u);
  EXPECT_EQ(reg(0, 0), 0x6000u + 32);
}

TEST_F(CgmtTest, SingleThreadStallsOnMiss) {
  build(R"(
    mov x0, #0x100000
    ldr x1, [x0]
    halt
  )");
  core->start_thread(0);
  core->run();
  EXPECT_EQ(core->stats().get("dcache_data_misses"), 1.0);
  EXPECT_EQ(core->stats().get("context_switches"), 0.0);
  EXPECT_GT(core->cycle(), 40u);  // paid the DRAM latency
}

TEST_F(CgmtTest, TwoThreadsSwitchOnMisses) {
  // Each thread chases misses over a large strided region.
  build(R"(
    loop:
      ldr x1, [x0], #4096
      sub x2, x2, #1
      cbnz x2, loop
    halt
  )", /*threads=*/2);
  set_reg(0, 0, 0x10'0000);
  set_reg(0, 2, 20);
  set_reg(1, 0, 0x20'0000);
  set_reg(1, 2, 20);
  core->start_thread(0);
  core->start_thread(1);
  core->run();
  EXPECT_GT(core->stats().get("context_switches"), 10.0);
  EXPECT_EQ(reg(0, 2), 0u);
  EXPECT_EQ(reg(1, 2), 0u);
}

TEST_F(CgmtTest, MultithreadingHidesLatency) {
  // 4224-byte stride = 66 lines: successive misses spread across DRAM
  // channels and banks so memory-level parallelism is available.
  const char* source = R"(
    loop:
      ldr x1, [x0], #4224
      add x3, x3, x1
      sub x2, x2, #1
      cbnz x2, loop
    halt
  )";
  build(source, /*threads=*/1);
  set_reg(0, 0, 0x10'0000);
  set_reg(0, 2, 32);
  core->start_thread(0);
  core->run();
  const Cycle single = core->cycle();

  build(source, /*threads=*/4);
  for (int t = 0; t < 4; ++t) {
    set_reg(t, 0, 0x10'0000 + static_cast<u64>(t) * 0x40'0000);
    set_reg(t, 2, 32);
    core->start_thread(t);
  }
  core->run();
  const Cycle four = core->cycle();
  // 4x the work in well under 4x the time (in fact under 2.5x).
  EXPECT_LT(four, single * 5 / 2);
}

TEST_F(CgmtTest, StoreQueueAbsorbsStores) {
  build(R"(
    mov x0, #0x7000
    mov x1, #1
    str x1, [x0], #8
    str x1, [x0], #8
    str x1, [x0], #8
    halt
  )");
  core->start_thread(0);
  core->run();
  // Stores retire through the SQ without stalling commit.
  EXPECT_EQ(core->stats().get("cpi_sq_full"), 0.0);
  EXPECT_EQ(ms->memory().read_u64(0x7010), 1u);
}

TEST_F(CgmtTest, HaltedThreadStopsAndOthersContinue) {
  build(R"(
    cbz x0, quick
    mov x1, #0
    loop:
      add x1, x1, #1
      sub x0, x0, #1
      cbnz x0, loop
    quick: halt
  )", /*threads=*/2);
  set_reg(0, 0, 0);    // halts immediately
  set_reg(1, 0, 100);  // loops a while
  core->start_thread(0);
  core->start_thread(1);
  core->run();
  EXPECT_TRUE(core->done());
  EXPECT_EQ(reg(1, 1), 100u);
}

TEST_F(CgmtTest, ThreadsCannotStartTwice) {
  build("halt\n");
  core->start_thread(0);
  EXPECT_THROW(core->start_thread(0), std::logic_error);
}

TEST_F(CgmtTest, NzcvIsPerThread) {
  build(R"(
    cmp x0, #5
    b.lt less
    mov x1, #100
    b end
    less: mov x1, #200
    end: halt
  )", /*threads=*/2);
  set_reg(0, 0, 3);   // less
  set_reg(1, 0, 9);   // not less
  core->start_thread(0);
  core->start_thread(1);
  core->run();
  EXPECT_EQ(reg(0, 1), 200u);
  EXPECT_EQ(reg(1, 1), 100u);
}

TEST_F(CgmtTest, MaxCyclesGuardThrows) {
  mem::MemSystemConfig mc;
  program = kasm::assemble("loop: b loop\nhalt\n");
  ms = std::make_unique<mem::MemorySystem>(mc);
  env = CoreEnv{.core_id = 0, .num_threads = 1, .ms = ms.get()};
  manager = std::make_unique<BankedManager>(env);
  CgmtCoreConfig config;
  config.max_cycles = 5000;
  core = std::make_unique<CgmtCore>(config, env, *manager, program);
  core->start_thread(0);
  EXPECT_THROW(core->run(), std::runtime_error);
}

TEST_F(CgmtTest, ViReCManagedCoreExecutesCorrectly) {
  // The same counted loop through a tiny ViReC RF must still be
  // functionally exact.
  program = kasm::assemble(R"(
    mov x0, #25
    mov x1, #0
    loop:
      add x1, x1, #3
      sub x0, x0, #1
      cbnz x0, loop
    halt
  )");
  mem::MemSystemConfig mc;
  ms = std::make_unique<mem::MemorySystem>(mc);
  env = CoreEnv{.core_id = 0, .num_threads = 1, .ms = ms.get()};
  core::ViReCConfig vc;
  vc.num_phys_regs = 4;
  manager = std::make_unique<core::ViReCManager>(vc, env);
  CgmtCoreConfig config;
  core = std::make_unique<CgmtCore>(config, env, *manager, program);
  core->start_thread(0);
  core->run();
  EXPECT_EQ(reg(0, 1), 75u);
}

}  // namespace
}  // namespace virec::cpu

// Self-checking subsystem tests: lockstep oracle on every scheme,
// injected-fault detection for each hard invariant, repro round-trip
// and replay determinism, and the bug-fix guards in rng / workload
// parameter validation.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "check/check.hpp"
#include "check/harness.hpp"
#include "check/progen.hpp"
#include "check/repro.hpp"
#include "ckpt/spec_codec.hpp"
#include "common/rng.hpp"
#include "core/tag_store.hpp"
#include "isa/disasm.hpp"
#include "cpu/store_queue.hpp"
#include "mem/memory_system.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace virec {
namespace {

kasm::Program edge_program(u64 seed) {
  check::ProgenOptions opts;
  opts.body_len = 24;
  opts.loop_iters = 16;
  opts.edge_ops = true;
  return check::random_program(seed, opts);
}

// ---------------------------------------------------------------------
// Lockstep oracle: every scheme runs a random edge-op program clean.

class OracleSchemeTest : public ::testing::TestWithParam<sim::Scheme> {};

TEST_P(OracleSchemeTest, RandomProgramRunsClean) {
  sim::RunSpec spec = check::fuzz_spec();
  spec.scheme = GetParam();
  // One core, then two cores sharing the arena: the harness runs on
  // sim::System, so the oracle follows every core's commits.
  for (u32 cores : {1u, 2u}) {
    spec.num_cores = cores;
    const check::HarnessResult r = check::run_checked(edge_program(7), spec);
    EXPECT_TRUE(r.ok) << cores << " core(s): " << r.message;
    EXPECT_FALSE(r.timed_out) << cores;
    EXPECT_GT(r.commits_checked, 0u) << cores;
    EXPECT_EQ(r.commits_checked, r.instructions) << cores;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, OracleSchemeTest,
    ::testing::Values(sim::Scheme::kBanked, sim::Scheme::kSoftware,
                      sim::Scheme::kPrefetchFull, sim::Scheme::kPrefetchExact,
                      sim::Scheme::kViReC, sim::Scheme::kNSF),
    [](const auto& info) {
      std::string name = sim::scheme_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Oracle, TinyRfStress) {
  // 4 physical registers: every value crosses the fill/spill path.
  sim::RunSpec spec = check::fuzz_spec();
  spec.phys_regs = 4;
  spec.threads_per_core = 3;
  const check::HarnessResult r = check::run_checked(edge_program(11), spec);
  EXPECT_TRUE(r.ok) << r.message;
}

// ---------------------------------------------------------------------
// System-level --check path: the full simulator (workload init, task
// offload, multi-core) under the oracle, for every scheme.

TEST(SystemCheck, GatherRunsCleanOnEveryScheme) {
  for (sim::Scheme scheme :
       {sim::Scheme::kBanked, sim::Scheme::kSoftware,
        sim::Scheme::kPrefetchFull, sim::Scheme::kPrefetchExact,
        sim::Scheme::kViReC, sim::Scheme::kNSF}) {
    sim::RunSpec spec;
    spec.workload = "gather";
    spec.scheme = scheme;
    spec.threads_per_core = 4;
    spec.params.iters_per_thread = 16;
    spec.params.elements = 1024;
    spec.check = true;
    const sim::RunResult result = sim::run_spec(spec);
    EXPECT_TRUE(result.check_ok) << sim::scheme_name(scheme);
  }
}

// ---------------------------------------------------------------------
// Injected faults: each invariant must fire.

TEST(Invariants, InjectedTagCorruptionIsDetected) {
  sim::RunSpec spec = check::fuzz_spec();
  spec.params.seed = 3;
  EXPECT_TRUE(check::tag_bug_detected(edge_program(3), spec));
}

TEST(Invariants, TagStoreAuditCatchesSwappedTags) {
  core::TagStore tags(/*num_phys_regs=*/4, /*num_threads=*/2,
                      core::PolicyKind::kLRC);
  const std::vector<u8> locked(4, 0);
  core::TagStore::Victim victim;
  ASSERT_GE(tags.allocate(0, 1, locked, &victim), 0);
  ASSERT_GE(tags.allocate(1, 2, locked, &victim), 0);
  const check::CheckContext check;  // invariant-only context
  EXPECT_NO_THROW(tags.audit(&check));
  ASSERT_TRUE(tags.corrupt_swap_tags_for_test());
  EXPECT_THROW(tags.audit(&check), check::CheckError);
  // Null / disabled contexts must never throw (checking off).
  EXPECT_NO_THROW(tags.audit(nullptr));
  check::CheckContext off;
  off.set_enabled(false);
  EXPECT_NO_THROW(tags.audit(&off));
}

TEST(Invariants, StoreQueueOverfillIsDetected) {
  mem::MemorySystem ms{mem::MemSystemConfig{}};
  cpu::StoreQueue sq(3, ms.dcache(0));
  const check::CheckContext check;
  sq.set_check(&check);
  EXPECT_TRUE(sq.push(0x1000, 0));  // a sane push passes
  sq.overfill_for_test(/*until=*/1'000'000);
  EXPECT_THROW(sq.push(0x2000, 0), check::CheckError);
}

TEST(Invariants, LeakedMshrIsDetected) {
  mem::MemorySystem ms{mem::MemSystemConfig{}};
  const check::CheckContext check;
  ms.dcache(0).set_check(&check);
  EXPECT_NO_THROW(ms.dcache(0).access(0x1000, false, 0));
  ms.dcache(0).leak_mshr_for_test();
  EXPECT_THROW(ms.dcache(0).access(0x8000, false, 1'000'000),
               check::CheckError);
}

// ---------------------------------------------------------------------
// Repro files: round-trip and deterministic replay.

TEST(Repro, RoundTripPreservesSpecAndProgram) {
  sim::RunSpec spec = check::fuzz_spec();
  spec.scheme = sim::Scheme::kNSF;
  spec.policy = core::PolicyKind::kMrtPLRU;
  spec.phys_regs = 5;
  spec.threads_per_core = 3;
  spec.max_cycles = 12345;
  spec.params.seed = 42;
  const kasm::Program program = edge_program(5);
  const std::string text = check::write_repro(spec, program);
  const check::Repro repro = check::parse_repro(text);
  EXPECT_EQ(repro.spec.scheme, spec.scheme);
  EXPECT_EQ(repro.spec.policy, spec.policy);
  EXPECT_EQ(repro.spec.phys_regs, spec.phys_regs);
  EXPECT_EQ(repro.spec.threads_per_core, spec.threads_per_core);
  EXPECT_EQ(repro.spec.max_cycles, spec.max_cycles);
  EXPECT_EQ(repro.spec.params.seed, spec.params.seed);
  ASSERT_EQ(repro.program.size(), program.size());
  for (u64 pc = 0; pc < program.size(); ++pc) {
    EXPECT_EQ(isa::disasm(repro.program.at(pc)), isa::disasm(program.at(pc)))
        << "pc " << pc;
  }
}

TEST(Repro, ReplayIsDeterministic) {
  sim::RunSpec spec = check::fuzz_spec();
  spec.phys_regs = 5;
  const kasm::Program program = edge_program(9);
  const std::string text = check::write_repro(spec, program);
  const check::Repro repro = check::parse_repro(text);
  const check::HarnessResult a = check::run_checked(program, spec);
  const check::HarnessResult b =
      check::run_checked(repro.program, repro.spec);
  EXPECT_TRUE(a.ok) << a.message;
  EXPECT_TRUE(b.ok) << b.message;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.commits_checked, b.commits_checked);
}

TEST(Repro, RejectsMalformedHeaders) {
  EXPECT_THROW(check::parse_repro("// repro scheme\nhalt\n"),
               std::invalid_argument);
  EXPECT_THROW(check::parse_repro("// repro bogus-key 3\nhalt\n"),
               std::invalid_argument);
  EXPECT_THROW(check::parse_repro("// repro scheme virec\n"),
               std::invalid_argument);
}

/// A value of a knob's type that differs from @p v.
template <typename T>
T other_value(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v == "spmv" ? "gather" : "spmv";
  } else if constexpr (std::is_same_v<T, sim::Scheme>) {
    return v == sim::Scheme::kBanked ? sim::Scheme::kNSF
                                     : sim::Scheme::kBanked;
  } else if constexpr (std::is_same_v<T, core::PolicyKind>) {
    return v == core::PolicyKind::kPLRU ? core::PolicyKind::kMrtLRU
                                        : core::PolicyKind::kPLRU;
  } else if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_same_v<T, double>) {
    return v / 3.0;  // needs all 17 digits to round-trip
  } else {
    return v + 3;
  }
}

std::vector<u8> identity_bytes(const sim::RunSpec& spec) {
  ckpt::Encoder enc;
  ckpt::encode_spec_identity(enc, spec);
  return enc.bytes();
}

TEST(Repro, EveryFlaggedKnobRoundTrips) {
  // Each knob a checked run reads survives write_repro -> parse_repro,
  // alone and all at once; write_repro refuses each one it never reads.
  const kasm::Program program = edge_program(3);
  sim::RunSpec all = check::fuzz_spec();
  const auto expect_round_trip = [&](const sim::RunSpec& spec,
                                     const std::string& what) {
    const check::Repro back =
        check::parse_repro(check::write_repro(spec, program));
    EXPECT_EQ(identity_bytes(back.spec), identity_bytes(spec)) << what;
    EXPECT_EQ(back.spec.no_skip, spec.no_skip) << what;
  };
  u32 round_trips = 0;
  sim::for_each_knob([&](const sim::Knob& knob, auto field) {
    if (*knob.flag == '\0') return;
    sim::RunSpec spec = check::fuzz_spec();
    field(spec) = other_value(field(spec));
    if (!check::checked_run_reads(knob, spec)) {
      EXPECT_THROW(check::write_repro(spec, program), std::invalid_argument)
          << knob.flag;
      // --ctx and --workload are read with --regs 0 alone.
      spec.phys_regs = 0;
      if (!check::checked_run_reads(knob, spec)) return;
    }
    field(all) = field(spec);
    expect_round_trip(spec, knob.flag);
    ++round_trips;
  });
  all.phys_regs = 0;
  expect_round_trip(all, "every knob at once");
  EXPECT_GE(round_trips, 12u);  // cores, ctx, dcache-*, switches, ...
  EXPECT_NE(check::write_repro(all, program).find("// repro cores 4\n"),
            std::string::npos);
}

TEST(Repro, RefusesKnobsNoHeaderCarries) {
  const kasm::Program program = edge_program(3);
  // Knobs without a flag have no header to carry them.
  sim::RunSpec spec = check::fuzz_spec();
  spec.params.extra_compute += 3;
  EXPECT_THROW(check::write_repro(spec, program), std::invalid_argument);
  spec = check::fuzz_spec();
  spec.params.max_regs -= 3;
  EXPECT_THROW(check::write_repro(spec, program), std::invalid_argument);

  // A header names a knob a checked run reads, spelled as its flag.
  const auto refusal = [](const std::string& header) {
    try {
      check::parse_repro(header + "\nhalt\n");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const char* key : {"iters", "elements", "stride", "window",
                          "sample-windows", "window-insts", "warmup-insts",
                          "check"}) {
    const std::string why = refusal(std::string("// repro ") + key + " 4");
    EXPECT_NE(why.find(std::string("--") + key), std::string::npos)
        << key << ": " << why;
  }
  EXPECT_NE(refusal("// repro no-skip 1").find("trailing"),
            std::string::npos);
  EXPECT_NE(refusal("// repro regs").find("missing value"), std::string::npos);
  EXPECT_EQ(refusal("// repro seed 9"), "accepted");
  // ctx and workload size the register file only through regs 0:
  // beside any other register count they are refused, wherever the
  // regs header sits.
  EXPECT_NE(refusal("// repro ctx 0.25").find("--ctx"), std::string::npos);
  EXPECT_NE(refusal("// repro workload spmv\n// repro regs 5")
                .find("--workload"),
            std::string::npos);
  EXPECT_EQ(refusal("// repro ctx 0.25\n// repro regs 0"), "accepted");
  EXPECT_EQ(refusal("// repro regs 0\n// repro workload spmv"), "accepted");
}

TEST(Repro, CtxSizesTheRegisterFileWithRegsZero) {
  // With regs 0 the context fraction sizes the register file, so the
  // same program replays in a different number of cycles.
  const std::string program = check::write_repro(check::fuzz_spec(),
                                                 edge_program(9));
  const check::Repro full = check::parse_repro("// repro regs 0\n" + program);
  const check::Repro quarter =
      check::parse_repro("// repro regs 0\n// repro ctx 0.25\n" + program);
  const check::HarnessResult a = check::run_checked(full.program, full.spec);
  const check::HarnessResult b =
      check::run_checked(quarter.program, quarter.spec);
  EXPECT_TRUE(a.ok) << a.message;
  EXPECT_TRUE(b.ok) << b.message;
  EXPECT_NE(a.cycles, b.cycles);
}

// ---------------------------------------------------------------------
// Shrinking passes.

TEST(Shrink, DropInstructionRetargetsBranches) {
  const kasm::Program program = edge_program(13);
  u64 candidates = 0;
  for (u64 i = 0; i < program.size(); ++i) {
    const kasm::Program smaller = check::drop_instruction(program, i);
    if (smaller.size() == 0) continue;  // structurally invalid, rejected
    ++candidates;
    ASSERT_EQ(smaller.size(), program.size() - 1);
    // Every survivor must still be runnable (possibly timing out).
    sim::RunSpec spec = check::fuzz_spec();
    spec.max_cycles = 50'000;
    const check::HarnessResult r = check::run_checked(smaller, spec);
    EXPECT_TRUE(r.ok || r.timed_out) << "drop " << i << ": " << r.message;
  }
  EXPECT_GT(candidates, 0u);
}

TEST(Shrink, HalveLoopItersConverges) {
  kasm::Program program = edge_program(17);
  u32 halvings = 0;
  for (;;) {
    kasm::Program halved = check::halve_loop_iters(program);
    if (halved.size() == 0) break;
    program = std::move(halved);
    ++halvings;
    ASSERT_LT(halvings, 64u) << "halving must terminate";
  }
  EXPECT_GT(halvings, 0u);
  const check::HarnessResult r =
      check::run_checked(program, check::fuzz_spec());
  EXPECT_TRUE(r.ok) << r.message;
}

// ---------------------------------------------------------------------
// Bug-fix guards.

TEST(RngGuards, NextBelowZeroThrows) {
  Xorshift128 rng(1);
  EXPECT_THROW(rng.next_below(0), std::logic_error);
}

TEST(WorkloadValidation, RejectsDegenerateParams) {
  workloads::WorkloadParams good;
  EXPECT_NO_THROW(good.validate());

  workloads::WorkloadParams p = good;
  p.iters_per_thread = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = good;
  p.elements = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = good;
  p.stride = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = good;
  p.locality_window = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = good;
  p.max_regs = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.max_regs = 32;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace virec

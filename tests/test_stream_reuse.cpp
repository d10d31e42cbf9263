// Shared functional stream tests: the headline contract (a sampled
// point replaying another scheme's stream matches its own build bit
// for bit, for every scheme x policy), the sweep economics (one golden
// build per functional identity, however many points share it) and
// the replayer's guards against a corrupted stream.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "check/harness.hpp"
#include "isa/inst.hpp"
#include "kasm/assembler.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "tiered/func_stream.hpp"
#include "tiered/tiered_runner.hpp"

namespace virec::sim {
namespace {

struct SchemePoint {
  Scheme scheme;
  core::PolicyKind policy;
};

// All six schemes; the ViReC-family entries carry representative
// replacement policies (the others ignore the field).
const std::vector<SchemePoint>& scheme_grid() {
  static const std::vector<SchemePoint> grid = {
      {Scheme::kBanked, core::PolicyKind::kLRC},
      {Scheme::kSoftware, core::PolicyKind::kLRC},
      {Scheme::kPrefetchFull, core::PolicyKind::kLRC},
      {Scheme::kPrefetchExact, core::PolicyKind::kLRC},
      {Scheme::kViReC, core::PolicyKind::kLRC},
      {Scheme::kViReC, core::PolicyKind::kPLRU},
      {Scheme::kViReC, core::PolicyKind::kLRU},
      {Scheme::kNSF, core::PolicyKind::kPLRU},
  };
  return grid;
}

RunSpec sampled_spec(const std::string& workload, Scheme scheme,
                     core::PolicyKind policy) {
  RunSpec spec;
  spec.workload = workload;
  spec.scheme = scheme;
  spec.policy = policy;
  spec.threads_per_core = 4;
  spec.params.iters_per_thread = 256;
  spec.params.elements = 1 << 12;
  spec.sample_windows = 5;
  spec.window_insts = 200;
  spec.warmup_insts = 100;
  return spec;
}

/// Bit-exact double comparison: "close" is not good enough for the
/// reuse-equivalence contract.
void expect_bits_eq(double a, double b, const char* what) {
  u64 ab, bb;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

void expect_tiered_identical(const TieredResult& a, const TieredResult& b) {
  EXPECT_EQ(a.total_insts, b.total_insts);
  EXPECT_EQ(a.insts_functional, b.insts_functional);
  EXPECT_EQ(a.insts_detailed, b.insts_detailed);
  expect_bits_eq(a.cpi_mean, b.cpi_mean, "cpi_mean");
  expect_bits_eq(a.cpi_ci_half, b.cpi_ci_half, "cpi_ci_half");
  expect_bits_eq(a.est_cycles, b.est_cycles, "est_cycles");
  expect_bits_eq(a.est_ipc, b.est_ipc, "est_ipc");
  expect_bits_eq(a.est_ipc_lo, b.est_ipc_lo, "est_ipc_lo");
  expect_bits_eq(a.est_ipc_hi, b.est_ipc_hi, "est_ipc_hi");
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].start_inst, b.windows[i].start_inst) << i;
    EXPECT_EQ(a.windows[i].insts, b.windows[i].insts) << i;
    EXPECT_EQ(a.windows[i].cycles, b.windows[i].cycles) << i;
    expect_bits_eq(a.windows[i].cpi, b.windows[i].cpi, "window cpi");
    for (std::size_t s = 0; s < kNumCycleBuckets; ++s) {
      expect_bits_eq(a.windows[i].cpi_stack[s], b.windows[i].cpi_stack[s],
                     "window cpi_stack");
    }
  }
  EXPECT_EQ(a.full.cycles, b.full.cycles);
  EXPECT_EQ(a.full.instructions, b.full.instructions);
  EXPECT_EQ(a.full.context_switches, b.full.context_switches);
  expect_bits_eq(a.full.rf_hit_rate, b.full.rf_hit_rate, "rf_hit_rate");
  EXPECT_EQ(a.full.rf_fills, b.full.rf_fills);
  EXPECT_EQ(a.full.rf_spills, b.full.rf_spills);
}

// ---------------------------------------------------------------------
// Headline contract: reuse is a pure sharing optimization. A point
// replaying a stream another scheme built runs bit-identically to the
// same point building its own stream, for every scheme x policy.

TEST(StreamReuse, BitIdenticalOwnVsSharedStreamAllSchemes) {
  for (const SchemePoint& p : scheme_grid()) {
    SCOPED_TRACE(std::string(scheme_name(p.scheme)) + "/" +
                 core::policy_name(p.policy));
    const RunSpec spec = sampled_spec("gather", p.scheme, p.policy);
    StreamCache::instance().reset_for_test();
    const TieredResult own = run_spec_tiered(spec);
    ASSERT_EQ(StreamCache::instance().stats().built, 1u);

    StreamCache::instance().reset_for_test();
    const Scheme builder =
        p.scheme == Scheme::kBanked ? Scheme::kViReC : Scheme::kBanked;
    run_spec_tiered(sampled_spec("gather", builder, core::PolicyKind::kLRC));
    const TieredResult shared = run_spec_tiered(spec);
    const StreamCache::Stats stats = StreamCache::instance().stats();
    EXPECT_EQ(stats.built, 1u) << "the point must replay the shared stream";
    EXPECT_EQ(stats.mem_hits, 1u);
    expect_tiered_identical(own, shared);
  }
  StreamCache::instance().reset_for_test();
}

// ---------------------------------------------------------------------
// Sweep economics: every point of a scheme x policy grid shares one
// functional identity (scheme and policy are switch-mechanism knobs,
// not functional ones), so an N-point sweep pays exactly one golden
// build — including under parallel --jobs, where concurrent acquirers
// of the in-flight key must block rather than build twice.

TEST(StreamReuse, PolicySweepBuildsStreamOnce) {
  StreamCache::instance().reset_for_test();
  Sweep sweep;
  sweep.base() = sampled_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC, Scheme::kNSF})
      .over_policies({core::PolicyKind::kLRC, core::PolicyKind::kLRU,
                      core::PolicyKind::kPLRU, core::PolicyKind::kFIFO});
  const SweepResults results = sweep.run(/*jobs=*/2);
  ASSERT_EQ(results.size(), 12u);
  const StreamCache::Stats stats = StreamCache::instance().stats();
  EXPECT_EQ(stats.built, 1u) << "functional tier must run once per identity";
  EXPECT_EQ(stats.mem_hits, 11u);
}

TEST(StreamReuse, DistinctIdentitiesBuildSeparately) {
  StreamCache::instance().reset_for_test();
  Sweep sweep;
  sweep.base() = sampled_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  sweep.over_threads({2, 4});  // thread count is part of the identity
  const SweepResults results = sweep.run(/*jobs=*/1);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results.records()[0].result.cycles,
            results.records()[1].result.cycles);
  const StreamCache::Stats stats = StreamCache::instance().stats();
  EXPECT_EQ(stats.built, 2u);
  EXPECT_EQ(stats.mem_hits, 0u);
}

// ---------------------------------------------------------------------
// Hostile streams: a stream corrupted in memory can carry bytes that do
// not fit the system. A replayer refuses a stream that does not fit,
// and a record with a PC outside the program, a scheduler target that
// is not another live thread or an overlong varint throws instead of
// indexing out of range.

TEST(StreamReuse, ReplayerRejectsHostileStreams) {
  // Two threads each run "nop; halt". Record bytes: flags (1 explicit
  // successor PC, 4 scheduler event), then the successor PC and the
  // scheduler target + 1 as varints (0 = no thread left).
  const kasm::Program program = kasm::assemble("nop\nhalt\n");
  const auto stream = [](std::vector<u8> records, int start_tid = 0,
                         u32 threads = 2) {
    auto s = std::make_shared<FuncStream>();
    s->num_threads = threads;
    s->start_tid = start_tid;
    s->n_total = 4;
    s->records = std::move(records);
    return s;
  };
  // Replays a stream to its end through a two-thread system's warm
  // hooks, as a sampled run does.
  const check::ProgramWorkload workload(program);
  const RunSpec spec = check::fuzz_spec();
  const auto replay = [&](const std::shared_ptr<FuncStream>& s) {
    System system(build_config(spec), workload, spec.params);
    FuncStreamReplayer replayer(s, system.program(), system.total_threads());
    cpu::CgmtCore& core = system.core(0);
    core.cut_to_functional();
    replayer.advance(s->n_total, core, system.manager(0),
                     system.memory_system(), /*check=*/nullptr, core.cycle(),
                     /*cpi_scale=*/1);
    return replayer.done();
  };
  const std::vector<u8> honest = {0, 1 | 4, 1, 2, 0, 1 | 4, 1, 0};
  EXPECT_TRUE(replay(stream(honest)));

  // Streams that do not fit the system or the program.
  EXPECT_THROW(FuncStreamReplayer(stream(honest), program, 3),
               std::runtime_error);
  EXPECT_THROW(FuncStreamReplayer(stream(honest, 2), program, 2),
               std::runtime_error);
  EXPECT_THROW(FuncStreamReplayer(stream(honest, -1), program, 2),
               std::runtime_error);
  EXPECT_THROW(FuncStreamReplayer(stream(honest), kasm::Program(), 2),
               std::runtime_error);

  const std::pair<std::vector<u8>, const char*> bad_records[] = {
      {{1, 7}, "successor PC 7"},
      {{4, 0}, "target -1"},  // "no thread left" without a halt
      {{4, 1}, "target 0"},   // rotates to itself
      {{4, 9}, "target 8"},   // a thread that does not exist
      {{4, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1},
       "target 9223372036854775807"},  // 2^63: no signed wrap-around
      {{0, 1 | 4, 1, 2, 4, 1}, "target 0"},  // to halted thread 0
      {{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1},
       "longer than 64 bits"},
  };
  for (const auto& [records, why] : bad_records) {
    try {
      replay(stream(records));
      ADD_FAILURE() << "accepted a stream that should fail with: " << why;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------
// The oracle guards the replayed tier: one destination value off by a
// bit, in a record the decoder still accepts, replays silently without
// the oracle and throws check::CheckError with it.

/// Length of the varint starting at @p at.
std::size_t varint_len(const std::vector<u8>& bytes, std::size_t at) {
  std::size_t n = 1;
  while ((bytes[at + n - 1] & 0x80) != 0) ++n;
  return n;
}

TEST(StreamReuse, OracleCatchesCorruptedReplay) {
  const RunSpec spec =
      sampled_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  const auto make_system = [&] {
    return std::make_unique<System>(build_config(spec),
                                    workloads::find_workload(spec.workload),
                                    spec.params);
  };
  const auto builder = make_system();
  const auto honest = build_func_stream(*builder);
  // The first record (thread start_tid at PC 0) is the flags byte, the
  // successor PC when flag 1 is set, NZCV when flag 2 is set, the
  // address and stored value of a memory op, then one varint per
  // destination register.
  const isa::Inst& inst = builder->program().at(0);
  ASSERT_GT(isa::dst_regs(inst).count, 0u);
  const std::vector<u8>& records = honest->records;
  std::size_t at = 1;
  if ((records[0] & 1) != 0) at += varint_len(records, at);
  if ((records[0] & 2) != 0) at += 1;
  if (isa::is_mem(inst.op)) at += varint_len(records, at);
  if (isa::is_store(inst.op)) at += varint_len(records, at);
  auto corrupt = std::make_shared<FuncStream>(*honest);
  corrupt->records[at] ^= 1;

  const auto replay = [&](bool check) {
    const auto system = make_system();
    if (check) system->enable_check();
    FuncStreamReplayer replayer(corrupt, system->program(),
                                system->total_threads());
    cpu::CgmtCore& core = system->core(0);
    core.cut_to_functional();
    replayer.advance(corrupt->n_total, core, system->manager(0),
                     system->memory_system(), system->check(), core.cycle(),
                     /*cpi_scale=*/1);
    return replayer.pos();
  };
  EXPECT_EQ(replay(false), corrupt->n_total);
  EXPECT_THROW(replay(true), check::CheckError);
}

}  // namespace
}  // namespace virec::sim

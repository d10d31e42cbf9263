// Event-driven cycle skipping tests: the headline invariant (a run
// with quiet-stretch skipping is bit-identical to the cycle-stepped
// run — results, every registry scalar, every sample — for every
// scheme x policy), its interaction with sampling, checkpointing and
// sweeps, the unified watchdog boundary, and the checked-harness /
// repro plumbing of the --no-skip flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/harness.hpp"
#include "check/progen.hpp"
#include "check/repro.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {
namespace {

namespace fs = std::filesystem;

RunSpec tiny_spec(Scheme scheme, core::PolicyKind policy) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = scheme;
  spec.policy = policy;
  spec.threads_per_core = 4;
  spec.context_fraction = 0.5;
  spec.params.iters_per_thread = 24;
  spec.params.elements = 1 << 12;
  return spec;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("skip_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Bit-exact double comparison: "close" is not good enough for the
/// skip-equivalence contract.
void expect_bits_eq(double a, double b, const char* what) {
  u64 ab, bb;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

void expect_results_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  expect_bits_eq(a.ipc, b.ipc, "ipc");
  EXPECT_EQ(a.check_ok, b.check_ok);
  expect_bits_eq(a.rf_hit_rate, b.rf_hit_rate, "rf_hit_rate");
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.rf_fills, b.rf_fills);
  EXPECT_EQ(a.rf_spills, b.rf_spills);
  expect_bits_eq(a.avg_dcache_miss_latency, b.avg_dcache_miss_latency,
                 "avg_dcache_miss_latency");
  // The bulk-charged cycle-accounting stack is part of the contract:
  // skipping must attribute every fast-forwarded cycle to exactly the
  // bucket the stepped run would have.
  for (std::size_t i = 0; i < kNumCycleBuckets; ++i) {
    expect_bits_eq(a.cpi_stack[i], b.cpi_stack[i],
                   cycle_bucket_name(static_cast<CycleBucket>(i)));
  }
}

/// Every scalar in the registry — including the stall counters the
/// skip path bulk-adds — must match the stepped run bit for bit.
void expect_stats_identical(System& skip, System& stepped) {
  const std::vector<Stat> sa = skip.registry().all_scalars();
  const std::vector<Stat> sb = stepped.registry().all_scalars();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name) << i;
    expect_bits_eq(sa[i].value, sb[i].value, sa[i].name.c_str());
  }
}

/// Run @p spec twice — skipping on and off — returning both systems
/// through @p out so callers can compare registries/samples too.
std::pair<RunResult, RunResult> run_both(const RunSpec& spec,
                                         std::unique_ptr<System>* skip_out,
                                         std::unique_ptr<System>* stepped_out,
                                         Cycle sample_interval = 0) {
  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  RunSpec stepped_spec = spec;
  stepped_spec.no_skip = true;
  auto skip_sys =
      std::make_unique<System>(build_config(spec), workload, spec.params);
  auto stepped_sys = std::make_unique<System>(build_config(stepped_spec),
                                             workload, spec.params);
  if (sample_interval > 0) {
    skip_sys->set_sample_interval(sample_interval);
    stepped_sys->set_sample_interval(sample_interval);
  }
  const RunResult ra = skip_sys->run();
  const RunResult rb = stepped_sys->run();
  *skip_out = std::move(skip_sys);
  *stepped_out = std::move(stepped_sys);
  return {ra, rb};
}

// ---------------------------------------------------------------------
// Headline invariant: skipping on vs off => bit-identical RunResult and
// registry, for every scheme x policy.

class SkipEquivalence
    : public ::testing::TestWithParam<std::tuple<Scheme, core::PolicyKind>> {};

TEST_P(SkipEquivalence, SkippedRunMatchesSteppedRun) {
  const auto [scheme, policy] = GetParam();
  std::unique_ptr<System> skip, stepped;
  const auto [ra, rb] = run_both(tiny_spec(scheme, policy), &skip, &stepped);
  ASSERT_TRUE(ra.check_ok) << ra.check_msg;
  expect_results_identical(ra, rb);
  expect_stats_identical(*skip, *stepped);
}

std::vector<std::tuple<Scheme, core::PolicyKind>> all_points() {
  std::vector<std::tuple<Scheme, core::PolicyKind>> out;
  for (Scheme s : {Scheme::kBanked, Scheme::kSoftware, Scheme::kPrefetchFull,
                   Scheme::kPrefetchExact, Scheme::kViReC, Scheme::kNSF}) {
    for (core::PolicyKind p : core::all_policies()) out.emplace_back(s, p);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllPolicies, SkipEquivalence, ::testing::ValuesIn(all_points()),
    [](const ::testing::TestParamInfo<SkipEquivalence::ParamType>& info) {
      std::string name =
          std::string(scheme_name(std::get<0>(info.param))) + "_" +
          core::policy_name(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------
// The single-thread pointer chase is the skip showcase (long quiet
// memory stalls, the frontend-wait and idle classifications) — check
// it explicitly rather than only via gather.

TEST(Skip, PointerChaseEquivalence) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.workload = "pchase";
  spec.threads_per_core = 1;
  spec.params.iters_per_thread = 2000;
  spec.params.elements = 1 << 14;
  std::unique_ptr<System> skip, stepped;
  const auto [ra, rb] = run_both(spec, &skip, &stepped);
  ASSERT_TRUE(ra.check_ok) << ra.check_msg;
  expect_results_identical(ra, rb);
  expect_stats_identical(*skip, *stepped);
}

// ---------------------------------------------------------------------
// Multi-core contention: each core skips alone, so the scheduler must
// keep steps in (cycle, core) order or crossbar/DRAM interleaving would
// diverge.

TEST(Skip, MulticoreContentionEquivalence) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.num_cores = 2;
  std::unique_ptr<System> skip, stepped;
  const auto [ra, rb] = run_both(spec, &skip, &stepped);
  ASSERT_TRUE(ra.check_ok) << ra.check_msg;
  expect_results_identical(ra, rb);
  expect_stats_identical(*skip, *stepped);
}

// ---------------------------------------------------------------------
// MSHR starvation: no run of the stat-schema corpus fills the default
// dcache's 24 MSHRs, so none reaches the path where a miss waits for a
// free one. With one or two MSHRs the miss-heavy kernels wait there;
// skipping must stay exact, under the oracle.

TEST(Skip, MshrStarvedDcacheMatchesStepped) {
  for (const char* name : {"gather", "spmv"}) {
    for (Scheme scheme : {Scheme::kBanked, Scheme::kViReC}) {
      for (u32 mshrs : {1u, 2u}) {
        SCOPED_TRACE(std::string(name) + " " + scheme_name(scheme) + " " +
                     std::to_string(mshrs) + " MSHR(s)");
        RunSpec spec = tiny_spec(scheme, core::PolicyKind::kLRC);
        spec.workload = name;
        spec.threads_per_core = 8;
        spec.context_fraction = 0.6;
        spec.params.iters_per_thread = 64;
        const workloads::Workload& workload = workloads::find_workload(name);
        const auto run = [&](bool no_skip) {
          RunSpec s = spec;
          s.no_skip = no_skip;
          SystemConfig config = build_config(s);
          config.mem.dcache.mshrs = mshrs;
          auto sys = std::make_unique<System>(config, workload, s.params);
          sys->enable_check();
          const RunResult result = sys->run();
          return std::make_pair(result, std::move(sys));
        };
        const auto [ra, skip] = run(false);
        const auto [rb, stepped] = run(true);
        ASSERT_TRUE(ra.check_ok) << ra.check_msg;
        EXPECT_GT(skip->memory_system().dcache(0).stats().get(
                      "mshr_stall_cycles"),
                  0.0);
        expect_results_identical(ra, rb);
        expect_stats_identical(*skip, *stepped);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Sampling: skips are clamped to the sampling grid, so the sampled
// time series (including instantaneous fields like runnable_threads
// and outstanding_misses) is identical sample for sample.

TEST(Skip, SampledTimeSeriesIdentical) {
  std::unique_ptr<System> skip, stepped;
  // An odd interval avoids aliasing with any workload period.
  const auto [ra, rb] = run_both(tiny_spec(Scheme::kViReC,
                                           core::PolicyKind::kLRC),
                                 &skip, &stepped, /*sample_interval=*/237);
  ASSERT_TRUE(ra.check_ok) << ra.check_msg;
  expect_results_identical(ra, rb);
  const std::vector<Sample>& sa = skip->samples();
  const std::vector<Sample>& sb = stepped->samples();
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_GE(sa.size(), 3u) << "run too short to exercise sampling";
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cycle, sb[i].cycle) << i;
    EXPECT_EQ(sa[i].instructions, sb[i].instructions) << i;
    expect_bits_eq(sa[i].ipc, sb[i].ipc, "sample ipc");
    expect_bits_eq(sa[i].interval_ipc, sb[i].interval_ipc,
                   "sample interval_ipc");
    expect_bits_eq(sa[i].rf_hit_rate, sb[i].rf_hit_rate,
                   "sample rf_hit_rate");
    EXPECT_EQ(sa[i].runnable_threads, sb[i].runnable_threads) << i;
    EXPECT_EQ(sa[i].outstanding_misses, sb[i].outstanding_misses) << i;
  }
}

// ---------------------------------------------------------------------
// Checkpointing: skips clamp to the checkpoint grid, snapshots carry
// no skip state, and config_hash ignores the skip flag — so snapshots
// move freely between skip modes in either direction.

TEST(Skip, CheckpointsCrossSkipModes) {
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("ckpt");
  const workloads::Workload& workload = workloads::find_workload(spec.workload);

  RunSpec stepped_spec = spec;
  stepped_spec.no_skip = true;
  EXPECT_EQ(System(build_config(spec), workload, spec.params).config_hash(),
            System(build_config(stepped_spec), workload, spec.params)
                .config_hash())
      << "config_hash must ignore the skip flag";

  // Checkpoint under skipping...
  System straight(build_config(spec), workload, spec.params);
  straight.set_checkpointing(1000, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok) << want.check_msg;

  std::vector<fs::path> snaps;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".vckpt") snaps.push_back(e.path());
  }
  std::sort(snaps.begin(), snaps.end());
  ASSERT_GE(snaps.size(), 2u) << "run too short to checkpoint mid-flight";
  const fs::path snap = snaps[snaps.size() / 2];

  // ...restore into a stepped run, and the other way around.
  System stepped(build_config(stepped_spec), workload, spec.params);
  stepped.restore(snap.string());
  expect_results_identical(want, stepped.run());

  System skipped(build_config(spec), workload, spec.params);
  skipped.restore(snap.string());
  expect_results_identical(want, skipped.run());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sweeps: a whole sweep CSV is byte-identical across skip modes.

TEST(Skip, SweepCsvByteIdentical) {
  auto sweep_csv = [](bool no_skip) {
    Sweep sweep;
    sweep.base().workload = "gather";
    sweep.base().context_fraction = 0.8;
    sweep.base().params.iters_per_thread = 16;
    sweep.base().params.elements = 1 << 12;
    sweep.base().no_skip = no_skip;
    sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
        .over_threads({2, 4})
        .over_context_fractions({1.0, 0.5});
    std::ostringstream os;
    sweep.run().write_csv(os);
    return os.str();
  };
  EXPECT_EQ(sweep_csv(false), sweep_csv(true));
}

// ---------------------------------------------------------------------
// Watchdog boundary: the run fires strictly after max_cycles — a
// budget equal to the natural run length completes, one cycle less
// throws — in one epoch and when sampling splits the run into many,
// with skipping on or off (skips are clamped to the budget).

class SkipWatchdog : public ::testing::TestWithParam<bool> {};

TEST_P(SkipWatchdog, FiresStrictlyAfterBudgetOnBothLoops) {
  const bool no_skip = GetParam();
  RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  spec.no_skip = no_skip;
  const Cycle natural = run_spec(spec).cycles;
  ASSERT_GT(natural, 1u);

  spec.max_cycles = natural;  // exactly enough: must complete
  EXPECT_NO_THROW(run_spec(spec));
  spec.max_cycles = natural - 1;  // one short: must throw
  EXPECT_THROW(run_spec(spec), std::runtime_error);

  // Same boundary when sampling epochs end every 100 cycles.
  spec.max_cycles = natural;
  const workloads::Workload& workload = workloads::find_workload(spec.workload);
  {
    System sys(build_config(spec), workload, spec.params);
    sys.set_sample_interval(100);
    EXPECT_NO_THROW(sys.run());
  }
  spec.max_cycles = natural - 1;
  {
    System sys(build_config(spec), workload, spec.params);
    sys.set_sample_interval(100);
    EXPECT_THROW(sys.run(), std::runtime_error);
  }
}

INSTANTIATE_TEST_SUITE_P(SkipAndStepped, SkipWatchdog, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "stepped" : "skipping";
                         });

// ---------------------------------------------------------------------
// Checked harness: checked runs report identical cycle counts and
// oracle progress across skip modes on 1, 2 and 4 cores, and the repro
// format round-trips the flag.

TEST(Skip, CheckedHarnessEquivalence) {
  check::ProgenOptions gen;
  gen.body_len = 24;
  gen.loop_iters = 40;
  gen.edge_ops = true;
  for (u32 cores : {1u, 2u, 4u}) {
    for (u64 seed = 1; seed <= 4; ++seed) {
      const kasm::Program program = check::random_program(seed, gen);
      RunSpec spec = check::fuzz_spec();
      spec.num_cores = cores;
      spec.params.seed = seed;
      const check::HarnessResult skip = check::run_checked(program, spec);
      RunSpec stepped_spec = spec;
      stepped_spec.no_skip = true;
      const check::HarnessResult stepped =
          check::run_checked(program, stepped_spec);
      const std::string where = std::to_string(cores) + " core(s), seed " +
                                std::to_string(seed);
      EXPECT_EQ(skip.ok, stepped.ok) << where;
      EXPECT_EQ(skip.timed_out, stepped.timed_out) << where;
      EXPECT_EQ(skip.cycles, stepped.cycles) << where;
      EXPECT_EQ(skip.instructions, stepped.instructions) << where;
      EXPECT_EQ(skip.commits_checked, stepped.commits_checked) << where;
    }
  }
}

TEST(Skip, ReproRoundTripsNoSkipFlag) {
  check::ProgenOptions gen;
  gen.body_len = 8;
  gen.loop_iters = 4;
  const kasm::Program program = check::random_program(7, gen);

  RunSpec spec = check::fuzz_spec();
  spec.no_skip = true;
  const std::string text = check::write_repro(spec, program);
  EXPECT_NE(text.find("// repro no-skip\n"), std::string::npos);
  EXPECT_TRUE(check::parse_repro(text).spec.no_skip);

  // The flag is only recorded when set: default repros (and pre-skip
  // ones) parse with skipping on.
  spec.no_skip = false;
  const std::string default_text = check::write_repro(spec, program);
  EXPECT_EQ(default_text.find("no-skip"), std::string::npos);
  EXPECT_FALSE(check::parse_repro(default_text).spec.no_skip);
}

}  // namespace
}  // namespace virec::sim

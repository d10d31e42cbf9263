// Tiered simulation tests: architectural fidelity of the replayed
// functional tier (oracle-enforced at every replayed instruction, so
// tier boundaries included), sampled-estimate sanity and its interval,
// determinism and guards.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hpp"
#include "sim/sweep.hpp"
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

RunSpec small_spec(const std::string& workload, Scheme scheme,
                   core::PolicyKind policy) {
  RunSpec spec;
  spec.workload = workload;
  spec.scheme = scheme;
  spec.policy = policy;
  spec.threads_per_core = 4;
  spec.params.iters_per_thread = 64;
  spec.params.elements = 1 << 12;
  return spec;
}

// The lockstep oracle runs through a sampled run: every replayed
// instruction is compared against the shadow interpreter's
// registers/memory/NZCV through the same manager. Detailed probes run
// unchecked and are reverted, so any architectural state a probe or a
// cut/resume boundary leaves wrong shows up at the next replayed
// instruction and throws check::CheckError.
TEST(Tiered, OracleHoldsAcrossTierBoundariesAllSchemes) {
  for (const SchemePoint& p : scheme_grid()) {
    RunSpec spec = small_spec("gather", p.scheme, p.policy);
    spec.params.iters_per_thread = 256;
    System system(build_config(spec),
                  workloads::find_workload(spec.workload), spec.params);
    system.enable_check();
    spec.sample_windows = 5;
    spec.window_insts = 200;
    spec.warmup_insts = 100;
    TieredRunner runner(system, spec);
    TieredResult result;
    ASSERT_NO_THROW(result = runner.run())
        << "scheme " << scheme_name(p.scheme);
    EXPECT_TRUE(result.full.check_ok) << result.full.check_msg;
    EXPECT_EQ(result.windows.size(), 5u);
    EXPECT_GT(result.insts_functional, 0u);
    EXPECT_GT(result.insts_detailed, 0u);
  }
}

// A checked sampled run: the oracle checks every replayed instruction
// (the probes run unchecked, since they are reverted), the replay
// covers the detailed run's whole instruction stream, and checking
// leaves the estimate untouched.
TEST(Tiered, CheckedSampledRunMatchesDetailedArchitecturally) {
  for (const SchemePoint& p : scheme_grid()) {
    SCOPED_TRACE(std::string(scheme_name(p.scheme)) + "/" +
                 core::policy_name(p.policy));
    RunSpec spec = small_spec("stride", p.scheme, p.policy);
    const RunResult detailed = run_spec(spec);
    spec.sample_windows = 4;
    spec.window_insts = 100;
    spec.warmup_insts = 50;
    const TieredResult unchecked = run_spec_tiered(spec);

    System system(build_config(spec),
                  workloads::find_workload(spec.workload), spec.params);
    system.enable_check();  // what --check does
    TieredRunner runner(system, spec);
    const TieredResult checked = runner.run();

    EXPECT_TRUE(checked.full.check_ok) << checked.full.check_msg;
    EXPECT_EQ(checked.total_insts, detailed.instructions);
    EXPECT_EQ(system.check_context()->commits_checked(),
              checked.total_insts);
    // Exact equality: the oracle only reads the replayed state.
    EXPECT_EQ(checked.est_cycles, unchecked.est_cycles);
    EXPECT_EQ(checked.est_ipc, unchecked.est_ipc);
    EXPECT_EQ(checked.est_ipc_lo, unchecked.est_ipc_lo);
    EXPECT_EQ(checked.est_ipc_hi, unchecked.est_ipc_hi);
  }
}

// Closed accounting survives the tier switches: the FastForward bucket
// absorbs exactly the functional span, so the stack still sums to the
// elapsed cycles.
TEST(Tiered, CycleAccountingStaysClosed) {
  RunSpec spec = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  spec.sample_windows = 4;
  spec.window_insts = 200;
  spec.warmup_insts = 50;
  const TieredResult result = [&] {
    System system(build_config(spec),
                  workloads::find_workload(spec.workload), spec.params);
    TieredRunner runner(system, spec);
    return runner.run();
  }();
  double stack_sum = 0.0;
  for (const double v : result.full.cpi_stack) stack_sum += v;
  EXPECT_DOUBLE_EQ(stack_sum, static_cast<double>(result.full.cycles));
  // The fast-forward bucket covers the functional spans: at least one
  // warm-clock cycle per functional instruction (cpi_scale >= 1).
  const double ff = result.full.cpi_stack[static_cast<std::size_t>(
      CycleBucket::kFastForward)];
  EXPECT_GE(static_cast<u64>(ff), result.insts_functional);
}

TEST(Tiered, SampledEstimateTracksFullRun) {
  RunSpec spec = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  spec.params.iters_per_thread = 512;
  const RunResult full = run_spec(spec);

  RunSpec sampled = spec;
  sampled.sample_windows = 10;
  sampled.window_insts = 500;
  sampled.warmup_insts = 250;
  const TieredResult tiered = run_spec_tiered(sampled);
  EXPECT_EQ(tiered.total_insts, full.instructions);
  ASSERT_GT(tiered.est_ipc, 0.0);
  const double err =
      std::abs(tiered.est_ipc - full.ipc) / full.ipc;
  // Loose bound for a short run; the bench harness validates the
  // <= 5% target on the long-workload grid.
  EXPECT_LT(err, 0.15) << "est " << tiered.est_ipc << " vs " << full.ipc;
}

// Full-run IPC falls inside the reported confidence interval —
// widened by a 2% calibration slack for residual warm-state bias,
// which at this miniature workload scale can exceed the pure sampling
// variance the interval measures (docs/performance.md discusses the
// known pathological points, stride/software and reduce, which are
// deliberately not in this grid) — on >= 90% of a seeded grid.
TEST(Tiered, ConfidenceIntervalCoversFullIpc) {
  struct Point {
    const char* workload;
    Scheme scheme;
    u64 seed;
  };
  const std::vector<Point> grid = {
      {"gather", Scheme::kViReC, 1},   {"gather", Scheme::kBanked, 2},
      {"gather", Scheme::kNSF, 3},     {"stride", Scheme::kViReC, 4},
      {"stride", Scheme::kBanked, 5},  {"pchase", Scheme::kViReC, 6},
      {"pchase", Scheme::kBanked, 7},  {"gather_local", Scheme::kViReC, 8},
      {"gather", Scheme::kPrefetchFull, 9},
      {"gather", Scheme::kPrefetchExact, 10},
  };
  int covered = 0;
  for (const Point& point : grid) {
    RunSpec spec =
        small_spec(point.workload, point.scheme, core::PolicyKind::kLRC);
    spec.params.iters_per_thread = 2048;
    spec.params.seed = point.seed;
    const RunResult full = run_spec(spec);

    RunSpec sampled = spec;
    sampled.sample_windows = 12;
    sampled.window_insts = 400;
    sampled.warmup_insts = 200;
    const TieredResult tiered = run_spec_tiered(sampled);
    const double slack = 0.02 * full.ipc;
    if (full.ipc >= tiered.est_ipc_lo - slack &&
        full.ipc <= tiered.est_ipc_hi + slack) {
      ++covered;
    } else {
      std::printf("MISS %s/%s full=%.5f est=%.5f [%.5f,%.5f]\n",
                  point.workload, scheme_name(point.scheme), full.ipc,
                  tiered.est_ipc, tiered.est_ipc_lo, tiered.est_ipc_hi);
    }
  }
  EXPECT_GE(covered, 9) << "full-run IPC inside the CI on only " << covered
                        << "/10 grid points";
}

// Identical sampled specs produce bit-identical estimates, and a
// sampled sweep is deterministic and order-stable under --jobs.
// The interval half-width is t_{0.975,n-1} * s / sqrt(n) with the
// Student-t quantile at every window count, not only the tabulated
// small ones.
TEST(Tiered, ConfidenceIntervalUsesStudentTQuantile) {
  const std::pair<u32, double> cases[] = {{25, 2.0639}, {62, 1.9996}};
  for (const auto& [n, t] : cases) {
    SCOPED_TRACE(std::to_string(n) + " windows");
    RunSpec spec = small_spec("gather", Scheme::kViReC,
                              core::PolicyKind::kLRC);
    spec.params.iters_per_thread = 512;
    spec.sample_windows = n;
    spec.window_insts = 60;
    spec.warmup_insts = 20;
    const TieredResult r = run_spec_tiered(spec);
    ASSERT_EQ(r.windows.size(), n);
    double mean = 0.0;
    for (const WindowStat& w : r.windows) mean += w.cpi;
    mean /= n;
    double var = 0.0;
    for (const WindowStat& w : r.windows) {
      var += (w.cpi - mean) * (w.cpi - mean);
    }
    const double s = std::sqrt(var / (n - 1));
    ASSERT_GT(s, 0.0);
    EXPECT_NEAR(r.cpi_ci_half / (s / std::sqrt(static_cast<double>(n))), t,
                0.001);
  }
}

TEST(Tiered, SampledRunsAreDeterministic) {
  RunSpec spec = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  spec.params.iters_per_thread = 1024;
  spec.sample_windows = 6;
  spec.window_insts = 300;
  spec.warmup_insts = 100;
  const TieredResult a = run_spec_tiered(spec);
  const TieredResult b = run_spec_tiered(spec);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].start_inst, b.windows[i].start_inst);
    EXPECT_EQ(a.windows[i].cycles, b.windows[i].cycles);
    EXPECT_EQ(a.windows[i].insts, b.windows[i].insts);
  }
  EXPECT_DOUBLE_EQ(a.est_ipc, b.est_ipc);
  EXPECT_DOUBLE_EQ(a.cpi_ci_half, b.cpi_ci_half);

  Sweep sweep;
  sweep.base() = spec;
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC, Scheme::kNSF})
      .over_threads({2, 4});
  const SweepResults serial = sweep.run(/*jobs=*/1);
  const SweepResults parallel = sweep.run(/*jobs=*/2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.records()[i].result.cycles,
              parallel.records()[i].result.cycles);
    EXPECT_DOUBLE_EQ(serial.records()[i].result.ipc,
                     parallel.records()[i].result.ipc);
  }
}

TEST(Tiered, GuardsRejectInvalidConfigs) {
  // Zero-size measurement windows.
  RunSpec zero = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  zero.sample_windows = 4;
  zero.window_insts = 0;
  EXPECT_THROW(validate(zero), std::invalid_argument);
  // Multi-core sampling unsupported.
  RunSpec multi = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  multi.num_cores = 2;
  multi.sample_windows = 4;
  EXPECT_THROW(run_spec_tiered(multi), std::invalid_argument);
  // Windows that cannot fit the workload (warm-up + window exceed the
  // per-window instruction spacing for every window).
  RunSpec fat = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  fat.params.iters_per_thread = 8;
  fat.sample_windows = 50;
  fat.window_insts = 100'000;
  fat.warmup_insts = 100'000;
  EXPECT_THROW(run_spec_tiered(fat), std::invalid_argument);
}

// A spec without sampling flags takes the pre-tiered path and is
// bit-identical to a direct System::run().
TEST(Tiered, UnsampledSpecUnchanged) {
  RunSpec spec = small_spec("gather", Scheme::kViReC, core::PolicyKind::kLRC);
  const RunResult via_spec = run_spec(spec);
  System system(build_config(spec), workloads::find_workload(spec.workload),
                spec.params);
  const RunResult direct = system.run();
  EXPECT_EQ(via_spec.cycles, direct.cycles);
  EXPECT_EQ(via_spec.instructions, direct.instructions);
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    EXPECT_DOUBLE_EQ(via_spec.cpi_stack[b], direct.cpi_stack[b]);
  }
  EXPECT_DOUBLE_EQ(
      via_spec.cpi_stack[static_cast<std::size_t>(CycleBucket::kFastForward)],
      0.0);
}

}  // namespace
}  // namespace virec::sim

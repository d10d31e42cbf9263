// Run scheduler tests. System::run always advances the live core with
// the smallest (cycle, core index) key, which steps while its key stays
// below the runner-up's or skips a quiet stretch alone. The headline
// invariant: that is bit-identical to --no-skip stepping — results,
// every registry scalar, every sample — for every scheme x policy at
// 1/2/4/16 cores. Skip and --no-skip share the scheduler, so a wrong
// key order would move both alike; the outputs of the lockstep loop the
// scheduler replaced are therefore pinned as well. Also covered: the
// sampled series, checkpoints crossing skip modes, the watchdog
// boundary, the lockstep oracle on a multi-core run and the progress
// heartbeat.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "sim/runner.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"

namespace virec::sim {
namespace {

namespace fs = std::filesystem;

/// Multi-core contention point: small enough to sweep every scheme x
/// policy x core count, large enough that cores genuinely interleave at
/// the crossbar.
RunSpec tiny_spec(Scheme scheme, core::PolicyKind policy, u32 cores = 4) {
  RunSpec spec;
  spec.workload = "gather";
  spec.scheme = scheme;
  spec.policy = policy;
  spec.num_cores = cores;
  spec.threads_per_core = 4;
  spec.context_fraction = 0.5;
  spec.params.iters_per_thread = 24;
  spec.params.elements = 1 << 12;
  return spec;
}

RunSpec stepped(RunSpec spec) {
  spec.no_skip = true;
  return spec;
}

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sched_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::unique_ptr<System> make_system(const RunSpec& spec) {
  return std::make_unique<System>(
      build_config(spec), workloads::find_workload(spec.workload), spec.params);
}

/// Bit-exact double comparison: "close" is not good enough for the
/// run-mode equivalence contract.
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
  for (std::size_t i = 0; i < kNumCycleBuckets; ++i) {
    expect_bits_eq(a.cpi_stack[i], b.cpi_stack[i],
                   cycle_bucket_name(static_cast<CycleBucket>(i)));
  }
}

/// Every scalar in the registry — including the crossbar/DRAM
/// contention counters — must match bit for bit.
void expect_stats_identical(const System& a, const System& b) {
  const std::vector<Stat> sa = a.registry().all_scalars();
  const std::vector<Stat> sb = b.registry().all_scalars();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name) << i;
    expect_bits_eq(sa[i].value, sb[i].value, sa[i].name.c_str());
  }
}

void expect_samples_identical(const System& a, const System& b) {
  const std::vector<Sample>& sa = a.samples();
  const std::vector<Sample>& sb = b.samples();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cycle, sb[i].cycle) << i;
    EXPECT_EQ(sa[i].instructions, sb[i].instructions) << i;
    expect_bits_eq(sa[i].ipc, sb[i].ipc, "sample ipc");
    expect_bits_eq(sa[i].interval_ipc, sb[i].interval_ipc,
                   "sample interval_ipc");
    expect_bits_eq(sa[i].rf_hit_rate, sb[i].rf_hit_rate, "sample rf_hit_rate");
    EXPECT_EQ(sa[i].runnable_threads, sb[i].runnable_threads) << i;
    EXPECT_EQ(sa[i].outstanding_misses, sb[i].outstanding_misses) << i;
    for (std::size_t k = 0; k < kNumCycleBuckets; ++k) {
      expect_bits_eq(sa[i].cpi[k], sb[i].cpi[k], "sample cpi");
    }
  }
}

/// Run @p spec with skipping on and off, returning both systems so
/// callers can compare registries and samples too.
std::pair<RunResult, RunResult> run_both(const RunSpec& spec,
                                         std::unique_ptr<System>* skip_out,
                                         std::unique_ptr<System>* step_out,
                                         Cycle sample_interval = 0) {
  auto skip_sys = make_system(spec);
  auto step_sys = make_system(stepped(spec));
  skip_sys->set_sample_interval(sample_interval);
  step_sys->set_sample_interval(sample_interval);
  const RunResult ra = skip_sys->run();
  const RunResult rb = step_sys->run();
  *skip_out = std::move(skip_sys);
  *step_out = std::move(step_sys);
  return {ra, rb};
}

// ---------------------------------------------------------------------
// Headline invariant: the scheduler with skipping vs --no-skip =>
// bit-identical RunResult and registry, for every scheme x policy at
// 1/2/4/16 cores.

class SchedulerEquivalence
    : public ::testing::TestWithParam<std::tuple<Scheme, core::PolicyKind>> {};

TEST_P(SchedulerEquivalence, SkippingMatchesStepping) {
  const auto [scheme, policy] = GetParam();
  for (const u32 cores : {1u, 2u, 4u, 16u}) {
    SCOPED_TRACE("cores=" + std::to_string(cores));
    std::unique_ptr<System> skip, step;
    const auto [ra, rb] =
        run_both(tiny_spec(scheme, policy, cores), &skip, &step);
    ASSERT_TRUE(ra.check_ok) << ra.check_msg;
    expect_results_identical(ra, rb);
    expect_stats_identical(*skip, *step);
  }
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
    AllSchemesAllPolicies, SchedulerEquivalence,
    ::testing::ValuesIn(all_points()),
    [](const ::testing::TestParamInfo<SchedulerEquivalence::ParamType>& info) {
      std::string name =
          std::string(scheme_name(std::get<0>(info.param))) + "_" +
          core::policy_name(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---------------------------------------------------------------------
// Pinned output of the lockstep loop the scheduler replaced, recorded
// with that loop: RunResult (cycles, instructions and an FNV-1a hash of
// its codec bytes) plus an FNV-1a hash of every registry scalar. A
// wrong (cycle, core) tie-break reorders shared accesses and moves
// these, with skipping on or off.

u64 result_hash(const RunResult& r) {
  ckpt::Encoder enc;
  ckpt::encode_result(enc, r);
  return ckpt::fnv1a(ckpt::kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

u64 registry_hash(const System& sys) {
  u64 h = ckpt::kFnvOffsetBasis;
  for (const Stat& s : sys.registry().all_scalars()) {
    h = ckpt::fnv1a(h, s.name.data(), s.name.size());
    h = ckpt::fnv1a(h, &s.value, sizeof s.value);
  }
  return h;
}

u64 samples_hash(const System& sys) {
  u64 h = ckpt::kFnvOffsetBasis;
  for (const Sample& s : sys.samples()) {
    h = ckpt::fnv1a(h, &s.cycle, sizeof s.cycle);
    h = ckpt::fnv1a(h, &s.instructions, sizeof s.instructions);
    h = ckpt::fnv1a(h, &s.ipc, sizeof s.ipc);
    h = ckpt::fnv1a(h, &s.interval_ipc, sizeof s.interval_ipc);
    h = ckpt::fnv1a(h, &s.rf_hit_rate, sizeof s.rf_hit_rate);
    h = ckpt::fnv1a(h, &s.runnable_threads, sizeof s.runnable_threads);
    h = ckpt::fnv1a(h, &s.outstanding_misses, sizeof s.outstanding_misses);
    h = ckpt::fnv1a(h, s.cpi.data(), sizeof s.cpi);
  }
  return h;
}

struct Pinned {
  u32 cores;
  const char* workload;
  Scheme scheme;
  Cycle cycles;
  u64 instructions;
  u64 result;
  u64 registry;
};

constexpr Pinned kPinned[] = {
    {2, "gather", Scheme::kBanked, 2652, 976,
     0x089194b7770fd808ull, 0x78ea83b20fab094cull},
    {2, "gather", Scheme::kViReC, 3065, 976,
     0x651fd42e8b653e2aull, 0x5c985ba207e4b7f1ull},
    {2, "gather", Scheme::kNSF, 3766, 976,
     0x861e242c608d7765ull, 0x2f71e5acb9df4ec5ull},
    {2, "pchase", Scheme::kBanked, 2278, 592,
     0xc7efd84d0d7f0021ull, 0xf5678d2dabda8fa4ull},
    {2, "pchase", Scheme::kViReC, 2443, 592,
     0x4d7bb3a1143db8dbull, 0x1146d417dff18252ull},
    {2, "pchase", Scheme::kNSF, 2729, 592,
     0x476fd92707877a51ull, 0x063db0f86f9b02f6ull},
    {2, "spmv", Scheme::kBanked, 3283, 1568,
     0x9a27a6aaf28d3af1ull, 0xe9dea7145ad13663ull},
    {2, "spmv", Scheme::kViReC, 4179, 1568,
     0x1b2c515020ea8651ull, 0x6311f36d75e3f8ecull},
    {2, "spmv", Scheme::kNSF, 5473, 1568,
     0x85ac808dcd74ca17ull, 0x644100f7508ca81full},
    {4, "gather", Scheme::kBanked, 3454, 1952,
     0x1b5687c7d4d831caull, 0x84e9d491e7ab6b05ull},
    {4, "gather", Scheme::kViReC, 3735, 1952,
     0xf58dc775dc3e91d8ull, 0x6e869750bb1129c8ull},
    {4, "gather", Scheme::kNSF, 4252, 1952,
     0xf857d98f0a2ea6dcull, 0x8569ee6829aeaa2aull},
    {4, "pchase", Scheme::kBanked, 2992, 1184,
     0xe29e8a363c72d112ull, 0xa6726cd66f2cac7cull},
    {4, "pchase", Scheme::kViReC, 3136, 1184,
     0x374d6f30cdb59275ull, 0x92ab4124f4840343ull},
    {4, "pchase", Scheme::kNSF, 3573, 1184,
     0x2f7a743caf32123aull, 0x7332c343073e00c5ull},
    {4, "spmv", Scheme::kBanked, 4076, 3136,
     0xfaad382a2e164605ull, 0xc3eea36a4871d17full},
    {4, "spmv", Scheme::kViReC, 4878, 3136,
     0x6d71ee738a9c9078ull, 0x1243a9380fa92b17ull},
    {4, "spmv", Scheme::kNSF, 5881, 3136,
     0x5d24401c978a0e89ull, 0x0df736b055c2a56aull},
};

TEST(Scheduler, MatchesPinnedLockstepOutput) {
  for (const Pinned& p : kPinned) {
    RunSpec spec = tiny_spec(p.scheme, core::PolicyKind::kLRC, p.cores);
    spec.workload = p.workload;
    for (const bool no_skip : {false, true}) {
      SCOPED_TRACE(std::to_string(p.cores) + "c " + p.workload + " " +
                   scheme_name(p.scheme) + (no_skip ? " no-skip" : ""));
      spec.no_skip = no_skip;
      auto sys = make_system(spec);
      const RunResult r = sys->run();
      ASSERT_TRUE(r.check_ok) << r.check_msg;
      EXPECT_EQ(r.cycles, p.cycles);
      EXPECT_EQ(r.instructions, p.instructions);
      EXPECT_EQ(result_hash(r), p.result);
      EXPECT_EQ(registry_hash(*sys), p.registry);
    }
  }
}

/// Checkpoint files in @p dir: count and FNV-1a over (name, bytes) in
/// name order.
std::pair<std::size_t, u64> snapshot_fingerprint(const fs::path& dir) {
  std::vector<fs::path> snaps;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".vckpt") snaps.push_back(e.path());
  }
  std::sort(snaps.begin(), snaps.end());
  u64 h = ckpt::kFnvOffsetBasis;
  for (const fs::path& snap : snaps) {
    const std::string name = snap.filename().string();
    std::ifstream in(snap, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    h = ckpt::fnv1a(h, name.data(), name.size());
    h = ckpt::fnv1a(h, bytes.data(), bytes.size());
  }
  return {snaps.size(), h};
}

// Sampling and checkpoint grids are the scheduler's epoch ends: the
// pinned point crosses both (an odd sampling interval, so the grids
// interleave). The snapshot hash covers the checkpoint file format as
// well, so a deliberate format change re-pins that one value.
TEST(Scheduler, MatchesPinnedSampledCheckpointedRun) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  for (const bool no_skip : {false, true}) {
    SCOPED_TRACE(no_skip ? "no-skip" : "skip");
    const fs::path dir = scratch_dir(no_skip ? "pin_step" : "pin_skip");
    auto sys = make_system(no_skip ? stepped(spec) : spec);
    sys->set_sample_interval(237);
    sys->set_checkpointing(1000, dir.string());
    const RunResult r = sys->run();
    ASSERT_TRUE(r.check_ok) << r.check_msg;
    EXPECT_EQ(result_hash(r), 0xf58dc775dc3e91d8ull);
    EXPECT_EQ(registry_hash(*sys), 0x6e869750bb1129c8ull);
    EXPECT_EQ(sys->samples().size(), 16u);
    EXPECT_EQ(samples_hash(*sys), 0xa110d08663ba7709ull);
    const auto [count, snaps] = snapshot_fingerprint(dir);
    EXPECT_EQ(count, 3u);
    EXPECT_EQ(snaps, 0xa5d99dbf7ddef63bull);
    fs::remove_all(dir);
  }
}

// The pin above covers only ViReC/LRC sections. Each scheme's manager
// writes its own "mgr" layout, so every scheme's snapshot bytes are
// pinned too, plus a 2-core run whose core and cache sections repeat.
TEST(Scheduler, SnapshotBytesArePinnedForEveryScheme) {
  struct SnapPin {
    Scheme scheme;
    u32 cores;
    std::size_t count;
    u64 fingerprint;
  };
  constexpr SnapPin kSnapPins[] = {
      {Scheme::kBanked, 1, 4, 0x603e3bdfe54082ceull},
      {Scheme::kSoftware, 1, 19, 0x77d383852f09152aull},
      {Scheme::kPrefetchFull, 1, 8, 0x0646f27023d0d73full},
      {Scheme::kPrefetchExact, 1, 6, 0xad80cfd8a3c5808eull},
      {Scheme::kViReC, 1, 5, 0xd7f23aaa6aa0432bull},
      {Scheme::kNSF, 1, 7, 0x775c92aea45a4895ull},
      {Scheme::kSoftware, 2, 21, 0x9fed9cdd57e504bdull},
  };
  for (const SnapPin& p : kSnapPins) {
    SCOPED_TRACE(std::string(scheme_name(p.scheme)) + " x" +
                 std::to_string(p.cores));
    const fs::path dir = scratch_dir("pin_scheme");
    auto sys = make_system(tiny_spec(p.scheme, core::PolicyKind::kLRC,
                                     p.cores));
    sys->set_sample_interval(237);
    sys->set_checkpointing(500, dir.string());
    const RunResult r = sys->run();
    ASSERT_TRUE(r.check_ok) << r.check_msg;
    const auto [count, snaps] = snapshot_fingerprint(dir);
    EXPECT_EQ(count, p.count);
    EXPECT_EQ(snaps, p.fingerprint) << std::hex << "0x" << snaps;
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------
// Sampling: epoch ends land on exactly the sampling grid, so the
// sampled time series is identical sample for sample.

TEST(Scheduler, SampledTimeSeriesIdentical) {
  std::unique_ptr<System> skip, step;
  // An odd interval avoids aliasing with any workload period.
  const auto [ra, rb] =
      run_both(tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC), &skip,
               &step, /*sample_interval=*/237);
  ASSERT_TRUE(ra.check_ok) << ra.check_msg;
  expect_results_identical(ra, rb);
  ASSERT_GE(skip->samples().size(), 3u) << "run too short to sample";
  expect_samples_identical(*skip, *step);
  // The series ends exactly at the run result.
  EXPECT_EQ(skip->samples().back().cycle, ra.cycles);
  EXPECT_EQ(skip->samples().back().instructions, ra.instructions);
}

// ---------------------------------------------------------------------
// Checkpointing: snapshots carry no run-mode state and config_hash
// ignores the skip flag, so multi-core snapshots move freely between
// skip modes, and both modes write byte-identical snapshots.

TEST(Scheduler, CheckpointsCrossSkipModes) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = scratch_dir("ckpt");
  auto straight = make_system(spec);
  straight->set_checkpointing(1000, dir.string());
  const RunResult want = straight->run();
  ASSERT_TRUE(want.check_ok) << want.check_msg;

  std::vector<fs::path> snaps;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".vckpt") snaps.push_back(e.path());
  }
  std::sort(snaps.begin(), snaps.end());
  ASSERT_GE(snaps.size(), 2u) << "run too short to checkpoint mid-flight";
  const fs::path snap = snaps[snaps.size() / 2];

  auto step = make_system(stepped(spec));
  step->restore(snap.string());
  const RunResult step_result = step->run();
  expect_results_identical(want, step_result);
  expect_stats_identical(*straight, *step);

  auto skip = make_system(spec);
  skip->restore(snap.string());
  expect_results_identical(want, skip->run());

  const fs::path dir2 = scratch_dir("ckpt_step");
  auto step_writer = make_system(stepped(spec));
  step_writer->set_checkpointing(1000, dir2.string());
  expect_results_identical(want, step_writer->run());
  EXPECT_EQ(snapshot_fingerprint(dir), snapshot_fingerprint(dir2))
      << "skip and --no-skip runs must write byte-identical snapshots";
  fs::remove_all(dir);
  fs::remove_all(dir2);
}

// ---------------------------------------------------------------------
// Watchdog boundary: the limit is an epoch end, so the multi-core run
// fires strictly after max_cycles — a budget equal to the natural run
// length completes, one cycle less throws — skipping or not, sampled
// or not.

TEST(Scheduler, WatchdogBoundaryOnEveryRunMode) {
  for (const bool no_skip : {false, true}) {
    for (const Cycle interval : {Cycle{0}, Cycle{100}}) {
      SCOPED_TRACE(std::string(no_skip ? "no-skip" : "skip") +
                   " interval=" + std::to_string(interval));
      RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
      spec.no_skip = no_skip;
      const Cycle natural = run_spec(spec).cycles;
      ASSERT_GT(natural, 1u);

      spec.max_cycles = natural;  // exactly enough: must complete
      auto fits = make_system(spec);
      fits->set_sample_interval(interval);
      EXPECT_NO_THROW(fits->run());

      spec.max_cycles = natural - 1;  // one short: must throw
      auto short_budget = make_system(spec);
      short_budget->set_sample_interval(interval);
      try {
        short_budget->run();
        ADD_FAILURE() << "watchdog did not fire";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("max_cycles"), std::string::npos)
            << e.what();
      }
    }
  }
}

// ---------------------------------------------------------------------
// The lockstep oracle checks every core's commits in scheduler order:
// a checked 4-core run passes and matches the unchecked run.

TEST(Scheduler, CheckedMulticoreRunMatchesUnchecked) {
  for (const bool no_skip : {false, true}) {
    SCOPED_TRACE(no_skip ? "no-skip" : "skip");
    RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
    spec.no_skip = no_skip;
    auto checked = make_system(spec);
    checked->enable_check();
    const RunResult a = checked->run();
    ASSERT_TRUE(a.check_ok) << a.check_msg;
    EXPECT_GT(checked->check_context()->commits_checked(), 0u);
    auto plain = make_system(spec);
    expect_results_identical(a, plain->run());
    expect_stats_identical(*checked, *plain);
  }
}

// ---------------------------------------------------------------------
// The progress heartbeat is an observer inside the scheduler: it fires
// mid-run, reports per-core skip efficiency in [0, 1], and leaves the
// --stats output byte-identical.

std::string stats_text(const System& sys) {
  std::ostringstream os;
  for (const Stat& s : sys.registry().all_scalars()) {
    os << s.name << " " << s.value << "\n";
  }
  return os.str();
}

TEST(Scheduler, ProgressHeartbeatIsAPureObserver) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  auto observed = make_system(spec);
  std::vector<RunProgress> beats;
  observed->set_progress([&](const RunProgress& p) { beats.push_back(p); },
                         0.0);
  const RunResult a = observed->run();
  ASSERT_TRUE(a.check_ok) << a.check_msg;
  ASSERT_GE(beats.size(), 2u) << "no heartbeat before the final one";
  for (const RunProgress& p : beats) {
    EXPECT_GE(p.skip_efficiency, 0.0);
    EXPECT_LE(p.skip_efficiency, 1.0);
  }
  EXPECT_GT(beats.back().skip_efficiency, 0.0) << "gather stalls are skipped";
  EXPECT_EQ(beats.back().cycle, a.cycles);
  EXPECT_EQ(beats.back().instructions, a.instructions);

  auto plain = make_system(spec);
  expect_results_identical(a, plain->run());
  EXPECT_EQ(stats_text(*observed), stats_text(*plain));
}

}  // namespace
}  // namespace virec::sim

// Closed cycle accounting (CPI stacks): the closure invariant — every
// simulated cycle of every core lands in exactly one bucket — across
// every scheme x policy, bit-identical stacks between skipped and
// stepped runs, exact identities against the legacy stall counters,
// checkpoint/restore preservation mid-run, and presence of the stack
// in the JSON report and sweep CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "common/cycle_account.hpp"
#include "cpu/ooo_core.hpp"
#include "kasm/assembler.hpp"
#include "sim/observability.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "workloads/workload.hpp"
#include "json_parse.hpp"

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
  spec.params.iters_per_thread = 16;
  spec.params.elements = 1 << 12;
  return spec;
}

void expect_bits_eq(double a, double b, const char* what) {
  u64 ab, bb;
  std::memcpy(&ab, &a, sizeof ab);
  std::memcpy(&bb, &b, sizeof bb);
  EXPECT_EQ(ab, bb) << what << ": " << a << " vs " << b;
}

// ---------------------------------------------------------------------
// Closure: Σ buckets == elapsed cycles, per core and summed, with the
// per-cycle invariant armed (enable_check makes every step/skip assert
// it internally too — a broken charge path aborts the run right there).

class CpiClosure
    : public ::testing::TestWithParam<std::tuple<Scheme, core::PolicyKind>> {};

TEST_P(CpiClosure, EveryCycleInExactlyOneBucket) {
  const auto [scheme, policy] = GetParam();
  const RunSpec spec = tiny_spec(scheme, policy);
  const workloads::Workload& workload =
      workloads::find_workload(spec.workload);
  System system(build_config(spec), workload, spec.params);
  system.enable_check();
  const RunResult result = system.run();
  ASSERT_TRUE(result.check_ok) << result.check_msg;

  const cpu::CgmtCore& core = system.core(0);
  const CycleAccount& acct = core.cycle_account();

  // Core-level closure, bit exact.
  expect_bits_eq(acct.total(), static_cast<double>(core.cycle()),
                 "core bucket sum vs cycles");

  // Thread closure: idle cycles belong to no thread; everything else
  // is attributed to exactly one.
  double threads_total = 0.0;
  for (u32 t = 0; t < acct.num_threads(); ++t) {
    threads_total += acct.thread_total(t);
  }
  expect_bits_eq(threads_total + acct.bucket(CycleBucket::kIdle),
                 static_cast<double>(core.cycle()),
                 "thread bucket sum + idle vs cycles");

  // RunResult carries the same (single-core) stack.
  double result_total = 0.0;
  for (const double v : result.cpi_stack) result_total += v;
  expect_bits_eq(result_total, static_cast<double>(result.cycles),
                 "RunResult.cpi_stack sum vs cycles");

  // Something committed, so useful cycles cannot be zero.
  EXPECT_GT(acct.bucket(CycleBucket::kCommit), 0.0);
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
    AllSchemes, CpiClosure, ::testing::ValuesIn(all_points()),
    [](const ::testing::TestParamInfo<CpiClosure::ParamType>& info) {
      std::string name =
          std::string(scheme_name(std::get<0>(info.param))) + "_" +
          core::policy_name(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// The OoO comparator carries a coarse commit-gap stack: one commit
// cycle per advance, the rest of the gap attributed to frontend /
// memory / pipeline. It must close against the core's cycle count with
// the invariant armed, and a miss-heavy chain must show memory stall.

TEST(CpiOooCore, CoarseStackClosesAndSeesMemoryStall) {
  // Dependent pointer-style loads over a 256 KiB stride stream: every
  // load misses the dcache and the chain serialises them.
  const kasm::Program p = kasm::assemble(R"(
    mov x0, #0
    mov x9, #64
    loop:
      ldr x1, [x0]
      add x0, x0, #4096
      sub x9, x9, #1
      cbnz x9, loop
    halt
  )");
  mem::MemSystemConfig mem_config;
  mem_config.has_l2 = true;
  mem::MemorySystem ms(mem_config);
  cpu::OooCore core(cpu::OooCoreConfig{}, ms, 0, p);
  check::CheckContext check;
  core.set_check(&check);
  EXPECT_NO_THROW(core.run());  // closure VIREC_CHECK armed

  const CycleAccount& acct = core.cycle_account();
  expect_bits_eq(acct.total(), static_cast<double>(core.cycles()),
                 "ooo bucket sum vs cycles");
  EXPECT_GT(acct.bucket(CycleBucket::kCommit), 0.0);
  EXPECT_GT(acct.bucket(CycleBucket::kMemData), 0.0);
}

// ---------------------------------------------------------------------
// Skip equivalence: the bulk-charge in skip_to() must land every
// fast-forwarded cycle in the bucket the stepped run charges.

TEST(CpiSkipEquivalence, BucketsBitIdenticalSkippedVsStepped) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  RunSpec stepped_spec = spec;
  stepped_spec.no_skip = true;
  const RunResult skip = run_spec(spec);
  const RunResult stepped = run_spec(stepped_spec);
  ASSERT_TRUE(skip.check_ok);
  EXPECT_EQ(skip.cycles, stepped.cycles);
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    expect_bits_eq(skip.cpi_stack[b], stepped.cpi_stack[b],
                   cycle_bucket_name(static_cast<CycleBucket>(b)));
  }
}

// ---------------------------------------------------------------------
// Checkpointing: the stack lives in the core's StatSet, so a mid-run
// snapshot must carry it and a resumed run must finish with the exact
// stack of the uninterrupted run.

TEST(CpiCheckpoint, MidRunRestorePreservesStack) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const fs::path dir = fs::path(::testing::TempDir()) / "cpi_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const workloads::Workload& workload =
      workloads::find_workload(spec.workload);
  const SystemConfig config = build_config(spec);

  System straight(config, workload, spec.params);
  straight.set_checkpointing(400, dir.string());
  const RunResult want = straight.run();
  ASSERT_TRUE(want.check_ok) << want.check_msg;

  std::vector<fs::path> snaps;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".vckpt") snaps.push_back(e.path());
  }
  ASSERT_GE(snaps.size(), 2u) << "run too short to checkpoint mid-flight";
  std::sort(snaps.begin(), snaps.end());

  System resumed(config, workload, spec.params);
  resumed.restore(snaps[snaps.size() / 2].string());
  // The restored snapshot itself must already close: buckets summed so
  // far equal the restored core's cycle.
  expect_bits_eq(resumed.core(0).cycle_account().total(),
                 static_cast<double>(resumed.core(0).cycle()),
                 "restored stack closes at snapshot cycle");
  const RunResult got = resumed.run();

  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    expect_bits_eq(want.cpi_stack[b], got.cpi_stack[b],
                   cycle_bucket_name(static_cast<CycleBucket>(b)));
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Reporting surfaces: the JSON report carries a closed cpi_stack
// section (names + totals + per-core + per-thread) and per-sample
// stacks; the sweep CSV gains one normalised column per bucket.

TEST(CpiReport, JsonReportCarriesClosedStack) {
  const RunSpec spec = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  const workloads::Workload& workload =
      workloads::find_workload(spec.workload);
  System system(build_config(spec), workload, spec.params);
  system.set_sample_interval(512);
  const RunResult result = system.run();
  ASSERT_TRUE(result.check_ok) << result.check_msg;

  std::ostringstream os;
  write_json_report(os, system, spec, result, 512);
  const JsonValue doc = json_parse(os.str());

  const JsonValue& stack = doc.at("cpi_stack");
  const JsonValue& buckets = stack.at("buckets");
  ASSERT_EQ(buckets.array.size(), kNumCycleBuckets);
  EXPECT_EQ(buckets.array[0].string,
            cycle_bucket_name(CycleBucket::kCommit));

  const JsonValue& total = stack.at("total");
  ASSERT_EQ(total.array.size(), kNumCycleBuckets);
  double sum = 0.0;
  for (const JsonValue& v : total.array) sum += v.number;
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(result.cycles));

  ASSERT_EQ(stack.at("per_core").array.size(), 1u);
  EXPECT_EQ(stack.at("per_thread").array.size(), 4u);

  // Every sample row carries the cumulative stack.
  const JsonValue& samples = doc.at("time_series").at("samples");
  ASSERT_FALSE(samples.array.empty());
  for (const JsonValue& s : samples.array) {
    ASSERT_EQ(s.at("cpi").array.size(), kNumCycleBuckets);
  }

  // The stack's cpi_* scalars are registered stats with descriptions.
  bool found = false;
  for (const Stat& s : system.registry().all_scalars()) {
    if (s.name.find("cpi_commit") == std::string::npos) continue;
    found = true;
    EXPECT_FALSE(s.desc.empty()) << s.name;
  }
  EXPECT_TRUE(found);
}

TEST(CpiReport, SweepCsvCarriesBucketColumns) {
  Sweep sweep;
  sweep.base() = tiny_spec(Scheme::kViReC, core::PolicyKind::kLRC);
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC});
  const SweepResults results = sweep.run(1);

  std::ostringstream os;
  results.write_csv(os);
  const std::string csv = os.str();
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    const std::string col =
        std::string(",cpi_") + cycle_bucket_name(static_cast<CycleBucket>(b));
    EXPECT_NE(header.find(col), std::string::npos) << col;
  }
  // Data rows have the full arity: 14 base fields + one per bucket.
  std::string row;
  ASSERT_TRUE(std::getline(lines, row));
  const std::size_t commas = std::count(row.begin(), row.end(), ',');
  EXPECT_EQ(commas, 13u + kNumCycleBuckets);

  // The JSON export carries the raw stack and it closes there too.
  std::ostringstream js;
  results.write_json(js);
  const JsonValue doc = json_parse(js.str());
  ASSERT_EQ(doc.array.size(), 2u);
  for (const JsonValue& rec : doc.array) {
    const JsonValue& stack = rec.at("result").at("cpi_stack");
    double sum = 0.0;
    for (const auto& [name, v] : stack.object) sum += v.number;
    EXPECT_DOUBLE_EQ(sum, rec.at("result").at("cycles").number);
  }
}

}  // namespace
}  // namespace virec::sim

// Parallel experiment engine tests: result ordering, serial fallback,
// exception propagation (without deadlock) and the generic task entry
// point.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/parallel.hpp"
#include "sim/sweep.hpp"

namespace virec::sim {
namespace {

RunSpec tiny_spec(u32 threads) {
  RunSpec spec;
  spec.workload = "reduce";
  spec.threads_per_core = threads;
  spec.params.iters_per_thread = 32;
  spec.params.elements = 1 << 12;
  return spec;
}

TEST(Parallel, DefaultJobsIsAtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

TEST(Parallel, ResultsFollowSubmissionOrder) {
  // Thread counts give each point a distinguishable cycle count, so a
  // mis-ordered result vector is detectable.
  const std::vector<u32> threads = {1, 2, 4, 8, 3, 6};
  std::vector<RunSpec> specs;
  for (u32 t : threads) specs.push_back(tiny_spec(t));

  const std::vector<RunResult> serial = run_points(specs, 1).results;
  const std::vector<RunResult> parallel = run_points(specs, 4).results;
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].cycles, run_spec(specs[i]).cycles) << i;
    EXPECT_EQ(parallel[i].cycles, serial[i].cycles) << i;
    EXPECT_EQ(parallel[i].instructions, serial[i].instructions) << i;
  }
}

TEST(Parallel, SubmitReturnsIncreasingIndices) {
  ParallelExecutor pool(2);
  EXPECT_EQ(pool.submit_task([] { return run_spec(tiny_spec(2)); }), 0u);
  EXPECT_EQ(pool.submit_task([] { return run_spec(tiny_spec(4)); }), 1u);
  const std::vector<RunResult> results = pool.join();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].check_ok);
  EXPECT_TRUE(results[1].check_ok);
}

TEST(Parallel, JobsZeroMeansHardwareConcurrency) {
  ParallelExecutor pool(0);
  EXPECT_EQ(pool.jobs(), default_jobs());
}

TEST(Parallel, EmptySubmissionJoinsCleanly) {
  ParallelExecutor pool(4);
  EXPECT_TRUE(pool.join().empty());
}

TEST(Parallel, BadWorkloadThrowsOutOfPool) {
  std::vector<RunSpec> specs = {tiny_spec(2), tiny_spec(4)};
  specs[1].workload = "no-such-kernel";
  specs.push_back(tiny_spec(8));
  // Must rethrow on join, not deadlock with tasks still queued. The
  // rethrown exception carries the spec label of the failing point.
  EXPECT_THROW(run_points(specs, 4), std::runtime_error);
  try {
    run_points(specs, 1);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("workload=no-such-kernel"), std::string::npos) << what;
    EXPECT_NE(what.find("scheme="), std::string::npos) << what;
    EXPECT_NE(what.find("threads=4"), std::string::npos) << what;
  }
}

TEST(Parallel, SerialFailureSkipsLaterWork) {
  // With jobs = 1 execution is strictly ordered, so the first failing
  // spec must be the one reported and later specs never run.
  std::vector<RunSpec> specs = {tiny_spec(2), tiny_spec(4), tiny_spec(8)};
  specs[1].workload = "first-bad";
  specs[2].workload = "second-bad";
  try {
    run_points(specs, 1);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("first-bad"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find("second-bad"), std::string::npos)
        << e.what();
  }
}

TEST(Parallel, SpecLabelNamesEveryAxis) {
  RunSpec spec = tiny_spec(4);
  spec.scheme = Scheme::kViReC;
  spec.policy = core::PolicyKind::kLRC;
  spec.num_cores = 2;
  const std::string label = spec_label(spec);
  EXPECT_NE(label.find("workload=reduce"), std::string::npos) << label;
  EXPECT_NE(label.find("scheme=virec"), std::string::npos) << label;
  EXPECT_NE(label.find("policy=lrc"), std::string::npos) << label;
  EXPECT_NE(label.find("cores=2"), std::string::npos) << label;
  EXPECT_NE(label.find("threads=4"), std::string::npos) << label;
}

TEST(Parallel, UnlabelledTaskExceptionIsNotWrapped) {
  // submit_task without a label must rethrow the original type — the
  // wrapping is opt-in via the label so callers keep exact exceptions.
  ParallelExecutor pool(1);
  pool.submit_task([]() -> RunResult {
    throw std::out_of_range("untouched");
  });
  EXPECT_THROW(pool.join(), std::out_of_range);
}

TEST(Parallel, RunTasksCoversNonSpecPoints) {
  std::vector<std::function<RunResult()>> tasks;
  for (u32 t : {2u, 4u}) {
    tasks.emplace_back([t] { return run_spec(tiny_spec(t)); });
  }
  const std::vector<RunResult> results = run_tasks(std::move(tasks), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].cycles, run_spec(tiny_spec(2)).cycles);
  EXPECT_EQ(results[1].cycles, run_spec(tiny_spec(4)).cycles);
}

}  // namespace
}  // namespace virec::sim

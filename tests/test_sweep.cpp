// Sweep utility tests.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ckpt/spec_codec.hpp"
#include "sim/sweep.hpp"
#include "svc/result_store.hpp"

namespace virec::sim {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// CSV and JSON of @p results, concatenated: the documents a resumed
/// sweep must reproduce byte for byte.
std::string documents(const SweepResults& results) {
  std::ostringstream os;
  results.write_csv(os);
  results.write_json(os);
  return os.str();
}

Sweep tiny_sweep() {
  Sweep sweep;
  sweep.base().workload = "reduce";
  sweep.base().params.iters_per_thread = 32;
  sweep.base().params.elements = 1 << 12;
  return sweep;
}

TEST(Sweep, GridSizeIsProduct) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_threads({2, 4})
      .over_context_fractions({1.0, 0.5, 0.25});
  EXPECT_EQ(sweep.size(), 12u);
  EXPECT_EQ(sweep.specs().size(), 12u);
}

TEST(Sweep, MissingAxesUseBase) {
  Sweep sweep = tiny_sweep();
  sweep.base().threads_per_core = 3;
  sweep.over_schemes({Scheme::kViReC});
  const std::vector<RunSpec> specs = sweep.specs();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].threads_per_core, 3u);
  EXPECT_EQ(specs[0].workload, "reduce");
}

TEST(Sweep, RunProducesOneRecordPerPoint) {
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2, 4});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 4u);
  for (const SweepRecord& record : results.records()) {
    EXPECT_TRUE(record.result.check_ok);
    EXPECT_GT(record.result.cycles, 0u);
  }
}

TEST(Sweep, CsvHasHeaderAndRows) {
  Sweep sweep = tiny_sweep();
  sweep.over_threads({2});
  const SweepResults results = sweep.run();
  std::ostringstream os;
  results.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("workload,scheme,policy"), std::string::npos);
  EXPECT_NE(csv.find("reduce,virec,lrc"), std::string::npos);
  // header + 1 row
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(Sweep, PolicyAxis) {
  Sweep sweep = tiny_sweep();
  sweep.base().scheme = Scheme::kViReC;
  sweep.base().context_fraction = 0.5;
  sweep.over_policies(
      {core::PolicyKind::kPLRU, core::PolicyKind::kLRC});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(results.records()[0].spec.policy, core::PolicyKind::kPLRU);
  EXPECT_EQ(results.records()[1].spec.policy, core::PolicyKind::kLRC);
}

TEST(Sweep, CoresAxisRunsMulticore) {
  Sweep sweep = tiny_sweep();
  sweep.over_cores({1, 2});
  const SweepResults results = sweep.run();
  EXPECT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.records()[1].result.check_ok);
}

TEST(Sweep, ParallelRunIsByteIdenticalToSerial) {
  // Mixed scheme/policy grid; the CSV and JSON documents must come out
  // byte-identical whatever the job count.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_policies({core::PolicyKind::kPLRU, core::PolicyKind::kLRC})
      .over_threads({2, 4})
      .over_context_fractions({1.0, 0.5});
  const SweepResults serial = sweep.run(1);
  const SweepResults parallel = sweep.run(4);
  ASSERT_EQ(serial.size(), 16u);
  ASSERT_EQ(parallel.size(), 16u);

  std::ostringstream csv1, csv4, json1, json4;
  serial.write_csv(csv1);
  parallel.write_csv(csv4);
  serial.write_json(json1);
  parallel.write_json(json4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(json1.str(), json4.str());
}

TEST(Sweep, FailingPointPropagatesFromParallelRun) {
  Sweep sweep = tiny_sweep();
  sweep.over_workloads({"reduce", "no-such-kernel", "gather"})
      .over_threads({2, 4});
  // Must throw (unknown workload, wrapped with the point's spec label)
  // and terminate — no deadlocked join.
  EXPECT_THROW(sweep.run(4), std::runtime_error);
  try {
    sweep.run(1);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("workload=no-such-kernel"),
              std::string::npos)
        << e.what();
  }
}

TEST(Sweep, ResumedRunIsByteIdenticalToUninterrupted) {
  // Simulate a killed sweep: store only half the grid, then resume
  // against the same store. The resumed CSV and JSON must reproduce an
  // uninterrupted run byte for byte.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
      .over_policies({core::PolicyKind::kPLRU, core::PolicyKind::kLRC})
      .over_threads({2, 4});
  svc::ResultStore store(fresh_dir("sweep_resume"));

  const SweepResults clean = sweep.run(2);
  EXPECT_EQ(clean.from_store(), 0u);
  EXPECT_EQ(clean.executed(), sweep.size());

  // "First run, killed partway": store the first half of the grid.
  const std::vector<RunSpec> grid = sweep.specs();
  for (std::size_t i = 0; i < grid.size() / 2; ++i) {
    store.put(ckpt::spec_hash(grid[i]), grid[i], run_spec(grid[i]));
  }

  const SweepResults resumed = sweep.run(2, &store);
  EXPECT_EQ(resumed.from_store(), sweep.size() / 2);
  EXPECT_EQ(resumed.executed(), sweep.size() - sweep.size() / 2);
  EXPECT_EQ(documents(clean), documents(resumed));

  // The resume stored the other half, so a second resume runs nothing
  // new and still reproduces the same documents.
  EXPECT_EQ(store.size(), sweep.size());
  const SweepResults replay = sweep.run(1, &store);
  EXPECT_EQ(replay.from_store(), sweep.size());
  EXPECT_EQ(replay.executed(), 0u);
  EXPECT_EQ(documents(clean), documents(replay));
}

TEST(Sweep, DuplicateGridPointsSimulateOnce) {
  // A threads axis with repeated values collapses to two unique points;
  // the output must still carry one row per grid index, with duplicate
  // rows byte-identical to their representative.
  Sweep sweep = tiny_sweep();
  sweep.over_threads({2, 2, 4, 2});

  const SweepResults results = sweep.run(2);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results.executed(), 2u);
  std::ostringstream csv_os;
  results.write_csv(csv_os);
  const std::string csv = csv_os.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_EQ(results.records()[0].result.cycles,
            results.records()[1].result.cycles);
  EXPECT_EQ(results.records()[0].result.cycles,
            results.records()[3].result.cycles);

  // With a store, only the unique points are stored — and the
  // progress callback still reports every grid index as done.
  svc::ResultStore store(fresh_dir("sweep_dup"));
  std::atomic<std::size_t> last_done{0};
  sweep.run(1, &store, [&last_done](std::size_t done, std::size_t, double) {
    last_done = done;
  });
  EXPECT_EQ(last_done.load(), 4u);
  EXPECT_EQ(store.size(), 2u);  // one entry per unique point

  // Resuming from that store runs nothing and reproduces the same CSV;
  // the one up-front heartbeat counts every grid index.
  last_done = 0;
  const SweepResults resumed =
      sweep.run(1, &store, [&last_done](std::size_t done, std::size_t,
                                        double) { last_done = done; });
  EXPECT_EQ(last_done.load(), 4u);
  EXPECT_EQ(resumed.from_store(), 4u);
  EXPECT_EQ(resumed.executed(), 0u);
  std::ostringstream csv_resumed;
  resumed.write_csv(csv_resumed);
  EXPECT_EQ(csv, csv_resumed.str());
}

TEST(Sweep, ConcurrentWritersInterleaveSafely) {
  // Several processes putting into one store (sweeps sharing a store
  // directory): every entry must survive intact. Writer w puts points
  // of its own (seeds w * kPoints + p) and points every writer puts
  // (seeds kWriters * kPoints + p), so racing processes rename the
  // same entries into place. Synthetic results keep it fast.
  const std::string dir = fresh_dir("sweep_concurrent");
  constexpr u64 kWriters = 4;
  constexpr u64 kPoints = 24;
  auto point = [](u64 seed) {
    RunSpec spec;
    spec.workload = "reduce";
    spec.params.seed = seed;
    return spec;
  };
  auto result_of = [](u64 seed) {
    RunResult result;
    result.cycles = seed;
    result.instructions = seed + 1;
    result.check_ok = true;
    return result;
  };

  std::vector<pid_t> pids;
  for (u64 w = 0; w < kWriters; ++w) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: put its own and the shared points, racing its siblings.
      svc::ResultStore store(dir);
      for (u64 p = 0; p < kPoints; ++p) {
        for (const u64 seed : {w * kPoints + p, kWriters * kPoints + p}) {
          const RunSpec spec = point(seed);
          store.put(ckpt::spec_hash(spec), spec, result_of(seed));
        }
      }
      _exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // No torn or lost entries: every point reads back exactly...
  svc::ResultStore store(dir);
  EXPECT_EQ(store.size(), (kWriters + 1) * kPoints);
  for (u64 seed = 0; seed < (kWriters + 1) * kPoints; ++seed) {
    const RunSpec spec = point(seed);
    RunResult out;
    ASSERT_TRUE(store.lookup(ckpt::spec_hash(spec), spec, &out)) << seed;
    EXPECT_EQ(out.cycles, seed);
  }
  // ...and no writer left a temp file behind.
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << e.path();
  }
}

TEST(Sweep, CorruptStoreEntryRerunsAndIsRewritten) {
  // A damaged entry reads as a miss: the sweep re-runs that point,
  // reproduces the clean documents and rewrites the entry.
  Sweep sweep = tiny_sweep();
  sweep.over_schemes({Scheme::kBanked, Scheme::kViReC}).over_threads({2, 4});
  svc::ResultStore store(fresh_dir("sweep_corrupt"));
  const SweepResults clean = sweep.run(2, &store);

  const RunSpec victim = sweep.specs()[1];
  const u64 hash = ckpt::spec_hash(victim);
  const std::string path = store.entry_path(hash);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.read(&b, 1);
    f.seekp(40);
    b = static_cast<char>(b ^ 0x5a);
    f.write(&b, 1);
  }
  RunResult out;
  ASSERT_FALSE(store.lookup(hash, victim, &out));

  const SweepResults healed = sweep.run(2, &store);
  EXPECT_EQ(healed.executed(), 1u);
  EXPECT_EQ(healed.from_store(), sweep.size() - 1);
  EXPECT_EQ(documents(clean), documents(healed));
  ASSERT_TRUE(store.lookup(hash, victim, &out));
  EXPECT_EQ(out.cycles, healed.records()[1].result.cycles);
}

}  // namespace
}  // namespace virec::sim

// Parallel experiment engine: run many independent experiment points on
// a fixed pool of worker threads. Every experiment point is a
// self-contained simulation (its own System, memory, stats registry),
// so points are embarrassingly parallel; the engine only adds a work
// queue and deterministic result collection.
//
//   sim::ParallelExecutor pool(8);
//   for (const RunSpec& spec : grid) {
//     pool.submit_task([&spec] { return run_spec(spec); },
//                      spec_label(spec));
//   }
//   std::vector<RunResult> results = pool.join();  // ordered, rethrows
//
// A list of RunSpecs runs through sim::run_points (sim/sweep.hpp), which
// adds deduplication and the result store on top of this pool.
//
// Determinism: results are ordered by submission index, and each run is
// deterministic in isolation, so the output is bit-identical for any
// job count (jobs=1 executes on the calling thread, exactly preserving
// the serial behaviour).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/runner.hpp"

namespace virec::sim {

/// Worker count "jobs = 0" resolves to: hardware concurrency (at least
/// 1 if the runtime cannot tell).
u32 default_jobs();

/// Human-readable experiment-point label ("workload=gather scheme=virec
/// policy=lrc ..."), used to mark the failing point in exceptions
/// rethrown from ParallelExecutor::join().
std::string spec_label(const RunSpec& spec);

/// Fixed thread pool over a queue of result-producing tasks.
/// Single-use: submit any number of tasks, then call join() exactly
/// once to collect results in submission order. If any run throws, join() rethrows the
/// exception of the lowest-indexed failing run after the pool has
/// drained (never deadlocks; runs queued behind a failure are skipped).
class ParallelExecutor {
 public:
  /// @p jobs worker threads; 0 = default_jobs(). With jobs = 1 no
  /// threads are spawned and join() runs every task on the calling
  /// thread in submission order — the serial behaviour.
  explicit ParallelExecutor(u32 jobs = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Enqueue one result-producing task; returns its submission index.
  /// The callable must not touch state shared with other tasks unless
  /// it synchronises. A non-empty @p label wraps any exception the task
  /// throws in a std::runtime_error prefixed with it, so join()'s
  /// rethrow names the failing point.
  std::size_t submit_task(std::function<RunResult()> task,
                          std::string label = "");

  /// Wait for every submitted task, stop the workers and return the
  /// results ordered by submission index. Rethrows the first (lowest
  /// submission index) captured exception, if any.
  std::vector<RunResult> join();

  u32 jobs() const { return jobs_; }

 private:
  struct Task {
    std::size_t index = 0;
    std::function<RunResult()> fn;
    std::string label;  // names the point in rethrown exceptions
  };

  void worker();
  void run_task(const Task& task);

  u32 jobs_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::deque<Task> queue_;
  bool closed_ = false;  // no more submissions; workers drain and exit

  std::vector<RunResult> results_;  // indexed by submission order
  std::size_t submitted_ = 0;
  std::exception_ptr error_;        // lowest-index failure wins
  std::size_t error_index_ = 0;
  bool joined_ = false;
};

/// Run every task (0 jobs = hardware concurrency) and return results
/// in input order; rethrows the first failure. jobs = 1 is exactly the
/// serial loop.
std::vector<RunResult> run_tasks(std::vector<std::function<RunResult()>> tasks,
                                 u32 jobs = 0);

}  // namespace virec::sim

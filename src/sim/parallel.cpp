#include "sim/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace virec::sim {

u32 default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<u32>(hw);
}

std::string spec_label(const RunSpec& spec) {
  return "workload=" + spec.workload +
         " scheme=" + scheme_name(spec.scheme) +
         " policy=" + core::policy_name(spec.policy) +
         " cores=" + std::to_string(spec.num_cores) +
         " threads=" + std::to_string(spec.threads_per_core) +
         " ctx=" + std::to_string(spec.context_fraction);
}

ParallelExecutor::ParallelExecutor(u32 jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ > 1) {
    workers_.reserve(jobs_);
    for (u32 i = 0; i < jobs_; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }
}

ParallelExecutor::~ParallelExecutor() {
  if (!joined_) {
    // Abandoned without join(): drop queued work and stop the pool.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.clear();
      closed_ = true;
    }
    work_ready_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

std::size_t ParallelExecutor::submit_task(std::function<RunResult()> task,
                                          std::string label) {
  std::size_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = submitted_++;
    results_.resize(submitted_);  // workers store under the same lock
    queue_.push_back(Task{index, std::move(task), std::move(label)});
  }
  work_ready_.notify_one();
  return index;
}

void ParallelExecutor::run_task(const Task& task) {
  std::exception_ptr error;
  try {
    RunResult result = task.fn();
    std::lock_guard<std::mutex> lock(mutex_);
    results_[task.index] = std::move(result);
    return;
  } catch (const std::exception& e) {
    // Mark which experiment point blew up: a bare "out of range" from
    // one point of a 200-point sweep is undebuggable.
    error = task.label.empty()
                ? std::current_exception()
                : std::make_exception_ptr(
                      std::runtime_error(task.label + ": " + e.what()));
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_ || task.index < error_index_) {
    error_ = error;
    error_index_ = task.index;
  }
  // Fail fast: tasks queued behind a failure are skipped so a broken
  // sweep doesn't burn the rest of the grid.
  queue_.clear();
}

void ParallelExecutor::worker() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task);
  }
}

std::vector<RunResult> ParallelExecutor::join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  work_ready_.notify_all();
  if (workers_.empty()) {
    // jobs = 1: run everything here, in submission order, exactly like
    // the historical serial loop.
    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty()) break;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      run_task(task);
    }
  } else {
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }
  joined_ = true;
  if (error_) std::rethrow_exception(error_);
  return std::move(results_);
}

std::vector<RunResult> run_tasks(std::vector<std::function<RunResult()>> tasks,
                                 u32 jobs) {
  ParallelExecutor pool(jobs);
  for (std::function<RunResult()>& task : tasks) {
    pool.submit_task(std::move(task));
  }
  return pool.join();
}

}  // namespace virec::sim

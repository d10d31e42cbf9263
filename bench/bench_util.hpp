// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/cycle_account.hpp"
#include "common/parse_number.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "svc/result_store.hpp"

namespace virec::bench {

/// Standard experiment sizing: large enough for steady-state behaviour,
/// small enough that a full figure regenerates in seconds.
inline workloads::WorkloadParams default_params() {
  workloads::WorkloadParams params;
  params.iters_per_thread = 256;
  params.elements = 1 << 16;
  return params;
}

inline void print_header(const std::string& title, const std::string& paper) {
  std::cout << "\n================================================================\n"
            << title << "\n" << paper
            << "\n================================================================\n";
}

/// Performance = work / time, normalised so the baseline run is 1.0.
inline double relative_perf(Cycle baseline, Cycle measured) {
  return static_cast<double>(baseline) / static_cast<double>(measured);
}

/// Cycles per instruction charged to @p buckets of @p r's closed cycle
/// stack (0 when nothing committed).
inline double cpi_of(const sim::RunResult& r,
                     std::initializer_list<CycleBucket> buckets) {
  if (r.instructions == 0) return 0.0;
  double cycles = 0.0;
  for (const CycleBucket b : buckets) {
    cycles += r.cpi_stack[static_cast<std::size_t>(b)];
  }
  return cycles / static_cast<double>(r.instructions);
}

/// CPI lost to the memory system: data/register-region/MSHR miss
/// stalls plus store-queue backpressure.
inline double mem_stall_cpi(const sim::RunResult& r) {
  return cpi_of(r, {CycleBucket::kMemData, CycleBucket::kMemReg,
                    CycleBucket::kMemMshr, CycleBucket::kSqFull});
}

/// CPI lost to context switching: the switch bubble itself plus cycles
/// a switch was wanted but no target was ready / the mask blocked it.
inline double switch_cpi(const sim::RunResult& r) {
  return cpi_of(r, {CycleBucket::kSwitchOverhead, CycleBucket::kSwitchNoTarget,
                    CycleBucket::kSwitchMasked});
}

/// Worker count for a harness: `--jobs N` on the command line, else the
/// BENCH_JOBS environment variable, else 0 (= every hardware thread).
/// Strict parsing — "--jobs 4x" is an error, not 4.
inline u32 parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 >= argc) throw std::invalid_argument("--jobs needs a value");
      return parse_u32("--jobs", argv[i + 1]);
    }
  }
  if (const char* env = std::getenv("BENCH_JOBS")) {
    return parse_u32("BENCH_JOBS", env);
  }
  return 0;
}

/// Runs experiment points through sim::run_points — the path
/// `virec-sim --sweep` takes — and memoises the results by
/// ckpt::spec_hash. The harness enumerates its whole grid once,
/// prefetches it (all points run concurrently on the worker pool),
/// then keeps its original formatting logic, which now hits the memo.
/// A point the grid missed still works — it just runs serially on
/// first use.
///
/// When the VIREC_STORE environment variable names a directory, the
/// points are looked up in the svc::ResultStore there and each fresh
/// result is put into it, so a repeated figure regeneration is served
/// from disk without re-simulating. Output is byte-identical either
/// way (stored results keep doubles by bit pattern). If the store
/// cannot be opened the runner warns once and simulates without it.
class CachedRunner {
 public:
  explicit CachedRunner(u32 jobs = 0) : jobs_(jobs) {}

  void set_jobs(u32 jobs) { jobs_ = jobs; }
  u32 jobs() const { return jobs_; }

  /// Run every not-yet-cached spec on the worker pool.
  void prefetch(const std::vector<sim::RunSpec>& specs) { run(specs, jobs_); }

  /// Cached result for @p spec; runs it on demand if absent.
  const sim::RunResult& result(const sim::RunSpec& spec) {
    const u64 hash = ckpt::spec_hash(spec);
    if (!cache_.count(hash)) run({spec}, 1);
    return cache_.at(hash);
  }

  Cycle cycles(const sim::RunSpec& spec) { return result(spec).cycles; }

 private:
  void run(const std::vector<sim::RunSpec>& specs, u32 jobs) {
    std::vector<sim::RunSpec> todo;
    for (const sim::RunSpec& spec : specs) {
      if (cache_.count(ckpt::spec_hash(spec))) continue;
      todo.push_back(spec);
    }
    if (todo.empty()) return;
    sim::PointResults points = sim::run_points(todo, jobs, store());
    for (std::size_t i = 0; i < todo.size(); ++i) {
      cache_.emplace(ckpt::spec_hash(todo[i]), std::move(points.results[i]));
    }
  }

  /// Store per VIREC_STORE, opened once on first use; null = none.
  svc::ResultStore* store() {
    if (!store_checked_) {
      store_checked_ = true;
      if (const char* dir = std::getenv("VIREC_STORE")) {
        try {
          store_ = std::make_unique<svc::ResultStore>(dir);
        } catch (const std::exception& e) {
          std::cerr << "bench: VIREC_STORE=" << dir << " unusable ("
                    << e.what() << "); simulating without it\n";
        }
      }
    }
    return store_.get();
  }

  u32 jobs_;
  bool store_checked_ = false;
  std::unique_ptr<svc::ResultStore> store_;
  std::unordered_map<u64, sim::RunResult> cache_;
};

}  // namespace virec::bench

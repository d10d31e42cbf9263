// Declarative experiment sweeps: build a grid of RunSpecs, run them
// all, and collect flat records that can be printed or exported as CSV
// and JSON. The paper's figures (bench/virec_repro.cpp) list their
// points by hand; this is the programmatic interface for new studies.
//
//   sim::Sweep sweep;
//   sweep.base().workload = "gather";
//   sweep.over_schemes({Scheme::kBanked, Scheme::kViReC})
//        .over_threads({4, 8})
//        .over_context_fractions({1.0, 0.8, 0.4});
//   sim::SweepResults results = sweep.run();
//   results.write_csv(std::cout);
//
// run_points is the one execution path for experiment points: sweeps,
// `virec-sim --sweep` and the figure driver `virec-repro` all go
// through it, with or without an svc::ResultStore.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/runner.hpp"

namespace virec::svc {
class ResultStore;
}

namespace virec::sim {

/// One completed experiment point: the spec that produced it plus the
/// flattened result metrics.
struct SweepRecord {
  RunSpec spec;
  RunResult result;
};

/// Progress callback of run_points and Sweep::run: (points done so
/// far, total points, wall seconds the completing point took; 0 for
/// store hits, reported once up front). It may be called concurrently
/// from worker threads: make it thread-safe.
using SweepProgressFn = std::function<void(
    std::size_t done, std::size_t total, double point_wall_secs)>;

/// What run_points produced: one result per input spec, in input
/// order, and how the results were obtained.
struct PointResults {
  std::vector<RunResult> results;
  std::size_t from_store = 0;  ///< input specs served from the store
  std::size_t executed = 0;    ///< unique points simulated
};

/// Run every spec on @p jobs worker threads (0 = hardware concurrency,
/// 1 = serial on the calling thread). Specs with the same
/// ckpt::spec_hash are one point: it is looked up or simulated once
/// and its result copied to every duplicate. With a @p store, each
/// unique point is looked up there first, and each simulated result
/// is put there as soon as it finishes — so a run killed partway and
/// repeated against the same store simulates only the missing points,
/// with results bit-identical to an uninterrupted run. Throws
/// std::invalid_argument before running anything if validate()
/// rejects a spec, and throws if any point fails (its workload check
/// included); failed points are never stored.
PointResults run_points(const std::vector<RunSpec>& specs, u32 jobs = 1,
                        svc::ResultStore* store = nullptr,
                        const SweepProgressFn& on_point = {});

class SweepResults {
 public:
  SweepResults(std::vector<SweepRecord> records, std::size_t from_store,
               std::size_t executed);

  const std::vector<SweepRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// CSV with a fixed header:
  /// workload,scheme,policy,cores,threads,ctx,phys_regs,cycles,
  /// instructions,ipc,switches,rf_hit_rate,rf_fills,rf_spills
  void write_csv(std::ostream& os) const;

  /// JSON array of {spec: {...}, result: {...}} records — the
  /// machine-readable counterpart of write_csv for the bench/sweep
  /// pipeline (same fields, no string re-parsing).
  void write_json(std::ostream& os) const;

  /// Grid rows served from the result store, and unique points
  /// simulated, by the Sweep::run that produced these records.
  std::size_t from_store() const { return from_store_; }
  std::size_t executed() const { return executed_; }

 private:
  std::vector<SweepRecord> records_;
  std::size_t from_store_;
  std::size_t executed_;
};

class Sweep {
 public:
  /// The spec every grid point starts from.
  RunSpec& base() { return base_; }

  /// Vary @p axis over @p values (an empty list drops the axis: its
  /// field keeps the base value). The grid nests the axes in SweepAxis
  /// order, whatever order they were given in.
  Sweep& over(SweepAxis axis, std::vector<SpecSetter> values);

  Sweep& over_workloads(const std::vector<std::string>& workloads);
  Sweep& over_schemes(const std::vector<Scheme>& schemes);
  Sweep& over_policies(const std::vector<core::PolicyKind>& policies);
  Sweep& over_threads(const std::vector<u32>& threads);
  Sweep& over_context_fractions(const std::vector<double>& fractions);
  Sweep& over_cores(const std::vector<u32>& cores);

  /// Number of grid points.
  std::size_t size() const;

  /// Materialise the grid (exposed for tests).
  std::vector<RunSpec> specs() const;

  /// Run every grid point through run_points (see there for @p jobs,
  /// @p store and @p on_point); throws if any workload check fails.
  /// Results are deterministic and ordered by grid position whatever
  /// the job count and whatever the store already holds.
  SweepResults run(u32 jobs = 1, svc::ResultStore* store = nullptr,
                   const SweepProgressFn& on_point = {}) const;

 private:
  RunSpec base_;
  std::array<std::vector<SpecSetter>, kNumSweepAxes> axes_;
};

}  // namespace virec::sim

// Shared helpers for the reproduction driver (virec-repro) and
// sampled_validation.
#pragma once

#include <initializer_list>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/cycle_account.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"

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

/// The finished points of one virec-repro run, keyed by the full point
/// identity (ckpt::spec_hash): specs that differ in any outcome-defining
/// knob, max_cycles included, are different points.
class ResultMap {
 public:
  /// @p results are sim::run_points' results for @p specs, in order.
  ResultMap(const std::vector<sim::RunSpec>& specs,
            std::vector<sim::RunResult> results) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      by_hash_.emplace(ckpt::spec_hash(specs[i]), std::move(results[i]));
    }
  }

  /// The result of @p spec. A figure that reads a point its grid did
  /// not list has a bug: throws std::logic_error naming the point.
  const sim::RunResult& at(const sim::RunSpec& spec) const {
    const auto it = by_hash_.find(ckpt::spec_hash(spec));
    if (it == by_hash_.end()) {
      throw std::logic_error("point missing from the figure grid: " +
                             sim::spec_label(spec));
    }
    return it->second;
  }

  Cycle cycles(const sim::RunSpec& spec) const { return at(spec).cycles; }

 private:
  std::unordered_map<u64, sim::RunResult> by_hash_;
};

}  // namespace virec::bench

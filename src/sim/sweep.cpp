#include "sim/sweep.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <ostream>
#include <unordered_map>

#include "ckpt/spec_codec.hpp"
#include "common/cycle_account.hpp"
#include "common/json.hpp"
#include "sim/parallel.hpp"
#include "svc/result_store.hpp"

namespace virec::sim {

PointResults run_points(const std::vector<RunSpec>& specs, u32 jobs,
                        svc::ResultStore* store,
                        const SweepProgressFn& on_point) {
  // A bad point fails the whole call before any point runs.
  for (const RunSpec& spec : specs) validate(spec);
  PointResults out;
  out.results.resize(specs.size());
  // Group input indices by identity hash, in first-seen order: a grid
  // whose axes collapse to the same point (repeated list values, axes
  // the scheme ignores) looks up and simulates each unique point once.
  std::vector<u64> hashes;
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<u64, std::size_t> group_of;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const u64 hash = ckpt::spec_hash(specs[i]);
    const auto [it, fresh] = group_of.emplace(hash, groups.size());
    if (fresh) {
      hashes.push_back(hash);
      groups.emplace_back();
    }
    groups[it->second].push_back(i);
  }
  std::vector<std::size_t> pending;  // groups to simulate
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t rep = groups[g].front();
    if (store != nullptr &&
        store->lookup(hashes[g], specs[rep], &out.results[rep])) {
      out.from_store += groups[g].size();
    } else {
      pending.push_back(g);
    }
  }
  out.executed = pending.size();
  const std::size_t total = specs.size();
  if (on_point && out.from_store > 0) on_point(out.from_store, total, 0.0);
  // Shared across worker threads: input points completed so far.
  std::atomic<std::size_t> done{out.from_store};
  ParallelExecutor pool(jobs);
  for (const std::size_t g : pending) {
    const std::size_t rep = groups[g].front();
    pool.submit_task(
        [&, g, rep] {
          const auto t0 = std::chrono::steady_clock::now();
          RunResult result = run_spec(specs[rep]);
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          // Stored as soon as it lands, so a killed run keeps it.
          if (store != nullptr) {
            store->put(hashes[g], specs[rep], result, secs);
          }
          if (on_point) {
            const std::size_t copies = groups[g].size();
            on_point(done.fetch_add(copies) + copies, total, secs);
          }
          return result;
        },
        spec_label(specs[rep]));
  }
  std::vector<RunResult> fresh = pool.join();
  for (std::size_t j = 0; j < pending.size(); ++j) {
    out.results[groups[pending[j]].front()] = std::move(fresh[j]);
  }
  for (const std::vector<std::size_t>& members : groups) {
    for (std::size_t m = 1; m < members.size(); ++m) {
      out.results[members[m]] = out.results[members[0]];
    }
  }
  return out;
}

SweepResults::SweepResults(std::vector<SweepRecord> records,
                           std::size_t from_store, std::size_t executed)
    : records_(std::move(records)),
      from_store_(from_store),
      executed_(executed) {}

void SweepResults::write_csv(std::ostream& os) const {
  os << "workload,scheme,policy,cores,threads,ctx,phys_regs,cycles,"
        "instructions,ipc,switches,rf_hit_rate,rf_fills,rf_spills";
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    os << ",cpi_" << cycle_bucket_name(static_cast<CycleBucket>(b));
  }
  os << '\n';
  for (const SweepRecord& r : records_) {
    os << r.spec.workload << ',' << scheme_name(r.spec.scheme) << ','
       << core::policy_name(r.spec.policy) << ',' << r.spec.num_cores << ','
       << r.spec.threads_per_core << ',' << r.spec.context_fraction << ','
       << spec_phys_regs(r.spec) << ',' << r.result.cycles << ','
       << r.result.instructions << ',' << r.result.ipc << ','
       << r.result.context_switches << ',' << r.result.rf_hit_rate << ','
       << r.result.rf_fills << ',' << r.result.rf_spills;
    // CPI-stack columns: each bucket's cycles per committed instruction
    // (their sum is the point's total CPI).
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      os << ','
         << (r.result.instructions == 0
                 ? 0.0
                 : r.result.cpi_stack[b] /
                       static_cast<double>(r.result.instructions));
    }
    os << '\n';
  }
}

void SweepResults::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_array();
  for (const SweepRecord& r : records_) {
    w.begin_object();
    w.key("spec");
    w.begin_object();
    w.kv("workload", r.spec.workload);
    w.kv("scheme", scheme_name(r.spec.scheme));
    w.kv("policy", core::policy_name(r.spec.policy));
    w.kv("cores", r.spec.num_cores);
    w.kv("threads", r.spec.threads_per_core);
    w.kv("ctx", r.spec.context_fraction);
    w.kv("phys_regs", spec_phys_regs(r.spec));
    w.end_object();
    w.key("result");
    w.begin_object();
    w.kv("cycles", r.result.cycles);
    w.kv("instructions", r.result.instructions);
    w.kv("ipc", r.result.ipc);
    w.kv("context_switches", r.result.context_switches);
    w.kv("rf_hit_rate", r.result.rf_hit_rate);
    w.kv("rf_fills", r.result.rf_fills);
    w.kv("rf_spills", r.result.rf_spills);
    w.kv("check_ok", r.result.check_ok);
    w.key("cpi_stack");
    w.begin_object();
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      w.kv(cycle_bucket_name(static_cast<CycleBucket>(b)),
           r.result.cpi_stack[b]);
    }
    w.end_object();
    w.end_object();
    w.end_object();
  }
  w.end_array();
  os << "\n";
}

namespace {

template <typename T>
std::vector<SpecSetter> setters(const std::vector<T>& values,
                                T RunSpec::*member) {
  std::vector<SpecSetter> out;
  for (const T& v : values) {
    out.push_back([member, v](RunSpec& spec) { spec.*member = v; });
  }
  return out;
}

}  // namespace

Sweep& Sweep::over(SweepAxis axis, std::vector<SpecSetter> values) {
  axes_.at(static_cast<std::size_t>(axis)) = std::move(values);
  return *this;
}
Sweep& Sweep::over_workloads(const std::vector<std::string>& workloads) {
  return over(kAxisWorkload, setters(workloads, &RunSpec::workload));
}
Sweep& Sweep::over_schemes(const std::vector<Scheme>& schemes) {
  return over(kAxisScheme, setters(schemes, &RunSpec::scheme));
}
Sweep& Sweep::over_policies(const std::vector<core::PolicyKind>& policies) {
  return over(kAxisPolicy, setters(policies, &RunSpec::policy));
}
Sweep& Sweep::over_threads(const std::vector<u32>& threads) {
  return over(kAxisThreads, setters(threads, &RunSpec::threads_per_core));
}
Sweep& Sweep::over_context_fractions(const std::vector<double>& fractions) {
  return over(kAxisCtx, setters(fractions, &RunSpec::context_fraction));
}
Sweep& Sweep::over_cores(const std::vector<u32>& cores) {
  return over(kAxisCores, setters(cores, &RunSpec::num_cores));
}

std::size_t Sweep::size() const {
  std::size_t n = 1;
  for (const std::vector<SpecSetter>& axis : axes_) {
    n *= axis.empty() ? 1 : axis.size();
  }
  return n;
}

std::vector<RunSpec> Sweep::specs() const {
  // Expand one axis at a time, each inside the previous ones, so the
  // first axis varies slowest.
  std::vector<RunSpec> out{base_};
  for (const std::vector<SpecSetter>& axis : axes_) {
    if (axis.empty()) continue;
    std::vector<RunSpec> next;
    next.reserve(out.size() * axis.size());
    for (const RunSpec& spec : out) {
      for (const SpecSetter& set : axis) {
        next.push_back(spec);
        set(next.back());
      }
    }
    out = std::move(next);
  }
  return out;
}

SweepResults Sweep::run(u32 jobs, svc::ResultStore* store,
                        const SweepProgressFn& on_point) const {
  std::vector<RunSpec> grid = specs();
  PointResults points = run_points(grid, jobs, store, on_point);
  std::vector<SweepRecord> records;
  records.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    records.push_back(
        SweepRecord{std::move(grid[i]), std::move(points.results[i])});
  }
  return SweepResults(std::move(records), points.from_store, points.executed);
}

}  // namespace virec::sim

// virec-repro: regenerates the paper's evaluation (Table 1, Figs. 1, 2
// and 9-14) and two ablations from one registry of figures.
//
//   virec-repro [--figure NAME|all] [--jobs N] [--store DIR]
//   virec-repro --list
//
// Each registry row names a figure, its header text, a grid function
// that lists every RunSpec point the figure reads, and a print function
// that formats its tables. The driver runs the union of the selected
// grids in one sim::run_points call (points shared between figures run
// once), then prints the figures in registry order, so the output is
// the same for any job count and whether or not a result store served
// the points. What is not a RunSpec point stays in its print function:
// fig01's OoO anchor, ablation_features' ViReCConfig variants and
// ablation_policy_bound's offline traces.
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/policy_sim.hpp"
#include "analysis/reg_usage.hpp"
#include "area/area_model.hpp"
#include "bench/bench_util.hpp"
#include "common/parse_number.hpp"
#include "cpu/ooo_core.hpp"
#include "sim/system.hpp"
#include "svc/result_store.hpp"

using namespace virec;

namespace {

using Grid = std::vector<sim::RunSpec>;
using bench::ResultMap;

/// A single-core point at the default sizing.
sim::RunSpec point(const std::string& workload, sim::Scheme scheme,
                   u32 threads, double fraction) {
  sim::RunSpec spec;
  spec.workload = workload;
  spec.scheme = scheme;
  spec.threads_per_core = threads;
  spec.context_fraction = fraction;
  spec.params = bench::default_params();
  return spec;
}

// ---------------------------------------------------------------------
// Table 1: the simulated processor configurations. Prints the
// parameters actually instantiated by this repository side by side with
// the paper's values.
namespace table1 {

void print(const ResultMap&, u32) {
  const sim::SystemConfig nmp = sim::SystemConfig::nmp_default();
  Table table({"parameter", "this repo", "paper"});
  table.add_row({"NMP issue width", "1", "1"});
  table.add_row({"NMP store queue", std::to_string(nmp.core.sq_entries), "5"});
  table.add_row({"icache", std::to_string(nmp.mem.icache.size_bytes / 1024) +
                               "kB/" + std::to_string(nmp.mem.icache.assoc) +
                               "-way/" +
                               std::to_string(nmp.mem.icache.hit_latency) +
                               "cyc",
                 "32kB/4-way/2cyc"});
  table.add_row({"dcache", std::to_string(nmp.mem.dcache.size_bytes / 1024) +
                               "kB/" + std::to_string(nmp.mem.dcache.assoc) +
                               "-way/" +
                               std::to_string(nmp.mem.dcache.hit_latency) +
                               "cyc",
                 "8kB/4-way/2cyc"});
  table.add_row({"dcache MSHRs", std::to_string(nmp.mem.dcache.mshrs), "24"});
  table.add_row({"DRAM channels", std::to_string(nmp.mem.dram.channels), "2"});
  table.add_row({"tRP-tCL-tRCD", std::to_string(nmp.mem.dram.t_rp) + "-" +
                                     std::to_string(nmp.mem.dram.t_cl) + "-" +
                                     std::to_string(nmp.mem.dram.t_rcd),
                 "14-14-14"});
  table.add_row({"banked core", "32 regs/bank, 1 bank/thread",
                 "8 banks 32/32 Int/FP"});
  table.add_row({"ViReC RF", "24-120 regs (per-config)", "24-120 regs"});
  table.add_row({"ViReC T/C/A bits", "3/1/3", "3/1/3"});
  table.add_row({"OoO width/ROB/LQ/SQ", "8/224/113/120", "8/224/113/120"});
  table.add_row({"OoO L2", "1MB/8-way/12cyc + stride pf deg 8",
                 "1MB/8-way/12cyc + stride pf deg 8"});
  table.print(std::cout);

  std::cout << "\nArea model anchors (45nm, Section 6.2):\n";
  Table area({"core", "area mm^2", "RF delay ns"});
  for (const auto& report :
       {area::ino_core_area(), area::banked_core_area(8, 64),
        area::banked_core_area(16, 64), area::virec_core_area(64),
        area::ooo_core_area()}) {
    area.add_row({report.label, Table::fmt(report.total_mm2, 2),
                  Table::fmt(report.rf_delay_ns, 3)});
  }
  area.print(std::cout);
}

}  // namespace table1

// ---------------------------------------------------------------------
// Figure 1: performance-area trade-off for the gather kernel.
//
// Points: a single in-order core, the OoO comparator, banked CGMT cores
// with 4/8 threads, and ViReC cores at 40-100% context storage for 4/8
// threads. Performance is normalised to the single in-order core at
// equal total work; area comes from the analytical 45nm model.
namespace fig01 {

/// Total work: kTotalIters gather iterations, split across threads.
constexpr u64 kTotalIters = 2048;

sim::RunSpec spec_for(sim::Scheme scheme, u32 threads, double fraction) {
  sim::RunSpec spec = point("gather", scheme, threads, fraction);
  spec.params.iters_per_thread = kTotalIters / threads;
  return spec;
}

Grid grid() {
  Grid grid;
  grid.push_back(spec_for(sim::Scheme::kBanked, 1, 1.0));
  for (u32 threads : {4u, 8u}) {
    grid.push_back(spec_for(sim::Scheme::kBanked, threads, 1.0));
    for (double frac : {1.0, 0.8, 0.6, 0.4}) {
      grid.push_back(spec_for(sim::Scheme::kViReC, threads, frac));
    }
  }
  return grid;
}

/// The OoO anchor runs the whole gather sequentially on the simplified
/// dataflow core (2GHz in the paper; we report cycles at its clock and
/// scale to the 1GHz NMP time base).
double ooo_time_units() {
  const workloads::Workload& gather = workloads::find_workload("gather");
  workloads::WorkloadParams params = bench::default_params();
  params.iters_per_thread = kTotalIters;
  mem::MemSystemConfig mc;
  mc.dcache = mem::CacheConfig{.name = "dcache",
                               .size_bytes = 32 * 1024,
                               .assoc = 4,
                               .hit_latency = 4,
                               .mshrs = 32};
  mc.has_l2 = true;
  mem::MemorySystem ms(mc);
  gather.init_memory(ms.memory(), params, 1);
  const workloads::RegContext regs = gather.thread_regs(params, 0, 1);
  const kasm::Program program = gather.program(params);
  cpu::OooCore core(cpu::OooCoreConfig{}, ms, 0, program);
  for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    core.regfile().write_reg(0, static_cast<isa::RegId>(r), regs[r]);
  }
  const Cycle cycles = core.run();
  // 2GHz core: halve the cycle count to express time in 1GHz units.
  return static_cast<double>(cycles) / 2.0;
}

void print(const ResultMap& results, u32) {
  struct Point {
    std::string label;
    double time;  // 1GHz cycles for the full job
    double area;
  };
  std::vector<Point> points;
  auto time_of = [&](sim::Scheme scheme, u32 threads, double fraction) {
    return static_cast<double>(
        results.cycles(spec_for(scheme, threads, fraction)));
  };

  points.push_back({"InO x1", time_of(sim::Scheme::kBanked, 1, 1.0),
                    area::ino_core_area().total_mm2});
  points.push_back({"OoO (N1-class)", ooo_time_units(),
                    area::ooo_core_area().total_mm2});

  for (u32 threads : {4u, 8u}) {
    points.push_back({"banked " + std::to_string(threads) + "T",
                      time_of(sim::Scheme::kBanked, threads, 1.0),
                      area::banked_core_area(threads).total_mm2});
    for (double frac : {1.0, 0.8, 0.6, 0.4}) {
      const u32 regs =
          sim::spec_phys_regs(spec_for(sim::Scheme::kViReC, threads, frac));
      points.push_back(
          {"virec " + std::to_string(threads) + "T " +
               Table::fmt_pct(frac, 0) + " (" + std::to_string(regs) + "r)",
           time_of(sim::Scheme::kViReC, threads, frac),
           area::virec_core_area(regs).total_mm2});
    }
  }

  const double base_time = points[0].time;
  const double base_area = points[0].area;
  Table table({"configuration", "perf (x InO)", "area mm^2", "area (x InO)",
               "perf/area"});
  for (const Point& p : points) {
    const double perf = base_time / p.time;
    table.add_row({p.label, Table::fmt(perf, 2), Table::fmt(p.area, 2),
                   Table::fmt(p.area / base_area, 2),
                   Table::fmt(perf / (p.area / base_area), 2)});
  }
  table.print(std::cout);
}

}  // namespace fig01

// ---------------------------------------------------------------------
// Figure 2: register utilisation of memory-intensive workloads.
// Reports, per kernel, the registers referenced in the innermost loop
// and in total, as a fraction of the 31-register context.
namespace fig02 {

void print(const ResultMap&, u32) {
  workloads::WorkloadParams params = bench::default_params();
  params.iters_per_thread = 128;

  Table table({"workload", "inner regs", "total regs", "inner %", "total %",
               "instructions"});
  std::vector<double> inner_fracs;
  for (const workloads::Workload* w : workloads::workload_registry()) {
    const analysis::RegUsageReport report =
        analysis::profile_registers(*w, params);
    inner_fracs.push_back(report.inner_fraction());
    table.add_row({w->name(), std::to_string(report.inner_regs),
                   std::to_string(report.total_regs),
                   Table::fmt_pct(report.inner_fraction(), 1),
                   Table::fmt_pct(report.total_fraction(), 1),
                   std::to_string(report.instructions)});
  }
  table.print(std::cout);
  std::cout << "mean inner-loop utilisation: "
            << Table::fmt_pct(mean(inner_fracs), 1) << "\n";
}

}  // namespace fig02

// ---------------------------------------------------------------------
// Figure 9: performance of ViReC vs a banked processor, the NSF
// register cache and full/exact context prefetching, per workload at
// 4/6/8 threads. Values are performance relative to the similarly-
// threaded banked processor.
namespace fig09 {

Grid grid() {
  Grid grid;
  for (u32 threads : {4u, 6u, 8u}) {
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      grid.push_back(point(w->name(), sim::Scheme::kBanked, threads, 1.0));
      for (double f : {0.8, 0.6, 0.4}) {
        grid.push_back(point(w->name(), sim::Scheme::kViReC, threads, f));
      }
      grid.push_back(point(w->name(), sim::Scheme::kNSF, threads, 0.8));
      grid.push_back(
          point(w->name(), sim::Scheme::kPrefetchExact, threads, 0.8));
      grid.push_back(
          point(w->name(), sim::Scheme::kPrefetchFull, threads, 0.8));
    }
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  for (u32 threads : {4u, 6u, 8u}) {
    std::cout << "\n--- " << threads << " threads ---\n";
    Table table({"workload", "virec80", "virec60", "virec40", "nsf80",
                 "pf-exact80", "pf-full80"});
    std::vector<double> v80, v60, v40, nsf, pfx, pff;
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      const Cycle banked = results.cycles(
          point(w->name(), sim::Scheme::kBanked, threads, 1.0));
      auto rel = [&](sim::Scheme s, double f) {
        return bench::relative_perf(
            banked, results.cycles(point(w->name(), s, threads, f)));
      };
      const double r80 = rel(sim::Scheme::kViReC, 0.8);
      const double r60 = rel(sim::Scheme::kViReC, 0.6);
      const double r40 = rel(sim::Scheme::kViReC, 0.4);
      const double rn = rel(sim::Scheme::kNSF, 0.8);
      const double rx = rel(sim::Scheme::kPrefetchExact, 0.8);
      const double rf = rel(sim::Scheme::kPrefetchFull, 0.8);
      v80.push_back(r80);
      v60.push_back(r60);
      v40.push_back(r40);
      nsf.push_back(rn);
      pfx.push_back(rx);
      pff.push_back(rf);
      table.add_row({w->name(), Table::fmt(r80, 2), Table::fmt(r60, 2),
                     Table::fmt(r40, 2), Table::fmt(rn, 2),
                     Table::fmt(rx, 2), Table::fmt(rf, 2)});
    }
    table.add_row({"geomean", Table::fmt(geomean(v80), 2),
                   Table::fmt(geomean(v60), 2), Table::fmt(geomean(v40), 2),
                   Table::fmt(geomean(nsf), 2), Table::fmt(geomean(pfx), 2),
                   Table::fmt(geomean(pff), 2)});
    table.print(std::cout);

    // Where the lost cycles go, from the closed cycle accounting:
    // memory-stall CPI (data/reg/MSHR misses + SQ backpressure) and
    // context-switch CPI (bubble + switch-starved cycles). ViReC's gap
    // to banked should show up as switch CPI, not extra memory CPI.
    Table cpi({"workload", "banked mem", "v80 mem", "v80 switch", "nsf mem",
               "nsf switch"});
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      const sim::RunResult& banked =
          results.at(point(w->name(), sim::Scheme::kBanked, threads, 1.0));
      const sim::RunResult& v80 =
          results.at(point(w->name(), sim::Scheme::kViReC, threads, 0.8));
      const sim::RunResult& nsf =
          results.at(point(w->name(), sim::Scheme::kNSF, threads, 0.8));
      cpi.add_row({w->name(), Table::fmt(bench::mem_stall_cpi(banked), 2),
                   Table::fmt(bench::mem_stall_cpi(v80), 2),
                   Table::fmt(bench::switch_cpi(v80), 2),
                   Table::fmt(bench::mem_stall_cpi(nsf), 2),
                   Table::fmt(bench::switch_cpi(nsf), 2)});
    }
    cpi.print(std::cout);
    std::cout << "virec80 vs nsf80 speedup: "
              << Table::fmt_pct(geomean(v80) / geomean(nsf) - 1.0, 1)
              << "   virec80 vs pf-exact80: "
              << Table::fmt_pct(geomean(v80) / geomean(pfx) - 1.0, 1) << "\n";
  }
}

}  // namespace fig09

// ---------------------------------------------------------------------
// Figure 10: performance-per-register trade-off for gather.
//
// Sweeps the number of scheduled threads; for each thread count plots
// ViReC at 40/60/80/100% context storage plus a banked configuration.
// "Performance" is total work over cycles, divided by physical
// registers.
namespace fig10 {

constexpr u64 kTotalIters = 2048;
constexpr double kBanked = -1.0;  // the fraction column's banked row

sim::RunSpec spec_for(u32 threads, double frac) {
  sim::RunSpec spec =
      frac == kBanked ? point("gather", sim::Scheme::kBanked, threads, 1.0)
                      : point("gather", sim::Scheme::kViReC, threads, frac);
  spec.params.iters_per_thread = kTotalIters / threads;
  return spec;
}

Grid grid() {
  Grid grid;
  for (u32 threads : {2u, 4u, 6u, 8u, 10u}) {
    for (double frac : {0.4, 0.6, 0.8, 1.0, kBanked}) {
      grid.push_back(spec_for(threads, frac));
    }
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  Table table({"threads", "config", "regs", "cycles", "perf", "perf/reg"});
  double base_perf = 0.0;
  for (u32 threads : {2u, 4u, 6u, 8u, 10u}) {
    for (double frac : {0.4, 0.6, 0.8, 1.0, kBanked}) {
      const sim::RunSpec spec = spec_for(threads, frac);
      u32 regs;
      std::string label;
      if (frac == kBanked) {
        regs = threads * isa::kNumArchRegs;
        label = "banked";
      } else {
        regs = sim::spec_phys_regs(spec);
        label = "virec " + Table::fmt_pct(frac, 0);
      }
      const Cycle cycles = results.cycles(spec);
      const double perf =
          static_cast<double>(kTotalIters) / static_cast<double>(cycles);
      if (base_perf == 0.0) base_perf = perf;
      table.add_row({std::to_string(threads), label, std::to_string(regs),
                     std::to_string(cycles), Table::fmt(perf / base_perf, 2),
                     Table::fmt(1000.0 * perf / regs, 3)});
    }
  }
  table.print(std::cout);
}

}  // namespace fig10

// ---------------------------------------------------------------------
// Figure 11: performance scaling with increased system load.
//
// Instantiates 1/2/4/8 ViReC processors executing gather behind the
// shared crossbar and DRAM, with 8 or 10 threads per processor, and
// reports per-processor runtime plus the observed memory latency.
namespace fig11 {

sim::RunSpec spec_for(u32 cores, u32 threads) {
  sim::RunSpec spec = point("gather", sim::Scheme::kViReC, threads, 1.0);
  spec.num_cores = cores;
  // Fixed RF budget per processor: 8 threads get 100% of a 6-reg
  // context; 10 threads squeeze into the same 48 registers.
  spec.phys_regs = 48;
  spec.params.iters_per_thread = 2048 / threads;
  return spec;
}

Grid grid() {
  Grid grid;
  for (u32 cores : {1u, 2u, 4u, 8u}) {
    for (u32 threads : {8u, 10u}) grid.push_back(spec_for(cores, threads));
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  Table table({"cores", "threads/core", "regs", "cycles", "norm perf",
               "avg mem latency", "mem cpi", "switch cpi"});
  double base = 0.0;
  for (u32 cores : {1u, 2u, 4u, 8u}) {
    for (u32 threads : {8u, 10u}) {
      const sim::RunResult& result = results.at(spec_for(cores, threads));
      const double perf = 1.0 / static_cast<double>(result.cycles);
      if (base == 0.0) base = perf;
      // The closed cycle stack makes the contention story direct:
      // rising system load shows up as memory-stall CPI, and the
      // 10-thread configuration's win as lower switch-starved CPI.
      table.add_row({std::to_string(cores), std::to_string(threads), "48",
                     std::to_string(result.cycles),
                     Table::fmt(perf / base, 3),
                     Table::fmt(result.avg_dcache_miss_latency, 1),
                     Table::fmt(bench::mem_stall_cpi(result), 2),
                     Table::fmt(bench::switch_cpi(result), 2)});
    }
  }
  table.print(std::cout);
  std::cout << "(per-processor work is constant: higher system load ->\n"
               " higher observed latency -> the 10-thread configuration\n"
               " catches up with / overtakes the 8-thread one)\n";
}

}  // namespace fig11

// ---------------------------------------------------------------------
// Figure 12: register replacement policy hit rates on a single ViReC
// processor with 8 threads at 80% and 40% context storage, plus the
// derived speedups the paper quotes in Section 6.1.
namespace fig12 {

const std::vector<core::PolicyKind> kPolicies = {
    core::PolicyKind::kPLRU,    core::PolicyKind::kLRU,
    core::PolicyKind::kFIFO,    core::PolicyKind::kRandom,
    core::PolicyKind::kMrtPLRU, core::PolicyKind::kMrtLRU,
    core::PolicyKind::kLRC};

sim::RunSpec spec_for(const std::string& workload, core::PolicyKind policy,
                      double fraction) {
  sim::RunSpec spec = point(workload, sim::Scheme::kViReC, 8, fraction);
  spec.policy = policy;
  return spec;
}

Grid grid() {
  Grid grid;
  for (double fraction : {0.8, 0.4}) {
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      for (core::PolicyKind pk : kPolicies) {
        grid.push_back(spec_for(w->name(), pk, fraction));
      }
    }
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  for (double fraction : {0.8, 0.4}) {
    std::cout << "\n--- " << Table::fmt_pct(fraction, 0) << " context ---\n";
    std::vector<std::string> headers = {"workload"};
    for (core::PolicyKind pk : kPolicies) headers.push_back(policy_name(pk));
    Table table(headers);

    std::map<core::PolicyKind, std::vector<double>> hits;
    std::map<core::PolicyKind, std::vector<double>> speedups;
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      std::vector<std::string> row = {w->name()};
      const Cycle plru_cycles = results.cycles(
          spec_for(w->name(), core::PolicyKind::kPLRU, fraction));
      for (core::PolicyKind pk : kPolicies) {
        const sim::RunResult& p = results.at(spec_for(w->name(), pk, fraction));
        hits[pk].push_back(p.rf_hit_rate);
        speedups[pk].push_back(static_cast<double>(plru_cycles) /
                               static_cast<double>(p.cycles));
        row.push_back(Table::fmt_pct(p.rf_hit_rate, 1));
      }
      table.add_row(row);
    }
    std::vector<std::string> mean_row = {"mean hit"};
    std::vector<std::string> speed_row = {"speedup vs plru"};
    for (core::PolicyKind pk : kPolicies) {
      mean_row.push_back(Table::fmt_pct(mean(hits[pk]), 1));
      speed_row.push_back(Table::fmt_pct(geomean(speedups[pk]) - 1.0, 1));
    }
    table.add_row(mean_row);
    table.add_row(speed_row);
    table.print(std::cout);
  }
}

}  // namespace fig12

// ---------------------------------------------------------------------
// Figure 13: dcache latency and capacity sensitivity for a single
// processor with 8 threads — ViReC vs banked, geometric-mean IPC across
// the figure workloads.
namespace fig13 {

constexpr u32 kLatencies[] = {2, 3, 4, 6, 8};
constexpr u32 kCapacities[] = {2048, 4096, 8192, 16384, 32768};

sim::RunSpec spec_for(const std::string& workload, sim::Scheme scheme,
                      u32 latency, u32 bytes) {
  sim::RunSpec spec = point(workload, scheme, 8, 0.8);
  spec.dcache_latency = latency;
  spec.dcache_bytes = bytes;
  spec.params.iters_per_thread = 128;
  return spec;
}

Grid grid() {
  Grid grid;
  for (const workloads::Workload* w : workloads::figure_workloads()) {
    for (sim::Scheme s : {sim::Scheme::kBanked, sim::Scheme::kViReC}) {
      for (u32 latency : kLatencies) {
        grid.push_back(spec_for(w->name(), s, latency, 0));
      }
      for (u32 bytes : kCapacities) {
        grid.push_back(spec_for(w->name(), s, 0, bytes));
      }
    }
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  auto geomean_ipc = [&](sim::Scheme scheme, u32 latency, u32 bytes) {
    std::vector<double> ipcs;
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      ipcs.push_back(results.at(spec_for(w->name(), scheme, latency, bytes)).ipc);
    }
    return geomean(ipcs);
  };
  // One row per swept value: banked and ViReC geomean IPC and their ratio.
  auto add_row = [&](Table& table, u32 value, u32 latency, u32 bytes) {
    const double banked = geomean_ipc(sim::Scheme::kBanked, latency, bytes);
    const double virec = geomean_ipc(sim::Scheme::kViReC, latency, bytes);
    table.add_row({std::to_string(value), Table::fmt(banked, 3),
                   Table::fmt(virec, 3), Table::fmt(virec / banked, 2)});
  };

  std::cout << "\n--- latency sweep (8kB dcache) ---\n";
  Table lat({"dcache latency", "banked IPC", "virec IPC", "virec/banked"});
  for (u32 latency : kLatencies) add_row(lat, latency, latency, 0);
  lat.print(std::cout);

  std::cout << "\n--- capacity sweep (2-cycle dcache) ---\n";
  Table cap({"dcache bytes", "banked IPC", "virec IPC", "virec/banked"});
  for (u32 bytes : kCapacities) add_row(cap, bytes, 0, bytes);
  cap.print(std::cout);
}

}  // namespace fig13

// ---------------------------------------------------------------------
// Figure 14: processor area versus thread count — banked cores with
// 64-register banks against ViReC cores with 8/16/32/64 registers of
// per-thread context — plus the Section 6.2 delay comparison.
namespace fig14 {

void print(const ResultMap&, u32) {
  Table table({"threads", "banked(64r/bank)", "virec 8r/t", "virec 16r/t",
               "virec 32r/t", "virec 64r/t"});
  for (u32 threads : {1u, 2u, 4u, 8u, 12u, 16u}) {
    table.add_row(
        {std::to_string(threads),
         Table::fmt(area::banked_core_area(threads, 64).total_mm2, 2),
         Table::fmt(area::virec_core_area(threads * 8).total_mm2, 2),
         Table::fmt(area::virec_core_area(threads * 16).total_mm2, 2),
         Table::fmt(area::virec_core_area(threads * 32).total_mm2, 2),
         Table::fmt(area::virec_core_area(threads * 64).total_mm2, 2)});
  }
  table.print(std::cout);

  std::cout << "\n--- component breakdown (ViReC, 64 physical registers) ---\n";
  const area::CoreAreaReport v = area::virec_core_area(64);
  Table parts({"component", "mm^2", "share"});
  parts.add_row({"base core (sans RF)", Table::fmt(v.base_mm2, 3),
                 Table::fmt_pct(v.base_mm2 / v.total_mm2, 1)});
  parts.add_row({"register file", Table::fmt(v.rf_mm2, 3),
                 Table::fmt_pct(v.rf_mm2 / v.total_mm2, 1)});
  parts.add_row({"VRMU tag store (CAM)", Table::fmt(v.tag_mm2, 3),
                 Table::fmt_pct(v.tag_mm2 / v.total_mm2, 1)});
  parts.add_row({"rollback queue + misc", Table::fmt(v.queue_mm2, 3),
                 Table::fmt_pct(v.queue_mm2 / v.total_mm2, 1)});
  parts.print(std::cout);

  std::cout << "\n--- RF access delay ---\n";
  Table delay({"configuration", "delay ns"});
  delay.add_row({"baseline 32-reg RF",
                 Table::fmt(area::ino_core_area().rf_delay_ns, 3)});
  delay.add_row({"virec 80 regs",
                 Table::fmt(area::virec_core_area(80).rf_delay_ns, 3)});
  delay.add_row({"banked 8x64",
                 Table::fmt(area::banked_core_area(8, 64).rf_delay_ns, 3)});
  delay.print(std::cout);
}

}  // namespace fig14

// ---------------------------------------------------------------------
// Feature ablation: quantifies each ViReC design choice DESIGN.md calls
// out by toggling it individually (full design -> one feature removed),
// plus the paper's two future-work extensions (group spills,
// switch-time prefetch) added on top.
//
// This is the experiment behind the Section 6.1 claim that ViReC's
// advantage over the NSF comes from "reduced RF misses from the LRC
// policy and lower register miss penalties from improvements like the
// BSI and register pinning".
//
// The variants change core::ViReCConfig fields that are not RunSpec
// knobs, so this figure has no grid: it builds each System itself and
// runs them on the driver's worker count.
namespace ablation_features {

sim::RunResult run_point(const std::string& workload,
                         const std::function<void(core::ViReCConfig&)>& tweak) {
  const sim::RunSpec spec = point(workload, sim::Scheme::kViReC, 8, 0.8);
  sim::SystemConfig config = sim::build_config(spec);
  tweak(config.virec);
  sim::System system(config, workloads::find_workload(workload), spec.params);
  const sim::RunResult result = system.run();
  if (!result.check_ok) throw std::runtime_error(result.check_msg);
  return result;
}

void print(const ResultMap&, u32 jobs) {
  struct Variant {
    const char* label;
    std::function<void(core::ViReCConfig&)> tweak;
  };
  const std::vector<Variant> variants = {
      {"full design", [](core::ViReCConfig&) {}},
      {"- LRC (PLRU policy)",
       [](core::ViReCConfig& c) { c.policy = core::PolicyKind::kPLRU; }},
      {"- MRT (no thread bits)",
       [](core::ViReCConfig& c) { c.policy = core::PolicyKind::kLRU; }},
      {"- non-blocking BSI",
       [](core::ViReCConfig& c) { c.bsi.non_blocking = false; }},
      {"- dummy dest fill",
       [](core::ViReCConfig& c) { c.bsi.dummy_dest_fill = false; }},
      {"- line pinning",
       [](core::ViReCConfig& c) { c.bsi.pin_lines = false; }},
      {"- sysreg prefetch",
       [](core::ViReCConfig& c) { c.csl.sysreg_prefetch = false; }},
      {"+ group spills (future work)",
       [](core::ViReCConfig& c) { c.group_spill = true; }},
      {"+ switch prefetch (future work)",
       [](core::ViReCConfig& c) { c.switch_prefetch = true; }},
      {"+ both extensions",
       [](core::ViReCConfig& c) {
         c.group_spill = true;
         c.switch_prefetch = true;
       }},
  };

  const std::vector<const char*> kernels = {"gather", "maebo", "spmv",
                                            "stride"};
  std::vector<std::string> headers = {"variant"};
  for (const char* k : kernels) headers.emplace_back(k);
  headers.emplace_back("geomean");
  // CPI-stack columns (gather): how each ablated feature shifts cycles
  // between memory stalls and context-switch loss.
  headers.emplace_back("mem cpi");
  headers.emplace_back("sw cpi");
  Table table(headers);

  // Every (variant, kernel) point is an independent simulation; run
  // the whole grid on the worker pool, then format from the flat
  // result vector (row-major: variants x kernels).
  std::vector<std::function<sim::RunResult()>> tasks;
  for (const Variant& variant : variants) {
    for (const char* k : kernels) {
      tasks.emplace_back([k, tweak = variant.tweak] {
        return run_point(k, tweak);
      });
    }
  }
  const std::vector<sim::RunResult> runs =
      sim::run_tasks(std::move(tasks), jobs);

  // Row 0 is the full design: the baseline each slowdown is against.
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    std::vector<std::string> row = {variants[vi].label};
    std::vector<double> rel;
    for (std::size_t ki = 0; ki < kernels.size(); ++ki) {
      const double slowdown =
          static_cast<double>(runs[vi * kernels.size() + ki].cycles) /
          static_cast<double>(runs[ki].cycles);
      rel.push_back(slowdown);
      row.push_back(Table::fmt(slowdown, 3));
    }
    row.push_back(Table::fmt(geomean(rel), 3));
    // kernels[0] is gather: the row-major index of its result is the
    // start of this variant's block.
    const sim::RunResult& gather = runs[vi * kernels.size()];
    row.push_back(Table::fmt(bench::mem_stall_cpi(gather), 2));
    row.push_back(Table::fmt(bench::switch_cpi(gather), 2));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "(NSF = all of rows 2,4,5,6,7 removed at once; see fig09)\n";
}

}  // namespace ablation_features

// ---------------------------------------------------------------------
// Policy-bound study: how close does the implementable LRC policy get
// to Belady's clairvoyant optimum on the register access traces a CGMT
// processor produces?
//
// For each workload and RF size, the offline simulator (analysis/
// policy_sim) replays the interleaved access trace under OPT, LRU,
// FIFO and MRT-LRU, while the timing simulator supplies the online LRC
// hit rate for the matching configuration.
namespace ablation_policy_bound {

constexpr u32 kThreads = 8;
constexpr u32 kAccessesPerEpisode = 14;  // ~5-6 instructions per episode
constexpr const char* kWorkloads[] = {"gather", "maebo", "spmv"};
constexpr double kFractions[] = {0.4, 0.6, 0.8, 1.0};

sim::RunSpec spec_for(const char* name, double frac) {
  sim::RunSpec spec = point(name, sim::Scheme::kViReC, kThreads, frac);
  spec.params.iters_per_thread = 128;
  return spec;
}

Grid grid() {
  Grid grid;
  for (const char* name : kWorkloads) {
    for (double frac : kFractions) grid.push_back(spec_for(name, frac));
  }
  return grid;
}

void print(const ResultMap& results, u32) {
  for (const char* name : kWorkloads) {
    const workloads::Workload& workload = workloads::find_workload(name);
    const auto trace = analysis::interleaved_trace(
        workload, spec_for(name, 1.0).params, kThreads, kAccessesPerEpisode);
    std::cout << "\n--- " << name << " (" << trace.size()
              << " accesses) ---\n";
    Table table({"RF entries", "ctx %", "OPT", "MRT-LRU", "LRU", "FIFO",
                 "LRC (online)"});
    for (double frac : kFractions) {
      const sim::RunSpec spec = spec_for(name, frac);
      const u32 rf = sim::spec_phys_regs(spec);
      const analysis::OfflineHitRates offline =
          analysis::offline_hit_rates(trace, rf, kThreads);
      table.add_row({std::to_string(rf), Table::fmt_pct(frac, 0),
                     Table::fmt_pct(offline.opt, 1),
                     Table::fmt_pct(offline.mrt_lru, 1),
                     Table::fmt_pct(offline.lru, 1),
                     Table::fmt_pct(offline.fifo, 1),
                     Table::fmt_pct(results.at(spec).rf_hit_rate, 1)});
    }
    table.print(std::cout);
  }
  std::cout << "\n(The online LRC column includes pipeline effects —\n"
               " replayed flushed instructions, destination-only\n"
               " allocations — absent from the offline traces, so it can\n"
               " exceed offline MRT-LRU.)\n";
}

}  // namespace ablation_policy_bound

// ---------------------------------------------------------------------
// The registry, in paper order.

struct Figure {
  const char* name;
  const char* title;  // header line
  const char* paper;  // what the paper reports
  Grid (*grid)();     // every run_points point the figure reads; null: none
  void (*print)(const ResultMap& results, u32 jobs);
};

const Figure kFigures[] = {
    {"table1", "Table 1 — performance simulation parameters",
     "Paper: 1GHz single-issue NMP cores, 32kB icache, 8kB dcache, no L2,\n"
     "DDR5_6400 (2ch, tRP-tCL-tRCD 14-14-14); OoO: 8-wide, 224 ROB, L2 1MB",
     nullptr, table1::print},
    {"fig01", "Figure 1 — performance-area trade-off (gather)",
     "Paper: OoO ~5.3x perf at ~19.1x area of one InO; banked CGMT better\n"
     "perf/area; ViReC matches banked at 100% ctx with ~40% less area and\n"
     "degrades gracefully at 80%/40% context.",
     fig01::grid, fig01::print},
    {"fig02", "Figure 2 — register utilisation",
     "Paper: many memory-intensive kernels use <30% of their register\n"
     "context in the innermost loop where they spend most of their time.",
     nullptr, fig02::print},
    {"fig09",
     "Figure 9 — performance vs banked (higher is better, banked = 1.0)",
     "Paper: ViReC mean drop 4.4%/7.1%/10% at 80% ctx and\n"
     "10.7%/17.6%/22.1% at 40% ctx for 4/6/8 threads; ViReC ~2.3x NSF;\n"
     "full prefetch almost always worst; exact prefetch between.",
     fig09::grid, fig09::print},
    {"fig10", "Figure 10 — performance per register (gather)",
     "Paper: with few threads (latency not hidden) small contexts cost\n"
     "little; once latency is hidden, extra per-thread context beats\n"
     "extra threads. ViReC dominates banked on perf/register.",
     fig10::grid, fig10::print},
    {"fig11", "Figure 11 — scaling with system load (gather)",
     "Paper: with 1-2 processors 8 threads suffice to hide latency; as\n"
     "crossbar/DRAM contention grows (4-8 processors), 10 threads win.\n"
     "ViReC supports the extra threads in the same RF by shrinking\n"
     "per-thread context.",
     fig11::grid, fig11::print},
    {"fig12", "Figure 12 — replacement policy hit rates (8 threads)",
     "Paper: scheduling-aware policies (MRT-*, LRC) beat PLRU/LRU;\n"
     "LRC ~93.9%/82.9% hit at 80%/40% ctx, within 0.3% of MRT-LRU, and\n"
     "20.7%/7.1% mean speedup over PLRU.",
     fig12::grid, fig12::print},
    {"fig13",
     "Figure 13 — dcache latency / capacity sweep (8 threads, geomean IPC)",
     "Paper: all schemes degrade with dcache latency, ViReC slightly\n"
     "faster (register fills). Pinned register lines shrink effective\n"
     "capacity, so ViReC thrashes small dcaches before banked does.",
     fig13::grid, fig13::print},
    {"fig14", "Figure 14 — area vs thread count",
     "Paper: the fully-associative tag store scales superlinearly, so\n"
     "full contexts in ViReC eventually cost more than banking; at the\n"
     "5-10 registers/thread memory-intensive kernels need, ViReC stays\n"
     "~40% below banked (1.7 vs 2.8-3.9 mm^2 at 8-16 threads).",
     nullptr, fig14::print},
    {"ablation_features",
     "Ablation — contribution of each ViReC feature (8 threads, 80% ctx)",
     "Each row removes ONE feature from the full design (or adds one\n"
     "future-work extension); values are slowdown vs the full design\n"
     "(>1.00 means the feature helps).",
     nullptr, ablation_features::print},
    {"ablation_policy_bound", "Policy bound — LRC vs Belady's OPT (8 threads)",
     "Section 4: LRC aims to evict the register used furthest in the\n"
     "future, 'similar to Belady's min'. Offline OPT/LRU/FIFO/MRT-LRU\n"
     "on the interleaved trace vs the online LRC hit rate.",
     ablation_policy_bound::grid, ablation_policy_bound::print},
};

void print_usage() {
  std::cout <<
      "virec-repro — regenerate the paper's tables and figures\n"
      "\n"
      "usage: virec-repro [--figure NAME|all] [--jobs N] [--store DIR]\n"
      "       virec-repro --list\n"
      "\n"
      "  --figure NAME|all   figure to print (default all, in paper order)\n"
      "  --list              list the figure names and exit\n"
      "  --jobs N            worker threads (0 = all hardware threads,\n"
      "                      the default; 1 = serial)\n"
      "  --store DIR         look points up in the result store DIR and\n"
      "                      put each fresh result there\n";
}

/// A usage error: the message and the known figures on stderr, exit 2.
int usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\nfigures:";
  for (const Figure& f : kFigures) std::cerr << ' ' << f.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string figure = "all";
    std::string store_dir;
    u32 jobs = 0;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help") {
        print_usage();
        return 0;
      }
      if (arg == "--list") {
        for (const Figure& f : kFigures) std::cout << f.name << "\n";
        return 0;
      }
      if (arg != "--figure" && arg != "--jobs" && arg != "--store") {
        return usage_error("unknown option " + arg);
      }
      if (i + 1 >= argc) return usage_error(arg + " needs a value");
      const std::string value = argv[++i];
      if (arg == "--figure") figure = value;
      else if (arg == "--jobs") jobs = parse_u32(arg, value);
      else store_dir = value;
    }

    std::vector<const Figure*> selected;
    for (const Figure& f : kFigures) {
      if (figure == "all" || figure == f.name) selected.push_back(&f);
    }
    if (selected.empty()) return usage_error("unknown figure " + figure);

    std::unique_ptr<svc::ResultStore> store;
    if (!store_dir.empty()) {
      store = std::make_unique<svc::ResultStore>(store_dir);
    }
    Grid grid;
    for (const Figure* f : selected) {
      if (f->grid == nullptr) continue;
      const Grid own = f->grid();
      grid.insert(grid.end(), own.begin(), own.end());
    }
    sim::PointResults points = sim::run_points(grid, jobs, store.get());
    if (store) {
      std::cerr << "store: " << points.from_store << " of " << grid.size()
                << " point(s) already in " << store_dir << ", "
                << points.executed << " simulated\n";
    }
    const ResultMap results(grid, std::move(points.results));
    for (const Figure* f : selected) {
      bench::print_header(f->title, f->paper);
      f->print(results, jobs);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

// Sampled-vs-full validation: run every point of a scheme x policy
// grid twice — once through the full cycle-accurate model, once
// through the tiered SMARTS sampler — and report the IPC estimation
// error, the confidence-interval coverage and the wall-clock speedup
// (the error/speedup frontier of docs/performance.md).
//
//   sampled_validation [--quick] [--csv PATH]
//                      [--max-err PCT] [--min-speedup X]
//
// --quick shrinks the grid to the CI smoke subset. --max-err /
// --min-speedup (0 = disabled) turn the run into a gate: the process
// exits non-zero if any *gated* point violates a threshold. Points
// with a known, documented estimator bias (bulk-miss schemes whose
// steady state the short warm-up cannot reach — see "known
// limitations" in docs/performance.md) are reported but never gated.
//
// Sampled points of the gather grid share one functional identity, so
// the recorded functional stream is built once and replayed by every
// later point (docs/performance.md, "Stream reuse"); the stream column
// shows which role each point played. A point that BUILDS its stream
// pays the one-off golden prepass — its wall-clock is the amortized
// sweep entry fee, so the speedup gate applies only to replay points
// (the steady-state sweep cost).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/parse_number.hpp"
#include "common/table.hpp"
#include "tiered/func_stream.hpp"

using namespace virec;

namespace {

struct Point {
  sim::RunSpec spec;
  bool gated = true;      ///< participates in threshold enforcement
  const char* note = "";  ///< why a point is ungated
};

double wall_run(const sim::RunSpec& spec, sim::RunResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = sim::run_spec(spec);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

double wall_run_tiered(const sim::RunSpec& spec, sim::TieredResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = sim::run_spec_tiered(spec);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

sim::RunSpec gather_spec(sim::Scheme scheme, u64 iters) {
  sim::RunSpec spec;
  spec.workload = "gather";
  spec.scheme = scheme;
  spec.threads_per_core = 8;
  spec.context_fraction = 0.8;
  spec.params.iters_per_thread = iters;
  spec.params.elements = 1 << 16;
  return spec;
}

sim::RunSpec pchase_spec(u64 iters) {
  sim::RunSpec spec;
  spec.workload = "pchase";
  spec.scheme = sim::Scheme::kBanked;
  spec.threads_per_core = 1;
  spec.params.iters_per_thread = iters;
  spec.params.elements = 1 << 17;
  return spec;
}

}  // namespace

int main(int argc, char** argv) try {
  bool quick = false;
  std::string csv_path;
  double max_err_pct = 0.0;    // 0 = no error gate
  double min_speedup = 0.0;    // 0 = no speedup gate
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(std::string(flag) + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--csv") {
      csv_path = value("--csv");
    } else if (arg == "--max-err") {
      max_err_pct = parse_double("--max-err", value("--max-err"));
    } else if (arg == "--min-speedup") {
      min_speedup = parse_double("--min-speedup", value("--min-speedup"));
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }

  // The ungated schemes on gather: bulk-miss prefetchers / software
  // save-restore whose RF steady state a 2k-instruction warm-up cannot
  // reach, leaving a documented positive CPI bias (~+11% at this
  // sizing; docs/performance.md, "known limitations").
  const u64 gather_iters = quick ? 102'400 : 25'600;
  std::vector<Point> grid;
  if (quick) {
    grid.push_back({gather_spec(sim::Scheme::kBanked, gather_iters)});
    grid.push_back({gather_spec(sim::Scheme::kViReC, gather_iters)});
    grid.push_back({gather_spec(sim::Scheme::kNSF, gather_iters), false,
                    "bias varies with sizing"});
    // Long enough that the fixed sampling overhead amortizes even
    // against the event-skip-accelerated full run.
    grid.push_back({pchase_spec(2'000'000)});
  } else {
    for (const sim::Scheme scheme :
         {sim::Scheme::kBanked, sim::Scheme::kSoftware,
          sim::Scheme::kPrefetchFull, sim::Scheme::kPrefetchExact,
          sim::Scheme::kViReC, sim::Scheme::kNSF}) {
      Point p{gather_spec(scheme, gather_iters)};
      if (scheme == sim::Scheme::kSoftware ||
          scheme == sim::Scheme::kPrefetchFull ||
          scheme == sim::Scheme::kPrefetchExact) {
        p.gated = false;
        p.note = "warm-up bias (docs)";
      } else if (scheme == sim::Scheme::kNSF) {
        p.gated = false;
        p.note = "bias varies with sizing";
      }
      grid.push_back(p);
    }
    for (const core::PolicyKind policy : core::all_policies()) {
      Point p{gather_spec(sim::Scheme::kViReC, gather_iters)};
      p.spec.policy = policy;
      if (policy == core::PolicyKind::kFIFO) {
        // FIFO ranks by insertion order, which the warm tier advances
        // without the detailed pipeline's flush-replay re-insertions.
        p.gated = false;
        p.note = "replay-order bias (FIFO)";
      }
      grid.push_back(p);
    }
    grid.push_back({pchase_spec(500'000)});
  }

  bench::print_header(
      "Sampled-vs-full validation (tiered SMARTS sampling)",
      std::string("Every point runs the full cycle model and the sampled\n"
                  "estimator (10 x 10k-inst windows, 2k warm-up); error is\n"
                  "est_ipc vs the full run's IPC. Mode: ") +
          (quick ? "quick (CI smoke)" : "full grid"));

  Table table({"workload", "scheme", "policy", "full IPC", "est IPC",
               "err %", "CI covers", "full s", "sampled s", "speedup",
               "stream", "gate"});
  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    if (!csv) {
      throw std::runtime_error("cannot open CSV output '" + csv_path + "'");
    }
    csv << "workload,scheme,policy,threads,iters,sample_windows,window_insts,"
           "warmup_insts,full_ipc,est_ipc,est_ipc_lo,est_ipc_hi,err_pct,"
           "ci_covers,full_secs,sampled_secs,speedup,stream,gated,note\n";
  }

  int violations = 0;
  double full_total = 0.0;
  double sampled_total = 0.0;
  for (Point& point : grid) {
    sim::RunSpec full_spec = point.spec;
    sim::RunResult full{};
    const double full_secs = wall_run(full_spec, &full);

    sim::RunSpec sampled_spec = point.spec;
    sampled_spec.sample_windows = 10;
    sampled_spec.window_insts = 10'000;
    sampled_spec.warmup_insts = 2'000;
    const sim::StreamCache::Stats before =
        sim::StreamCache::instance().stats();
    sim::TieredResult tiered{};
    const double sampled_secs = wall_run_tiered(sampled_spec, &tiered);
    const sim::StreamCache::Stats after = sim::StreamCache::instance().stats();
    // "build" = this point paid the golden prepass; "replay" = it
    // reused the stream the in-process cache already held.
    const bool built = after.built > before.built;
    const char* stream_role = built ? "build" : "replay";

    full_total += full_secs;
    sampled_total += sampled_secs;
    const double err_pct = (tiered.est_ipc - full.ipc) / full.ipc * 100.0;
    const bool covers =
        full.ipc >= tiered.est_ipc_lo && full.ipc <= tiered.est_ipc_hi;
    const double speedup = full_secs / sampled_secs;

    // The speedup gate measures the steady-state sweep cost, so it
    // skips the one-off prepass payer (the "build" point of each
    // functional identity) — that cost amortizes across the sweep.
    const bool speedup_gated = point.gated && !built;
    bool bad = false;
    if (point.gated && max_err_pct > 0.0 && std::abs(err_pct) > max_err_pct) {
      bad = true;
    }
    if (speedup_gated && min_speedup > 0.0 && speedup < min_speedup) {
      bad = true;
    }
    if (bad) ++violations;

    char err_buf[32];
    std::snprintf(err_buf, sizeof err_buf, "%+.2f", err_pct);
    table.add_row({point.spec.workload,
                   sim::scheme_name(point.spec.scheme),
                   core::policy_name(point.spec.policy), Table::fmt(full.ipc),
                   Table::fmt(tiered.est_ipc), err_buf,
                   covers ? "yes" : "no", Table::fmt(full_secs, 2),
                   Table::fmt(sampled_secs, 2),
                   Table::fmt(speedup, 2) + "x", stream_role,
                   bad ? "FAIL" : (point.gated ? "ok" : "-")});
    if (csv) {
      csv << point.spec.workload << ','
          << sim::scheme_name(point.spec.scheme) << ','
          << core::policy_name(point.spec.policy) << ','
          << point.spec.threads_per_core << ','
          << point.spec.params.iters_per_thread << ','
          << sampled_spec.sample_windows << ',' << sampled_spec.window_insts
          << ',' << sampled_spec.warmup_insts << ',' << full.ipc << ','
          << tiered.est_ipc << ',' << tiered.est_ipc_lo << ','
          << tiered.est_ipc_hi << ',' << err_pct << ',' << (covers ? 1 : 0)
          << ',' << full_secs << ',' << sampled_secs << ',' << speedup << ','
          << stream_role << ',' << (point.gated ? 1 : 0) << ',' << point.note
          << '\n';
    }
  }

  table.print(std::cout);
  std::cout << "\nUngated rows (gate '-') carry a documented estimator bias;"
               "\nsee the tiered-simulation section of docs/performance.md.\n";
  const sim::StreamCache::Stats ss = sim::StreamCache::instance().stats();
  std::cout << "stream_builds " << ss.built << " stream_mem_hits "
            << ss.mem_hits << '\n';
  if (sampled_total > 0.0) {
    char agg_buf[64];
    std::snprintf(agg_buf, sizeof agg_buf, "%.2f", full_total / sampled_total);
    std::cout << "aggregate speedup (sum full / sum sampled): " << agg_buf
              << "x\n";
  }
  if (max_err_pct > 0.0 || min_speedup > 0.0) {
    std::cout << "\ngates:";
    if (max_err_pct > 0.0) std::cout << " |err| <= " << max_err_pct << "%";
    if (min_speedup > 0.0) std::cout << " speedup >= " << min_speedup << "x";
    std::cout << " -> " << (violations == 0 ? "PASS" : "FAIL") << " ("
              << violations << " violation(s))\n";
  }
  return violations == 0 ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

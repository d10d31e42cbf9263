// virec-sim — command-line front end for the simulator.
//
//   virec-sim --workload gather --scheme virec --threads 8 --ctx 0.8
//   virec-sim --workload spmv --policy mrt-plru --cores 4 --stats
//   virec-sim --workload gather --trace --iters 8   # pipeline trace
//   virec-sim --workload gather --json --trace-out trace.json
//   virec-sim --sweep --workload gather,reduce --threads 4,8 --jobs 4
//   virec-sim --list
//
// Prints runtime, IPC, RF behaviour and (optionally) every counter of
// every component, in a stable machine-greppable "key value" format —
// or, with --json, one JSON document carrying the config echo, the
// results and every typed stat (see docs/observability.md).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "area/area_model.hpp"
#include "check/harness.hpp"
#include "check/repro.hpp"
#include "ckpt/spec_codec.hpp"
#include "common/json.hpp"
#include "common/parse_number.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "cpu/perfetto_trace.hpp"
#include "cpu/trace.hpp"
#include "sim/observability.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "sim/system.hpp"
#include "svc/result_store.hpp"
#include "tiered/func_stream.hpp"

using namespace virec;

namespace {

struct Options {
  sim::SpecFlags flags;  // knob flags as given
  sim::RunSpec spec;     // the single run, or the sweep's base point
  bool list = false;
  bool stats = false;
  bool trace = false;
  bool area = false;
  bool help = false;
  bool version = false;
  u32 trace_core = 0;
  bool json = false;
  bool cpi_stack = false;  // print the closed cycle-accounting table
  bool lint_stats = false; // stat-schema lint mode (CI)
  bool progress = false;   // JSON heartbeat lines on stderr
  double progress_secs = 1.0;
  std::string json_path;   // empty = stdout
  std::string trace_out;   // Perfetto trace file; empty = off
  u64 sample_interval = 0;
  bool sweep = false;
  u32 jobs = 0;            // 0 = hardware concurrency
  u64 checkpoint_every = 0;   // periodic snapshot interval (cycles)
  std::string checkpoint_out; // snapshot directory
  std::string restore_path;   // snapshot to resume a single run from
  std::string store_dir;      // result store a sweep reads and fills
  std::string replay_path;    // fuzzer repro file to replay and exit
};

void print_usage() {
  std::cout <<
      "virec-sim — near-memory multithreading simulator (ViReC reproduction)\n"
      "\n"
      "usage: virec-sim [options]\n";
  sim::SpecFlags::print_help(std::cout);
  std::cout <<
      "  --trace             print a pipeline trace (see --trace-core)\n"
      "  --trace-core N      core to trace with --trace (default 0)\n"
      "  --trace-out FILE    write a Perfetto/Chrome trace-event JSON\n"
      "                      file covering every core\n"
      "  --json[=FILE]       emit the run report as JSON (stdout or FILE);\n"
      "                      enables histogram/distribution collection\n"
      "  --sample-interval N record a time-series sample every N cycles\n"
      "                      (reported in the JSON time_series section;\n"
      "                      with --trace-out, also emits Perfetto\n"
      "                      counter tracks per core: CPI stack, IPC,\n"
      "                      MSHRs in flight, store-queue depth, ready\n"
      "                      threads)\n"
      "  --cpi-stack         print the closed cycle-accounting table\n"
      "                      (every cycle attributed to one bucket;\n"
      "                      single-run only, docs/observability.md)\n"
      "  --progress[=SECS]   emit a JSON heartbeat line on stderr every\n"
      "                      SECS seconds (default 1) of wall time —\n"
      "                      cycle, IPC, top stall bucket, skip\n"
      "                      efficiency and ETA for a single run;\n"
      "                      points done/total for a sweep\n"
      "  --lint-stats        stat-schema lint: build every scheme and\n"
      "                      fail (exit 1) if any registered stat lacks\n"
      "                      a description; used by CI\n"
      "  --stats             dump every component counter\n"
      "  --area              print the area/delay report for this config\n"
      "  --replay FILE       replay a virec-fuzz repro file under the\n"
      "                      oracle and exit (0 = clean, 1 = diverged;\n"
      "                      --no-skip is the only other flag it takes)\n"
      "  --checkpoint-every N  write a snapshot every N cycles (needs\n"
      "                      --checkpoint-out; single-run only)\n"
      "  --checkpoint-out DIR  directory for ckpt-<cycle>.vckpt files\n"
      "  --restore FILE      restore a snapshot and continue the run\n"
      "                      (config must match; single-run only)\n"
      "  --store DIR         look sweep points up in the result store DIR\n"
      "                      and put each fresh result there (a killed\n"
      "                      sweep rerun with it simulates only the\n"
      "                      missing points; needs --sweep)\n"
      "  --sweep             run the full cross product of the comma\n"
      "                      lists given to the [,...] flags and print a\n"
      "                      CSV table (or JSON with --json)\n"
      "  --jobs N            worker threads for --sweep (0 = all\n"
      "                      hardware threads, the default; 1 = serial)\n"
      "  --list              list workloads and exit\n"
      "  --version           print build provenance and exit\n";
}

bool parse(int argc, char** argv, Options& opt) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> given;  // every flag, without its value
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    given.push_back(arg);
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return args[++i];
    };
    if (opt.flags.parse(arg, value)) continue;
    if (arg == "--help" || arg == "-h") opt.help = true;
    else if (arg == "--version") opt.version = true;
    else if (arg == "--list") opt.list = true;
    else if (arg == "--stats") opt.stats = true;
    else if (arg == "--trace") opt.trace = true;
    else if (arg == "--area") opt.area = true;
    else if (arg == "--sweep") opt.sweep = true;
    else if (arg == "--jobs") opt.jobs = parse_u32(arg, value());
    else if (arg == "--checkpoint-every")
      opt.checkpoint_every = parse_u64(arg, value());
    else if (arg == "--checkpoint-out") opt.checkpoint_out = value();
    else if (arg == "--restore") opt.restore_path = value();
    else if (arg == "--store") opt.store_dir = value();
    else if (arg == "--replay") opt.replay_path = value();
    else if (arg == "--trace-core") opt.trace_core = parse_u32(arg, value());
    else if (arg == "--trace-out") opt.trace_out = value();
    else if (arg == "--sample-interval")
      opt.sample_interval = parse_u64(arg, value());
    else if (arg == "--cpi-stack") opt.cpi_stack = true;
    else if (arg == "--lint-stats") opt.lint_stats = true;
    else if (arg == "--progress") opt.progress = true;
    else if (arg.rfind("--progress=", 0) == 0) {
      opt.progress = true;
      opt.progress_secs = parse_double("--progress", arg.substr(11));
      if (!(opt.progress_secs > 0)) {
        throw std::invalid_argument("--progress: interval must be > 0");
      }
    }
    else if (arg == "--json") opt.json = true;
    else if (arg.rfind("--json=", 0) == 0) {
      opt.json = true;
      opt.json_path = arg.substr(7);
      if (opt.json_path.empty()) {
        throw std::invalid_argument("--json=FILE needs a file name");
      }
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
  }
  if (!opt.replay_path.empty()) {
    // A repro file carries its own spec and program.
    for (const std::string& flag : given) {
      if (flag != "--replay" && flag != "--no-skip") {
        throw std::invalid_argument(
            flag + " cannot be combined with --replay (the repro file "
                   "holds the run; only --no-skip is accepted)");
      }
    }
  }
  if (opt.sweep) {
    opt.spec = opt.flags.base();
  } else {
    if (!opt.store_dir.empty()) {
      throw std::invalid_argument(
          "--store keeps sweep points and needs --sweep "
          "(to continue a single run from a snapshot, use --restore)");
    }
    opt.spec = opt.flags.single();
  }
  return true;
}

/// The sweep grid: the base spec varied over every axis flag's list.
sim::Sweep build_sweep(const Options& opt) {
  sim::Sweep sweep;
  sweep.base() = opt.spec;
  for (int a = 0; a < sim::kNumSweepAxes; ++a) {
    const auto axis = static_cast<sim::SweepAxis>(a);
    sweep.over(axis, opt.flags.axis(axis));
  }
  return sweep;
}

/// Machine-greppable stream-cache summary on stderr after sampled
/// runs/sweeps (the CI smoke asserts that a policy sweep builds its
/// shared stream once, i.e. the functional tier was paid once).
/// Suppressed under --json: consumers that merge the streams must
/// still parse stdout as a single JSON document.
void print_stream_stats() {
  const sim::StreamCache::Stats s = sim::StreamCache::instance().stats();
  std::cerr << "stream_builds " << s.built << "\n"
            << "stream_mem_hits " << s.mem_hits << "\n";
}

int run_sweep_mode(const Options& opt) {
  if (opt.trace || opt.trace_core != 0 || !opt.trace_out.empty() ||
      opt.sample_interval > 0 || opt.stats || opt.area || opt.cpi_stack) {
    throw std::invalid_argument(
        "--trace/--trace-core/--trace-out/--sample-interval/--stats/"
        "--area/--cpi-stack are single-run options and cannot be combined "
        "with --sweep");
  }
  if (opt.checkpoint_every > 0 || !opt.checkpoint_out.empty() ||
      !opt.restore_path.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every/--checkpoint-out/--restore are single-run "
        "options and cannot be combined with --sweep (use --store to "
        "make a sweep resumable)");
  }
  const sim::Sweep sweep = build_sweep(opt);
  std::unique_ptr<svc::ResultStore> store;
  if (!opt.store_dir.empty()) {
    store = std::make_unique<svc::ResultStore>(opt.store_dir);
  }
  sim::SweepProgressFn on_point;
  if (opt.progress) {
    // Called from worker threads: one mutex serialises the stderr
    // lines. ETA extrapolates the observed completion rate.
    auto mu = std::make_shared<std::mutex>();
    const auto t0 = std::chrono::steady_clock::now();
    on_point = [mu, t0](std::size_t done, std::size_t total,
                        double point_secs) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const double eta =
          done == 0 ? 0.0
                    : wall * static_cast<double>(total - done) /
                          static_cast<double>(done);
      std::lock_guard<std::mutex> lock(*mu);
      std::cerr << "{\"type\": \"sweep\", \"done\": " << done
                << ", \"total\": " << total
                << ", \"point_secs\": " << point_secs
                << ", \"wall_secs\": " << wall << ", \"eta_secs\": " << eta
                << "}\n";
    };
  }
  const sim::SweepResults results =
      sweep.run(opt.jobs, store.get(), on_point);
  if (store) {
    std::cerr << "store: " << results.from_store() << " of "
              << results.size() << " point(s) already in " << opt.store_dir
              << ", " << results.executed() << " simulated\n";
  }
  if (opt.spec.sample_windows > 0 && !opt.json) print_stream_stats();
  if (opt.json) {
    if (opt.json_path.empty()) {
      results.write_json(std::cout);
    } else {
      std::ofstream out(opt.json_path);
      if (!out) throw std::runtime_error("cannot open " + opt.json_path);
      results.write_json(out);
      results.write_csv(std::cout);
    }
  } else {
    results.write_csv(std::cout);
  }
  return 0;
}

/// --lint-stats: build (and briefly run) a tiny system per scheme so
/// every component type registers its stats, then require a non-empty
/// description on each registered scalar, histogram and distribution.
/// CI runs this so a counter can't land without documentation.
int run_lint_stats() {
  const char* schemes[] = {"banked",         "software", "prefetch-full",
                           "prefetch-exact", "virec",    "nsf"};
  int missing = 0;
  for (const char* scheme : schemes) {
    sim::RunSpec spec;
    spec.workload = "gather";
    spec.scheme = sim::parse_scheme(scheme);
    spec.params.iters_per_thread = 1;
    spec.params.elements = 256;
    const workloads::Workload& workload =
        workloads::find_workload(spec.workload);
    sim::System system(sim::build_config(spec), workload, spec.params);
    // Run so stats created lazily on first inc() are registered too.
    system.run();
    for (const Stat& s : system.registry().all_scalars()) {
      if (!s.desc.empty()) continue;
      std::cerr << "lint: stat without description: " << scheme << ": "
                << s.name << "\n";
      ++missing;
    }
    for (const StatRegistry::Entry& entry : system.registry().entries()) {
      for (const auto& h : entry.set->histograms()) {
        if (h->desc().empty()) {
          std::cerr << "lint: histogram without description: " << scheme
                    << ": " << h->name() << "\n";
          ++missing;
        }
      }
      for (const auto& d : entry.set->distributions()) {
        if (d->desc().empty()) {
          std::cerr << "lint: distribution without description: " << scheme
                    << ": " << d->name() << "\n";
          ++missing;
        }
      }
    }
  }
  if (missing > 0) {
    std::cerr << "lint: " << missing << " stat(s) lack a description\n";
    return 1;
  }
  std::cout << "lint: every registered stat carries a description\n";
  return 0;
}

/// --area: the area/delay report of one core of @p config.
void print_area(const sim::SystemConfig& config) {
  const area::CoreAreaReport report = area::core_area_for(config);
  std::cout << "area.label " << report.label << "\n"
            << "area.total_mm2 " << report.total_mm2 << "\n"
            << "area.rf_mm2 " << report.rf_mm2 << "\n"
            << "area.tag_mm2 " << report.tag_mm2 << "\n"
            << "area.rf_delay_ns " << report.rf_delay_ns << "\n";
}

/// Single-run sampled mode (--sample-windows): alternate replayed
/// functional stretches with cycle-accurate measurement windows and
/// report the sampled estimate (docs/performance.md).
int run_tiered_mode(const Options& opt) {
  if (opt.trace || opt.trace_core != 0 || !opt.trace_out.empty() ||
      opt.sample_interval > 0) {
    throw std::invalid_argument(
        "--trace/--trace-core/--trace-out/--sample-interval follow every "
        "detailed cycle and cannot be combined with --sample-windows");
  }
  if (opt.checkpoint_every > 0 || !opt.checkpoint_out.empty() ||
      !opt.restore_path.empty()) {
    throw std::invalid_argument(
        "--checkpoint-every/--checkpoint-out/--restore snapshot full "
        "detailed runs and cannot be combined with --sample-windows");
  }

  const workloads::Workload& workload =
      workloads::find_workload(opt.spec.workload);
  const sim::SystemConfig config = sim::build_config(opt.spec);
  if (opt.area) print_area(config);

  sim::System system(config, workload, opt.spec.params);
  if (opt.spec.check) system.enable_check();

  sim::TieredRunner runner(system, opt.spec);
  if (opt.progress) {
    runner.set_progress(
        [](const sim::TieredProgress& p) {
          std::cerr << "{\"type\": \"tiered\", \"tier\": \"" << p.tier
                    << "\", \"insts_done\": " << p.insts_done
                    << ", \"insts_total\": " << p.insts_total
                    << ", \"window\": " << p.window
                    << ", \"windows\": " << p.windows
                    << ", \"wall_secs\": " << p.wall_secs
                    << ", \"eta_secs\": " << p.eta_secs << "}\n";
        },
        opt.progress_secs);
  }
  const sim::TieredResult result = runner.run();

  if (!opt.json) print_stream_stats();
  // Achieved speedup estimate: the wall time an all-detailed run would
  // have taken at the measured detailed simulation rate, over the
  // actual (functional + detailed) wall time.
  const double wall_total =
      result.wall_secs_functional + result.wall_secs_detailed;
  double est_speedup = 0.0;
  if (result.insts_detailed > 0 && result.wall_secs_detailed > 0 &&
      wall_total > 0) {
    const double detailed_rate =
        static_cast<double>(result.insts_detailed) / result.wall_secs_detailed;
    est_speedup =
        static_cast<double>(result.total_insts) / detailed_rate / wall_total;
  }

  if (opt.json) {
    auto write = [&](std::ostream& os) {
      JsonWriter w(os);
      w.begin_object();
      w.key("config");
      w.begin_object();
      w.kv("workload", workload.name());
      w.kv("scheme", sim::scheme_name(opt.spec.scheme));
      w.kv("policy", core::policy_name(opt.spec.policy));
      w.kv("cores", opt.spec.num_cores);
      w.kv("threads_per_core", opt.spec.threads_per_core);
      w.kv("phys_regs", sim::spec_phys_regs(opt.spec));
      w.kv("sample_windows", opt.spec.sample_windows);
      w.kv("window_insts", opt.spec.window_insts);
      w.kv("warmup_insts", opt.spec.warmup_insts);
      w.end_object();
      w.key("tiered");
      w.begin_object();
      w.kv("total_insts", result.total_insts);
      w.kv("insts_functional", result.insts_functional);
      w.kv("insts_detailed", result.insts_detailed);
      w.kv("cpi_mean", result.cpi_mean);
      w.kv("cpi_ci_half", result.cpi_ci_half);
      w.kv("est_cycles", result.est_cycles);
      w.kv("est_ipc", result.est_ipc);
      w.kv("est_ipc_lo", result.est_ipc_lo);
      w.kv("est_ipc_hi", result.est_ipc_hi);
      w.kv("wall_secs_functional", result.wall_secs_functional);
      w.kv("wall_secs_detailed", result.wall_secs_detailed);
      w.kv("est_speedup", est_speedup);
      w.key("windows");
      w.begin_array();
      for (const sim::WindowStat& win : result.windows) {
        w.begin_object();
        w.kv("start_inst", win.start_inst);
        w.kv("insts", win.insts);
        w.kv("cycles", win.cycles);
        w.kv("cpi", win.cpi);
        w.key("cpi_stack");
        w.begin_object();
        for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
          w.kv(cycle_bucket_name(static_cast<CycleBucket>(b)),
               win.insts == 0
                   ? 0.0
                   : win.cpi_stack[b] / static_cast<double>(win.insts));
        }
        w.end_object();
        w.end_object();
      }
      w.end_array();
      w.end_object();
      w.key("result");
      w.begin_object();
      w.kv("check", result.full.check_ok ? "OK" : "FAIL");
      w.end_object();
      w.end_object();
      os << "\n";
    };
    if (opt.json_path.empty()) {
      write(std::cout);
    } else {
      std::ofstream out(opt.json_path);
      if (!out) throw std::runtime_error("cannot open " + opt.json_path);
      write(out);
    }
  }

  if (!opt.json || !opt.json_path.empty()) {
    std::cout << "workload " << workload.name() << "\n"
              << "scheme " << sim::scheme_name(opt.spec.scheme) << "\n"
              << "policy " << core::policy_name(opt.spec.policy) << "\n"
              << "cores " << opt.spec.num_cores << "\n"
              << "threads_per_core " << opt.spec.threads_per_core << "\n"
              << "phys_regs " << sim::spec_phys_regs(opt.spec) << "\n"
              << "tier sampled\n"
              << "total_insts " << result.total_insts << "\n"
              << "insts_functional " << result.insts_functional << "\n"
              << "insts_detailed " << result.insts_detailed << "\n"
              << "sample_windows " << opt.spec.sample_windows << "\n"
              << "window_insts " << opt.spec.window_insts << "\n"
              << "warmup_insts " << opt.spec.warmup_insts << "\n"
              << "cpi_mean " << result.cpi_mean << "\n"
              << "cpi_ci_half " << result.cpi_ci_half << "\n"
              << "est_cycles " << result.est_cycles << "\n"
              << "est_ipc " << result.est_ipc << "\n"
              << "est_ipc_lo " << result.est_ipc_lo << "\n"
              << "est_ipc_hi " << result.est_ipc_hi << "\n";
    for (std::size_t i = 0; i < result.windows.size(); ++i) {
      const sim::WindowStat& win = result.windows[i];
      const double ipc = win.cycles == 0
                             ? 0.0
                             : static_cast<double>(win.insts) /
                                   static_cast<double>(win.cycles);
      std::cout << "window " << i << " start_inst " << win.start_inst
                << " insts " << win.insts << " cycles " << win.cycles
                << " ipc " << ipc << "\n";
    }
    std::cout << "wall_secs_functional " << result.wall_secs_functional
              << "\n"
              << "wall_secs_detailed " << result.wall_secs_detailed << "\n"
              << "est_speedup " << est_speedup << "\n"
              << "check " << (result.full.check_ok ? "OK" : "FAIL") << "\n";
  }

  if (opt.cpi_stack && !result.windows.empty()) {
    // Mean per-window CPI stack: each window's bucket deltas divided by
    // its measured instructions, averaged across windows. Shares sum to
    // 100% and the CPI column sums to cpi_mean.
    Table table({"bucket", "cpi", "share"});
    std::array<double, kNumCycleBuckets> mean{};
    double total = 0.0;
    for (const sim::WindowStat& win : result.windows) {
      if (win.insts == 0) continue;
      for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
        mean[b] += win.cpi_stack[b] / static_cast<double>(win.insts) /
                   static_cast<double>(result.windows.size());
      }
    }
    for (const double v : mean) total += v;
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      table.add_row({cycle_bucket_name(static_cast<CycleBucket>(b)),
                     Table::fmt(mean[b]),
                     Table::fmt_pct(total == 0 ? 0 : mean[b] / total)});
    }
    table.add_row({"total", Table::fmt(total), Table::fmt_pct(1.0)});
    table.print(std::cout);
  }

  if (opt.stats && !opt.json) {
    for (const Stat& s : system.registry().all_scalars()) {
      std::cout << s.name << " " << s.value << "\n";
    }
  }
  if (!result.full.check_ok) {
    std::cerr << "CHECK FAILED: " << result.full.check_msg << "\n";
    return 1;
  }
  return 0;
}

/// --replay FILE: re-run a fuzzer repro under the lockstep oracle.
int run_replay_mode(const Options& opt) {
  check::Repro repro = check::load_repro(opt.replay_path);
  // A repro recorded under --no-skip replays stepped; the flag on the
  // replay command line forces stepping either way.
  repro.spec.no_skip |= opt.spec.no_skip;
  std::cout << "replay " << opt.replay_path << "\n"
            << "scheme " << sim::scheme_name(repro.spec.scheme) << "\n"
            << "policy " << core::policy_name(repro.spec.policy) << "\n"
            << "phys_regs " << repro.spec.phys_regs << "\n"
            << "threads " << repro.spec.threads_per_core << "\n"
            << "instructions_in_program " << repro.program.size() << "\n";
  const check::HarnessResult result =
      check::run_checked(repro.program, repro.spec);
  std::cout << "cycles " << result.cycles << "\n"
            << "commits_checked " << result.commits_checked << "\n"
            << "replay_result "
            << (result.ok ? "OK" : (result.timed_out ? "TIMEOUT" : "FAIL"))
            << "\n";
  if (!result.ok) {
    std::cerr << (result.timed_out ? "replay timed out: " : "replay failed: ")
              << result.message << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  sim::RunSpec defaults;
  defaults.params.iters_per_thread = 256;
  opt.flags = sim::SpecFlags(defaults);
  try {
    if (!parse(argc, argv, opt)) {
      print_usage();
      return 2;
    }
    if (opt.help) {
      print_usage();
      return 0;
    }
    if (opt.version) {
      std::cout << "virec-sim\n"
                << "provenance " << build::provenance() << "\n"
                << "report_schema " << sim::kReportSchemaVersion << "\n"
                << "spec_codec " << ckpt::kSpecCodecVersion << "\n";
      return 0;
    }
    if (opt.list) {
      for (const workloads::Workload* w : workloads::workload_registry()) {
        std::cout << w->name() << "\t(" << w->active_regs()
                  << " active regs)\t" << w->description() << "\n";
      }
      return 0;
    }
    if (opt.lint_stats) return run_lint_stats();
    if (!opt.replay_path.empty()) return run_replay_mode(opt);
    if (opt.sweep) return run_sweep_mode(opt);

    if (opt.spec.sample_windows > 0) return run_tiered_mode(opt);
    if ((opt.checkpoint_every > 0) != !opt.checkpoint_out.empty()) {
      throw std::invalid_argument(
          "--checkpoint-every and --checkpoint-out must be given "
          "together");
    }

    const workloads::Workload& workload =
        workloads::find_workload(opt.spec.workload);
    const sim::SystemConfig config = sim::build_config(opt.spec);

    if (opt.trace_core != 0 && !opt.trace) {
      throw std::invalid_argument("--trace-core " +
                                  std::to_string(opt.trace_core) +
                                  " selects the core --trace prints and "
                                  "needs --trace");
    }
    if (opt.trace_core >= opt.spec.num_cores) {
      throw std::invalid_argument(
          "--trace-core " + std::to_string(opt.trace_core) +
          ": system has only " + std::to_string(opt.spec.num_cores) +
          " core(s)");
    }

    if (opt.area) print_area(config);

    sim::System system(config, workload, opt.spec.params);
    cpu::TextTracer tracer(std::cout);
    if (opt.trace) system.core(opt.trace_core).set_tracer(&tracer);

    // Perfetto trace: one shared writer, one sink per core (pipeline
    // events + register traffic). Takes precedence over --trace on a
    // core, since a core holds a single tracer.
    std::ofstream trace_file;
    std::unique_ptr<cpu::PerfettoTraceWriter> trace_writer;
    std::vector<std::unique_ptr<cpu::PerfettoTracer>> perfetto;
    if (!opt.trace_out.empty()) {
      trace_file.open(opt.trace_out);
      if (!trace_file) {
        throw std::runtime_error("cannot open trace file " + opt.trace_out);
      }
      trace_writer = std::make_unique<cpu::PerfettoTraceWriter>(trace_file);
      for (u32 c = 0; c < opt.spec.num_cores; ++c) {
        perfetto.push_back(std::make_unique<cpu::PerfettoTracer>(
            *trace_writer, c, opt.spec.threads_per_core));
        system.set_tracer(c, perfetto[c].get());
      }
    }

    if (opt.json) system.set_detailed_stats(true);
    if (opt.sample_interval > 0) {
      system.set_sample_interval(opt.sample_interval);
    }

    // Perfetto counter tracks ride the sampling grid: at every sample,
    // emit per-core series — the CPI stack (cycles per bucket within
    // the elapsed epoch), epoch IPC, and instantaneous MSHR / store-
    // queue / ready-thread occupancy.
    struct CounterState {
      std::array<double, kNumCycleBuckets> cpi{};
      u64 instructions = 0;
      Cycle cycle = 0;
    };
    auto counter_state = std::make_shared<std::vector<CounterState>>(
        opt.spec.num_cores);
    if (trace_writer && opt.sample_interval > 0) {
      system.set_sample_hook([&system, &opt, counter_state,
                              w = trace_writer.get()](const sim::Sample& s) {
        for (u32 c = 0; c < opt.spec.num_cores; ++c) {
          CounterState& st = (*counter_state)[c];
          const cpu::CgmtCore& core = system.core(c);
          const CycleAccount& acct = core.cycle_account();
          std::ostringstream stack;
          stack << "{";
          for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
            const double v = acct.bucket(static_cast<CycleBucket>(b));
            if (b != 0) stack << ", ";
            stack << '"' << cycle_bucket_name(static_cast<CycleBucket>(b))
                  << "\": " << v - st.cpi[b];
            st.cpi[b] = v;
          }
          stack << "}";
          w->counter_event("cpi stack", c, s.cycle, stack.str());
          const Cycle cycle = core.cycle();
          const u64 instructions = core.instructions();
          const double epoch_ipc =
              cycle > st.cycle
                  ? static_cast<double>(instructions - st.instructions) /
                        static_cast<double>(cycle - st.cycle)
                  : 0.0;
          st.cycle = cycle;
          st.instructions = instructions;
          std::ostringstream ipc;
          ipc << "{\"ipc\": " << epoch_ipc << "}";
          w->counter_event("ipc", c, s.cycle, ipc.str());
          std::ostringstream occ;
          occ << "{\"busy\": "
              << system.memory_system().dcache(c).outstanding_misses(s.cycle)
              << "}";
          w->counter_event("mshrs in flight", c, s.cycle, occ.str());
          std::ostringstream sq;
          sq << "{\"entries\": " << core.sq_occupancy(s.cycle) << "}";
          w->counter_event("store queue", c, s.cycle, sq.str());
          std::ostringstream ready;
          ready << "{\"ready\": " << core.runnable_threads(s.cycle) << "}";
          w->counter_event("ready threads", c, s.cycle, ready.str());
        }
      });
    }

    if (opt.progress) {
      system.set_progress(
          [](const sim::RunProgress& p) {
            // ETA against the watchdog budget: an upper bound, since
            // most runs finish well before max_cycles.
            const double eta =
                (p.max_cycles > 0 && p.cycle > 0 && p.wall_secs > 0)
                    ? p.wall_secs *
                          static_cast<double>(p.max_cycles - p.cycle) /
                          static_cast<double>(p.cycle)
                    : 0.0;
            std::cerr << "{\"type\": \"run\", \"cycle\": " << p.cycle
                      << ", \"instructions\": " << p.instructions
                      << ", \"ipc\": " << p.ipc << ", \"top_stall\": \""
                      << p.top_stall
                      << "\", \"top_stall_frac\": " << p.top_stall_frac
                      << ", \"skip_efficiency\": " << p.skip_efficiency
                      << ", \"wall_secs\": " << p.wall_secs
                      << ", \"eta_secs\": " << eta << "}\n";
          },
          opt.progress_secs);
    }
    if (opt.checkpoint_every > 0) {
      std::filesystem::create_directories(opt.checkpoint_out);
      system.set_checkpointing(opt.checkpoint_every, opt.checkpoint_out);
    }
    if (opt.spec.check) system.enable_check();
    // Restore after all sinks are attached so the continued run traces
    // and samples exactly like the tail of an uninterrupted one.
    if (!opt.restore_path.empty()) system.restore(opt.restore_path);

    const sim::RunResult result = system.run();

    if (trace_writer) {
      for (u32 c = 0; c < opt.spec.num_cores; ++c) {
        perfetto[c]->flush_open_spans(system.core(c).cycle());
      }
      trace_writer->finish();
    }

    if (opt.json) {
      if (opt.json_path.empty()) {
        sim::write_json_report(std::cout, system, opt.spec, result,
                               opt.sample_interval);
      } else {
        std::ofstream out(opt.json_path);
        if (!out) {
          throw std::runtime_error("cannot open " + opt.json_path);
        }
        sim::write_json_report(out, system, opt.spec, result,
                               opt.sample_interval);
      }
    }

    // The human-readable report goes to stdout unless the JSON report
    // already owns it.
    if (!opt.json || !opt.json_path.empty()) {
      std::cout << "workload " << workload.name() << "\n"
                << "scheme " << sim::scheme_name(opt.spec.scheme) << "\n"
                << "policy " << core::policy_name(opt.spec.policy) << "\n"
                << "cores " << opt.spec.num_cores << "\n"
                << "threads_per_core " << opt.spec.threads_per_core << "\n"
                << "phys_regs " << sim::spec_phys_regs(opt.spec) << "\n"
                << "cycles " << result.cycles << "\n"
                << "instructions " << result.instructions << "\n"
                << "ipc " << result.ipc << "\n"
                << "context_switches " << result.context_switches << "\n"
                << "rf_hit_rate " << result.rf_hit_rate << "\n"
                << "rf_fills " << result.rf_fills << "\n"
                << "rf_spills " << result.rf_spills << "\n"
                << "check " << (result.check_ok ? "OK" : "FAIL") << "\n";
    }

    if (opt.cpi_stack) {
      // Closed cycle accounting: every simulated cycle of every core is
      // in exactly one bucket, so shares sum to 100% and the CPI column
      // sums to the run's overall CPI.
      Table table({"bucket", "cycles", "share", "cpi"});
      double total = 0.0;
      for (const double v : result.cpi_stack) total += v;
      for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
        const double v = result.cpi_stack[b];
        table.add_row(
            {cycle_bucket_name(static_cast<CycleBucket>(b)),
             Table::fmt(v, 0), Table::fmt_pct(total == 0 ? 0 : v / total),
             Table::fmt(result.instructions == 0
                            ? 0
                            : v / static_cast<double>(result.instructions))});
      }
      table.add_row({"total", Table::fmt(total, 0), Table::fmt_pct(1.0),
                     Table::fmt(result.instructions == 0
                                    ? 0
                                    : total / static_cast<double>(
                                                  result.instructions))});
      table.print(std::cout);
    }

    if (opt.stats && !opt.json) {
      for (const Stat& s : system.registry().all_scalars()) {
        std::cout << s.name << " " << s.value << "\n";
      }
    }
    if (!result.check_ok) {
      std::cerr << "CHECK FAILED: " << result.check_msg << "\n";
      return 1;
    }
    return 0;
  } catch (const check::CheckError& e) {
    std::cerr << "CHECK FAILED: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

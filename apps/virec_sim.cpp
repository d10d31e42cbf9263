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
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <variant>
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

/// What a command line does. The bit order is the dispatch order: the
/// first mode a given flag selects wins; with none, a run is sampled
/// if --sample-windows is above 0 and a detailed single run otherwise.
enum Mode : unsigned {
  kHelp = 1u << 0,
  kVersion = 1u << 1,
  kList = 1u << 2,
  kReplay = 1u << 3,
  kSweep = 1u << 4,
  kSampled = 1u << 5,
  kSingle = 1u << 6,
};
constexpr unsigned kOneRun = kSampled | kSingle;
/// The modes that simulate a spec: each takes every knob flag.
constexpr unsigned kRuns = kSweep | kOneRun;

struct Options {
  sim::SpecFlags flags;  // knob flags as given
  sim::RunSpec spec;     // the single run, or the sweep's base point
  Mode mode = kSingle;
  bool stats = false;
  bool trace = false;
  bool area = false;
  u32 trace_core = 0;
  bool json = false;       // a JSON report (stdout or json_path)
  bool cpi_stack = false;  // print the closed cycle-accounting table
  bool progress = false;   // JSON heartbeat lines on stderr
  double progress_secs = 1.0;
  std::string json_path;   // empty = stdout
  std::string trace_out;   // Perfetto trace file; empty = off
  u64 sample_interval = 0;
  u32 jobs = 0;            // 0 = hardware concurrency
  u64 checkpoint_every = 0;   // periodic snapshot interval (cycles)
  std::string checkpoint_out; // snapshot directory
  std::string restore_path;   // snapshot to resume a single run from
  std::string store_dir;      // result store a sweep reads and fills
  std::string replay_path;    // fuzzer repro file to replay and exit

  /// Bare --json: the JSON report replaces the text report on stdout.
  bool json_owns_stdout() const { return json && json_path.empty(); }
};

/// The Options member a flag sets: a switch sets a bool, any other
/// flag parses its value into the member's type. Null = none.
using Field = std::variant<bool Options::*, u32 Options::*, u64 Options::*,
                           double Options::*, std::string Options::*>;

/// A flag that cannot be given beside a row's flag, and why.
struct Conflict {
  const char* flag = nullptr;  ///< its name in kFlags; nullptr = none
  const char* why = "";
};

/// One non-knob flag of virec-sim. Knob flags come from sim::SpecFlags:
/// every run mode takes them, and --replay takes --no-skip alone.
struct Flag {
  const char* name;          ///< spelling; "--x=V" takes its value attached
  const char* metavar = "";  ///< --help placeholder of a separate value
  unsigned modes;            ///< Mode bits of the modes that take it
  Field field = {};
  bool selects = false;      ///< giving it selects its (one) mode
  const char* needs = "";    ///< a flag that must be given too
  Conflict excludes[2] = {};
  const char* help;
};

constexpr const char* kJsonOnStdout =
    "the JSON report owns stdout; --json=FILE keeps the text report there";
constexpr const char* kNoDump =
    "a JSON report takes no counter dump; a detailed one holds every stat";

/// Every non-knob flag, in --help order.
const Flag kFlags[] = {
    {.name = "--stats", .modes = kOneRun, .field = &Options::stats,
     .excludes = {{"--json", kNoDump}, {"--json=FILE", kNoDump}},
     .help = "dump every component counter"},
    {.name = "--area", .modes = kOneRun, .field = &Options::area,
     .excludes = {{"--json", kJsonOnStdout}},
     .help = "print the area/delay report for this config"},
    {.name = "--cpi-stack", .modes = kOneRun, .field = &Options::cpi_stack,
     .excludes = {{"--json", kJsonOnStdout}},
     .help = "print the closed cycle-accounting table\n"
             "(every cycle attributed to one bucket;\n"
             "single-run only, docs/observability.md)"},
    {.name = "--json", .modes = kRuns, .field = &Options::json,
     .help = "emit the run report as JSON on stdout;\n"
             "enables histogram/distribution collection"},
    {.name = "--json=FILE", .modes = kRuns, .field = &Options::json_path,
     .help = "the same, written to FILE; the text report\n"
             "stays on stdout"},
    {.name = "--progress", .modes = kRuns, .field = &Options::progress,
     .help = "emit a JSON heartbeat line on stderr every\n"
             "second of wall time — cycle, IPC, top stall\n"
             "bucket, skip efficiency and ETA for a single\n"
             "run; points done/total for a sweep"},
    {.name = "--progress=SECS", .modes = kOneRun,
     .field = &Options::progress_secs,
     .help = "a heartbeat every SECS seconds instead\n"
             "(single run only)"},
    {.name = "--trace", .modes = kSingle, .field = &Options::trace,
     .excludes = {{"--trace-out", "a core holds one tracer"},
                  {"--json", kJsonOnStdout}},
     .help = "print a pipeline trace (see --trace-core)"},
    {.name = "--trace-core", .metavar = "N", .modes = kSingle,
     .field = &Options::trace_core, .needs = "--trace",
     .help = "core to trace with --trace (default 0)"},
    {.name = "--trace-out", .metavar = "FILE", .modes = kSingle,
     .field = &Options::trace_out,
     .help = "write a Perfetto/Chrome trace-event JSON\n"
             "file covering every core"},
    {.name = "--sample-interval", .metavar = "N", .modes = kSingle,
     .field = &Options::sample_interval,
     .help = "record a time-series sample every N cycles\n"
             "(a sample line each in the text report and\n"
             "the JSON time_series section; with\n"
             "--trace-out, also emits Perfetto\n"
             "counter tracks per core: CPI stack, IPC,\n"
             "MSHRs in flight, store-queue depth, ready\n"
             "threads)"},
    {.name = "--checkpoint-every", .metavar = "N", .modes = kSingle,
     .field = &Options::checkpoint_every, .needs = "--checkpoint-out",
     .help = "write a snapshot every N cycles (needs\n"
             "--checkpoint-out; single-run only)"},
    {.name = "--checkpoint-out", .metavar = "DIR", .modes = kSingle,
     .field = &Options::checkpoint_out, .needs = "--checkpoint-every",
     .help = "directory for ckpt-<cycle>.vckpt files"},
    {.name = "--restore", .metavar = "FILE", .modes = kSingle,
     .field = &Options::restore_path,
     .help = "restore a snapshot and continue the run\n"
             "(config must match; single-run only)"},
    {.name = "--sweep", .modes = kSweep, .selects = true,
     .help = "run the full cross product of the comma\n"
             "lists given to the [,...] flags and print a\n"
             "CSV table (or JSON with --json)"},
    {.name = "--jobs", .metavar = "N", .modes = kSweep,
     .field = &Options::jobs,
     .help = "worker threads for --sweep (0 = all\n"
             "hardware threads, the default; 1 = serial)"},
    {.name = "--store", .metavar = "DIR", .modes = kSweep,
     .field = &Options::store_dir,
     .help = "look sweep points up in the result store DIR\n"
             "and put each fresh result there (a killed\n"
             "sweep rerun with it simulates only the\n"
             "missing points; needs --sweep)"},
    {.name = "--replay", .metavar = "FILE", .modes = kReplay,
     .field = &Options::replay_path, .selects = true,
     .help = "replay a virec-fuzz repro file under the\n"
             "oracle and exit (0 = clean, 1 = diverged;\n"
             "--no-skip is the only other flag it takes)"},
    {.name = "--list", .modes = kList, .selects = true,
     .help = "list workloads and exit"},
    {.name = "--version", .modes = kVersion, .selects = true,
     .help = "print build provenance and exit"},
    {.name = "--help", .modes = kHelp, .selects = true,
     .help = "print this help and exit (also -h)"},
};

/// Set a flag's Options member: a switch sets its bool, a value is
/// parsed strictly (std::invalid_argument naming @p flag).
void set(bool& on, const char*, const std::string&) { on = true; }
void set(std::string& out, const char*, const std::string& text) {
  out = text;
}
void set(u32& out, const char* flag, const std::string& text) {
  out = parse_u32(flag, text);
}
void set(u64& out, const char* flag, const std::string& text) {
  out = parse_u64(flag, text);
}
void set(double& out, const char* flag, const std::string& text) {
  out = parse_double(flag, text);
}

/// The first of @p modes in dispatch order.
Mode first_mode(unsigned modes) {
  return static_cast<Mode>(1u << std::countr_zero(modes));
}

/// The flag that selects @p mode; "" for a detailed single run.
std::string selector(Mode mode) {
  if (mode == kSampled) return "--sample-windows";
  for (const Flag& flag : kFlags) {
    if (flag.selects && flag.modes == mode) return flag.name;
  }
  return "";
}

void print_usage() {
  std::cout <<
      "virec-sim — near-memory multithreading simulator (ViReC reproduction)\n"
      "\n"
      "usage: virec-sim [options]\n";
  sim::SpecFlags::print_help(std::cout);
  for (const Flag& flag : kFlags) {
    std::string head = flag.name;
    if (*flag.metavar != '\0') head += std::string(" ") + flag.metavar;
    sim::SpecFlags::print_help_entry(std::cout, head, flag.help);
  }
}

/// Parse the command line into @p opt and work out its mode. Returns
/// false on an unknown flag; throws std::invalid_argument naming the
/// flag on a bad value or on a flag the mode would ignore.
bool parse(int argc, char** argv, Options& opt) {
  struct Given {
    const Flag* row;  // nullptr for a knob flag
    std::string name;
    unsigned modes;   // the modes that take it
  };
  std::vector<Given> given;
  unsigned selected = kSingle;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i] == "-h" ? "--help" : args[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return args[++i];
    };
    if (opt.flags.parse(arg, value)) {
      given.push_back(
          {nullptr, arg, arg == "--no-skip" ? kRuns | kReplay : kRuns});
      continue;
    }
    const auto row = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& flag) {
          const char* eq = std::strchr(flag.name, '=');
          return eq == nullptr
                     ? arg == flag.name
                     : arg.compare(0, eq + 1 - flag.name, flag.name,
                                   eq + 1 - flag.name) == 0;
        });
    if (row == std::end(kFlags)) {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
    std::string text;  // the value of a flag that takes one
    if (!std::holds_alternative<bool Options::*>(row->field)) {
      const char* eq = std::strchr(row->name, '=');
      text = eq != nullptr ? arg.substr(eq + 1 - row->name) : value();
      if (text.empty()) {
        throw std::invalid_argument(std::string(row->name) + " needs a value");
      }
    }
    std::visit(
        [&](auto field) {
          if (field != nullptr) set(opt.*field, row->name, text);
        },
        row->field);
    if (row->selects) selected |= row->modes;
    given.push_back({&*row, row->name, row->modes});
  }
  const auto has = [&](const char* name) {
    return std::any_of(given.begin(), given.end(),
                       [&](const Given& g) { return g.name == name; });
  };
  // Values the rows' types cannot check.
  if (has("--progress=SECS") && !(opt.progress_secs > 0)) {
    throw std::invalid_argument("--progress=SECS: interval must be > 0");
  }
  if (has("--checkpoint-every") && opt.checkpoint_every == 0) {
    throw std::invalid_argument("--checkpoint-every: interval must be > 0");
  }
  opt.json |= !opt.json_path.empty();
  opt.progress |= has("--progress=SECS");

  if (opt.flags.base().sample_windows > 0) selected |= kSampled;
  opt.mode = first_mode(selected);
  for (const Given& g : given) {
    if ((g.modes & opt.mode) != 0) continue;
    const std::string by = selector(opt.mode);
    throw std::invalid_argument(
        by.empty() ? g.name + " needs " + selector(first_mode(g.modes))
                   : g.name + " cannot be combined with " + by);
  }
  for (const Given& g : given) {
    if (g.row == nullptr) continue;
    if (*g.row->needs != '\0' && !has(g.row->needs)) {
      throw std::invalid_argument(g.name + " needs " + g.row->needs);
    }
    for (const Conflict& c : g.row->excludes) {
      if (c.flag != nullptr && has(c.flag)) {
        throw std::invalid_argument(g.name + " cannot be combined with " +
                                    c.flag + " (" + c.why + ")");
      }
    }
  }
  opt.spec = opt.mode == kSweep ? opt.flags.base() : opt.flags.single();
  return true;
}

/// Write a JSON report through @p write: to FILE for --json=FILE, to
/// stdout for bare --json, nowhere without --json.
void write_json(const Options& opt,
                const std::function<void(std::ostream&)>& write) {
  if (!opt.json) return;
  if (opt.json_path.empty()) {
    write(std::cout);
    return;
  }
  std::ofstream out(opt.json_path);
  if (!out) throw std::runtime_error("cannot open " + opt.json_path);
  write(out);
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
  write_json(opt, [&](std::ostream& os) { results.write_json(os); });
  if (!opt.json_owns_stdout()) results.write_csv(std::cout);
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

/// The config lines that open a single run's text report.
void print_config(const sim::RunSpec& spec) {
  std::cout << "workload " << spec.workload << "\n"
            << "scheme " << sim::scheme_name(spec.scheme) << "\n"
            << "policy " << core::policy_name(spec.policy) << "\n"
            << "cores " << spec.num_cores << "\n"
            << "threads_per_core " << spec.threads_per_core << "\n"
            << "phys_regs " << sim::spec_phys_regs(spec) << "\n";
}

/// Sampled mode (--sample-windows): alternate replayed functional
/// stretches with cycle-accurate measurement windows and report the
/// sampled estimate (docs/performance.md).
sim::RunResult run_sampled(const Options& opt, sim::System& system) {
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

  write_json(opt, [&](std::ostream& os) {
    JsonWriter w(os);
    w.begin_object();
    w.key("config");
    w.begin_object();
    w.kv("workload", opt.spec.workload);
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
  });

  if (!opt.json_owns_stdout()) {
    print_config(opt.spec);
    std::cout << "tier sampled\n"
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
  return result.full;
}

/// Detailed mode: every cycle simulated, with the traces, samples and
/// snapshots the flags ask for.
sim::RunResult run_detailed(const Options& opt, sim::System& system) {
  cpu::TextTracer tracer(std::cout);
  if (opt.trace) system.core(opt.trace_core).set_tracer(&tracer);

  // Perfetto trace: one shared writer, one sink per core (pipeline
  // events + register traffic). A core holds one tracer, so --trace and
  // --trace-out exclude each other.
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

  write_json(opt, [&](std::ostream& os) {
    sim::write_json_report(os, system, opt.spec, result, opt.sample_interval);
  });

  if (!opt.json_owns_stdout()) {
    print_config(opt.spec);
    std::cout << "cycles " << result.cycles << "\n"
              << "instructions " << result.instructions << "\n"
              << "ipc " << result.ipc << "\n"
              << "context_switches " << result.context_switches << "\n"
              << "rf_hit_rate " << result.rf_hit_rate << "\n"
              << "rf_fills " << result.rf_fills << "\n"
              << "rf_spills " << result.rf_spills << "\n"
              << "check " << (result.check_ok ? "OK" : "FAIL") << "\n";
    // The --sample-interval time series: the JSON time_series fields
    // but the CPI stack, one line per sample.
    for (const sim::Sample& s : system.samples()) {
      std::cout << "sample cycle " << s.cycle << " instructions "
                << s.instructions << " ipc " << s.ipc << " interval_ipc "
                << s.interval_ipc << " rf_hit_rate " << s.rf_hit_rate
                << " runnable_threads " << s.runnable_threads
                << " outstanding_misses " << s.outstanding_misses << "\n";
    }
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
  return result;
}

/// One run, sampled or detailed: the area report, the run, the counter
/// dump and the workload check's exit status.
int run_single_mode(const Options& opt) {
  const workloads::Workload& workload =
      workloads::find_workload(opt.spec.workload);
  const sim::SystemConfig config = sim::build_config(opt.spec);
  if (opt.trace_core >= opt.spec.num_cores) {
    throw std::invalid_argument(
        "--trace-core " + std::to_string(opt.trace_core) +
        ": system has only " + std::to_string(opt.spec.num_cores) +
        " core(s)");
  }
  if (opt.area) print_area(config);

  sim::System system(config, workload, opt.spec.params);
  if (opt.spec.check) system.enable_check();
  const sim::RunResult result = opt.mode == kSampled
                                    ? run_sampled(opt, system)
                                    : run_detailed(opt, system);
  if (opt.stats) {
    for (const Stat& s : system.registry().all_scalars()) {
      std::cout << s.name << " " << s.value << "\n";
    }
  }
  if (!result.check_ok) {
    std::cerr << "CHECK FAILED: " << result.check_msg << "\n";
    return 1;
  }
  return 0;
}

/// --replay FILE: re-run a fuzzer repro under the lockstep oracle.
int run_replay_mode(const Options& opt) {
  check::Repro repro = check::load_repro(opt.replay_path);
  std::cout << "replay " << opt.replay_path << "\n"
            << "scheme " << sim::scheme_name(repro.spec.scheme) << "\n"
            << "policy " << core::policy_name(repro.spec.policy) << "\n"
            << "phys_regs " << sim::spec_phys_regs(repro.spec) << "\n"
            << "threads " << repro.spec.threads_per_core << "\n"
            << "cores " << repro.spec.num_cores << "\n";
  // Every other header the file sets, in knob-table order.
  for (const std::string& header : check::repro_headers(repro.spec)) {
    const std::string key = header.substr(0, header.find(' '));
    if (key != "scheme" && key != "policy" && key != "regs" &&
        key != "threads" && key != "cores") {
      std::cout << header << "\n";
    }
  }
  std::cout << "instructions_in_program " << repro.program.size() << "\n";
  // A repro recorded under --no-skip replays stepped; the flag on the
  // replay command line forces stepping either way.
  repro.spec.no_skip |= opt.spec.no_skip;
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
      std::cerr << "run virec-sim --help for the options\n";
      return 2;
    }
    switch (opt.mode) {
      case kHelp:
        print_usage();
        return 0;
      case kVersion:
        std::cout << "virec-sim\n"
                  << "provenance " << build::provenance() << "\n"
                  << "report_schema " << sim::kReportSchemaVersion << "\n"
                  << "spec_codec " << ckpt::kSpecCodecVersion << "\n";
        return 0;
      case kList:
        for (const workloads::Workload* w : workloads::workload_registry()) {
          std::cout << w->name() << "\t(" << w->active_regs()
                    << " active regs)\t" << w->description() << "\n";
        }
        return 0;
      case kReplay:
        return run_replay_mode(opt);
      case kSweep:
        return run_sweep_mode(opt);
      case kSampled:
      case kSingle:
        return run_single_mode(opt);
    }
    return 2;
  } catch (const check::CheckError& e) {
    std::cerr << "CHECK FAILED: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

// Repository benchmark driver (perfbench/README.md). Runs one of three
// closed-loop workloads against the virec library for a fixed time and
// prints every end-to-end metric by name with its unit. With --trace 1
// it alternates untraced passes with traced ones, records spans around
// each library call and prints the per-layer metrics instead.
//
//   virec-bench --workload figure_grid|manycore|sampled_store --seed N
//               --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//               [--store-dir DIR]
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, digest and metrics. perfbench/run.py builds this driver,
// checks the digest across runs and reprints the result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/spec_codec.hpp"
#include "common/cycle_account.hpp"
#include "common/stats.hpp"
#include "common/version.hpp"
#include "core/virec_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/parallel.hpp"
#include "sim/runner.hpp"
#include "svc/result_store.hpp"
#include "tiered/func_stream.hpp"

using namespace virec;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident memory of this process image. VmHWM, not ru_maxrss:
/// the latter survives execve, so it would report the launcher's peak
/// when that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CPUs this process may run on (what `nproc` prints).
u32 host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return sim::default_jobs();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (0 < p <= 1).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Digest of simulated statistics: FNV-1a over their encoding (the
/// result store's codec, doubles by bit pattern).
u64 digest_of(const ckpt::Encoder& enc) {
  return ckpt::fnv1a(ckpt::kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

u64 digest_of(const std::vector<u64>& digests) {
  ckpt::Encoder enc;
  enc.put_u64_vec(digests);
  return digest_of(enc);
}

// ------------------------------------------------------------ tracing

/// One recorded span, in seconds since the tracer was created.
struct Span {
  std::string name;  ///< "<layer>.<call>"
  int parent = -1;   ///< index of the enclosing span; -1 for a root
  u64 point = 0;     ///< spans of one experiment point share this id
  u32 worker = 0;    ///< host thread, numbered in order of appearance
  double start = 0.0;
  double end = 0.0;
};

/// In-memory span recorder, written out once when the run ends. A
/// disabled tracer records nothing, so untraced passes pay no more than
/// a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  int begin(std::string name, int parent, u64 point) {
    if (!on_) return -1;
    const double t = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, fresh] = workers_.try_emplace(
        std::this_thread::get_id(), static_cast<u32>(workers_.size()));
    (void)fresh;
    spans_.push_back({std::move(name), parent, point, it->second, t, t});
    return static_cast<int>(spans_.size() - 1);
  }

  void end(int id) {
    if (id < 0) return;
    const double t = seconds_between(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Copy of every span recorded so far (call between passes).
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Chrome trace-event JSON ("X" events; open in Perfetto).
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::vector<Span> spans = snapshot();
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"point\":%" PRIu64
                    ",\"parent\":%d}}%s\n",
                    s.name.c_str(), s.worker, s.start * 1e6,
                    (s.end - s.start) * 1e6, s.point, s.parent,
                    i + 1 < spans.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, u32> workers_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, u64 point)
      : tracer_(tracer), id_(tracer.begin(name, parent, point)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time per span name over spans [first, spans.size()): each
/// span's duration minus the union of its children's intervals. Also
/// keeps every duration by name for latency percentiles.
struct LayerTimes {
  std::map<std::string, double> self_s;
  std::map<std::string, std::vector<double>> durations;
};

LayerTimes layer_times(const std::vector<Span>& spans, std::size_t first) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= static_cast<int>(first)) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  LayerTimes out;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(std::max(s.start, spans[c].start),
                      std::min(s.end, spans[c].end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, lo = 0.0, hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double dur = s.end - s.start;
    out.self_s[s.name] += std::max(0.0, dur - covered);
    out.durations[s.name].push_back(dur);
  }
  return out;
}

// ------------------------------------------------------------ options

enum class Kind { kFigureGrid, kManycore, kSampledStore };

struct Options {
  Kind kind = Kind::kFigureGrid;
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string store_dir = ".bench_build/store";
};

/// Input size of every workload. The smoke sizing runs each workload
/// in about a second.
struct Sizing {
  u64 grid_iters = 4096;
  u32 manycore_cores = 16;
  u64 manycore_iters = 4096;
  u64 sampled_iters = 102'400;
  u32 sampled_windows = 10;
  u64 window_insts = 10'000;
  u64 warmup_insts = 2'000;
  u32 decode_ops = 200'000;  ///< per repetition of the isolated drivers
  double min_setup_s = 2.0;  ///< set-up passes repeat at least this long

  static Sizing smoke() {
    Sizing s;
    s.grid_iters = 64;
    s.manycore_cores = 4;
    s.manycore_iters = 64;
    s.sampled_iters = 2'048;
    s.sampled_windows = 4;
    s.window_insts = 500;
    s.warmup_insts = 100;
    s.decode_ops = 20'000;
    s.min_setup_s = 0.0;
    return s;
  }

  std::string describe() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "grid_iters=%" PRIu64 " manycore=%ux8@%" PRIu64
                  " sampled_iters=%" PRIu64 " windows=%ux%" PRIu64
                  " warmup=%" PRIu64,
                  grid_iters, manycore_cores, manycore_iters, sampled_iters,
                  sampled_windows, window_insts, warmup_insts);
    return buf;
  }
};

u64 parse_u64(const char* flag, const std::string& v) {
  std::size_t pos = 0;
  unsigned long long out = 0;
  try {
    out = std::stoull(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (v.empty() || pos != v.size()) {
    throw std::invalid_argument(std::string(flag) + ": invalid value '" + v +
                                "'");
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
      if (opt.workload == "figure_grid") {
        opt.kind = Kind::kFigureGrid;
      } else if (opt.workload == "manycore") {
        opt.kind = Kind::kManycore;
      } else if (opt.workload == "sampled_store") {
        opt.kind = Kind::kSampledStore;
      } else {
        throw std::invalid_argument("--workload: unknown '" + opt.workload +
                                    "'");
      }
    } else if (arg == "--seed") {
      opt.seed = parse_u64("--seed", value());
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64("--seconds", value()));
    } else if (arg == "--trace") {
      const u64 t = parse_u64("--trace", value());
      if (t > 1) throw std::invalid_argument("--trace: expected 0 or 1");
      opt.trace = t == 1;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = value();
    } else if (arg == "--store-dir") {
      opt.store_dir = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

// ------------------------------------------------------------ grids

sim::RunSpec base_spec(const std::string& kernel, u64 iters, u64 seed) {
  sim::RunSpec spec;
  spec.workload = kernel;
  spec.params.iters_per_thread = iters;
  spec.params.elements = 1 << 16;
  spec.params.seed = seed;
  return spec;
}

/// The exact Figure 9 grid: 8 kernels x {banked, virec 0.8/0.6/0.4,
/// nsf, prefetch-exact, prefetch-full} x {4, 6, 8} threads.
std::vector<sim::RunSpec> figure_grid(const Sizing& sz, u64 seed) {
  std::vector<sim::RunSpec> grid;
  for (const u32 threads : {4u, 6u, 8u}) {
    for (const workloads::Workload* w : workloads::figure_workloads()) {
      auto add = [&](sim::Scheme scheme, double fraction) {
        sim::RunSpec spec = base_spec(w->name(), sz.grid_iters, seed);
        spec.scheme = scheme;
        spec.threads_per_core = threads;
        spec.context_fraction = fraction;
        grid.push_back(spec);
      };
      add(sim::Scheme::kBanked, 1.0);
      for (const double f : {0.8, 0.6, 0.4}) add(sim::Scheme::kViReC, f);
      add(sim::Scheme::kNSF, 0.8);
      add(sim::Scheme::kPrefetchExact, 0.8);
      add(sim::Scheme::kPrefetchFull, 0.8);
    }
  }
  return grid;
}

/// Two serial many-core points: ViReC at ctx 0.8, 8 threads per core.
std::vector<sim::RunSpec> manycore_grid(const Sizing& sz, u64 seed) {
  std::vector<sim::RunSpec> grid;
  for (const char* kernel : {"gather", "pchase"}) {
    sim::RunSpec spec = base_spec(kernel, sz.manycore_iters, seed);
    spec.scheme = sim::Scheme::kViReC;
    spec.num_cores = sz.manycore_cores;
    spec.threads_per_core = 8;
    spec.context_fraction = 0.8;
    grid.push_back(spec);
  }
  return grid;
}

/// Sampled gather over the six schemes, ViReC under four policies; all
/// points share one functional identity, so one stream build serves
/// the whole grid.
std::vector<sim::RunSpec> sampled_grid(const Sizing& sz, u64 seed) {
  std::vector<sim::RunSpec> grid;
  auto add = [&](sim::Scheme scheme, double fraction, core::PolicyKind p) {
    sim::RunSpec spec = base_spec("gather", sz.sampled_iters, seed);
    spec.scheme = scheme;
    spec.threads_per_core = 8;
    spec.context_fraction = fraction;
    spec.policy = p;
    spec.sample_windows = sz.sampled_windows;
    spec.window_insts = sz.window_insts;
    spec.warmup_insts = sz.warmup_insts;
    grid.push_back(spec);
  };
  using core::PolicyKind;
  for (const PolicyKind p : {PolicyKind::kLRC, PolicyKind::kLRU,
                             PolicyKind::kPLRU, PolicyKind::kMrtPLRU}) {
    add(sim::Scheme::kViReC, 0.8, p);
  }
  add(sim::Scheme::kNSF, 0.8, PolicyKind::kLRC);
  add(sim::Scheme::kBanked, 1.0, PolicyKind::kLRC);
  add(sim::Scheme::kSoftware, 1.0, PolicyKind::kLRC);
  add(sim::Scheme::kPrefetchExact, 0.8, PolicyKind::kLRC);
  add(sim::Scheme::kPrefetchFull, 0.8, PolicyKind::kLRC);
  return grid;
}

// ------------------------------------------------------------ passes

/// Registry counters of one detailed point (simulated, exact).
struct Counters {
  double dcache_accesses = 0, dcache_misses = 0, dram_accesses = 0;
  double dram_row_hits = 0, dram_row_total = 0, xbar_transfers = 0;
  double mispredicts = 0, rf_hits = 0, rf_misses = 0;

  void add(const Counters& o) {
    dcache_accesses += o.dcache_accesses;
    dcache_misses += o.dcache_misses;
    dram_accesses += o.dram_accesses;
    dram_row_hits += o.dram_row_hits;
    dram_row_total += o.dram_row_total;
    xbar_transfers += o.xbar_transfers;
    mispredicts += o.mispredicts;
    rf_hits += o.rf_hits;
    rf_misses += o.rf_misses;
  }
};

struct PointRecord {
  bool ok = false;
  std::string error;
  double start = 0.0;  ///< seconds since the pass started
  double end = 0.0;
  std::thread::id worker;
  sim::RunResult result;  ///< sampled points carry the estimates
  u64 digest = 0;
  Counters counters;  ///< detailed points only
  // Sampled points only.
  std::array<double, kNumCycleBuckets> window_stack{};
  double window_insts = 0.0;
  double insts_functional = 0.0, insts_detailed = 0.0;
  double wall_functional = 0.0, wall_detailed = 0.0;
  double ci_half_pct = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double pool_end = 0.0;  ///< when the last point's worker was done
  u32 workers = 1;
  std::vector<PointRecord> points;
  u64 digest = 0;
  // sampled_store only
  sim::StreamCache::Stats stream{};
  u64 store_hits = 0;
  double store_bytes = 0.0;
};

/// Fold every registry scalar into the digest and pick out the
/// counters the per-layer metrics need.
void scan_registry(const StatRegistry& reg, ckpt::Encoder& enc, Counters& c) {
  for (const Stat& s : reg.all_scalars()) {
    enc.put_str(s.name);
    enc.put_f64(s.value);
    const std::string& n = s.name;
    if (n.ends_with(".dcache.reads") || n.ends_with(".dcache.writes")) {
      c.dcache_accesses += s.value;
    } else if (n.ends_with(".dcache.misses")) {
      c.dcache_misses += s.value;
    } else if (n == "dram.reads" || n == "dram.writes") {
      c.dram_accesses += s.value;
    } else if (n == "dram.row_hits") {
      c.dram_row_hits += s.value;
      c.dram_row_total += s.value;
    } else if (n == "dram.row_empty" || n == "dram.row_conflicts") {
      c.dram_row_total += s.value;
    } else if (n == "xbar.transfers") {
      c.xbar_transfers += s.value;
    } else if (n.ends_with(".core.mispredicts")) {
      c.mispredicts += s.value;
    } else if (n.ends_with(".rf_hits")) {
      c.rf_hits += s.value;
    } else if (n.ends_with(".rf_misses")) {
      c.rf_misses += s.value;
    }
  }
}

/// One full-detail point: construct the System, run it, record the
/// outcome. Never throws; a failure is recorded on the point.
sim::RunResult run_detailed_point(const sim::RunSpec& spec, PointRecord& rec,
                                  Tracer& tracer, int parent, u64 id,
                                  Clock::time_point pass_t0) {
  rec.start = seconds_between(pass_t0, Clock::now());
  rec.worker = std::this_thread::get_id();
  {
    ScopedSpan point(tracer, "sim.point", parent, id);
    try {
      const workloads::Workload& w = workloads::find_workload(spec.workload);
      const sim::SystemConfig config = sim::build_config(spec);
      std::unique_ptr<sim::System> system;
      {
        ScopedSpan s(tracer, "setup.ctor", point.id(), id);
        system = std::make_unique<sim::System>(config, w, spec.params);
      }
      {
        ScopedSpan s(tracer, "sim.run", point.id(), id);
        rec.result = system->run();
      }
      ckpt::Encoder enc;
      enc.put_str(sim::spec_label(spec));
      ckpt::encode_result(enc, rec.result);
      scan_registry(system->registry(), enc, rec.counters);
      rec.digest = digest_of(enc);
      rec.ok = rec.result.check_ok;
      if (!rec.ok) rec.error = "workload check failed: " + rec.result.check_msg;
    } catch (const std::exception& e) {
      rec.ok = false;
      rec.error = e.what();
    }
  }
  rec.end = seconds_between(pass_t0, Clock::now());
  return rec.result;
}

/// figure_grid and manycore: every point through ParallelExecutor
/// (jobs = 1 runs them in order on this thread).
PassResult run_detailed_pass(const std::vector<sim::RunSpec>& specs, u32 jobs,
                             Tracer& tracer) {
  PassResult pass;
  pass.workers = jobs;
  pass.points.resize(specs.size());
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "sim.pass", -1, 0);
    sim::ParallelExecutor pool(jobs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      pool.submit_task(
          [&, i] {
            return run_detailed_point(specs[i], pass.points[i], tracer,
                                      span.id(), i + 1, t0);
          },
          sim::spec_label(specs[i]));
    }
    pool.join();
  }
  pass.pool_end = seconds_between(t0, Clock::now());
  pass.wall_s = pass.pool_end;
  pass.cpu_s = cpu_seconds() - cpu0;
  std::vector<u64> digests;
  for (const PointRecord& p : pass.points) digests.push_back(p.digest);
  pass.digest = digest_of(digests);
  return pass;
}

/// The RunResult run_spec reports for a sampled point: the estimates
/// in the standard fields.
sim::RunResult estimated_result(const sim::TieredResult& t) {
  sim::RunResult r = t.full;
  r.cycles = static_cast<Cycle>(std::llround(t.est_cycles));
  r.instructions = t.total_insts;
  r.ipc = t.est_ipc;
  return r;
}

bool same_result(const sim::RunResult& a, const sim::RunResult& b) {
  ckpt::Encoder ea, eb;
  ckpt::encode_result(ea, a);
  ckpt::encode_result(eb, b);
  return ea.bytes() == eb.bytes();
}

/// sampled_store: every point through run_spec_tiered from an empty
/// stream cache, each finished point put into a fresh ResultStore, then
/// the whole grid served again by lookup.
PassResult run_sampled_pass(const std::vector<sim::RunSpec>& specs,
                            const std::string& store_dir, Tracer& tracer) {
  PassResult pass;
  pass.points.resize(specs.size());
  std::vector<u64> hashes;
  for (const sim::RunSpec& spec : specs) hashes.push_back(ckpt::spec_hash(spec));
  sim::StreamCache::instance().reset_for_test();
  fs::remove_all(store_dir);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span(tracer, "sim.pass", -1, 0);
    svc::ResultStore store(store_dir);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      PointRecord& rec = pass.points[i];
      const u64 id = i + 1;
      rec.start = seconds_between(t0, Clock::now());
      rec.worker = std::this_thread::get_id();
      {
        ScopedSpan point(tracer, "sim.point", span.id(), id);
        try {
          sim::TieredResult t;
          {
            ScopedSpan s(tracer, "tiered.run_spec_tiered", point.id(), id);
            t = sim::run_spec_tiered(specs[i]);
          }
          rec.result = estimated_result(t);
          ckpt::Encoder enc;
          enc.put_str(sim::spec_label(specs[i]));
          ckpt::encode_result(enc, rec.result);
          ckpt::encode_result(enc, t.full);
          enc.put_u64(t.total_insts);
          enc.put_u64(t.insts_functional);
          enc.put_u64(t.insts_detailed);
          enc.put_f64(t.cpi_mean);
          enc.put_f64(t.cpi_ci_half);
          for (const sim::WindowStat& w : t.windows) {
            enc.put_u64(w.start_inst);
            enc.put_u64(w.insts);
            enc.put_u64(w.cycles);
            for (const double c : w.cpi_stack) enc.put_f64(c);
            for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
              rec.window_stack[b] += w.cpi_stack[b];
            }
            rec.window_insts += static_cast<double>(w.insts);
          }
          rec.digest = digest_of(enc);
          rec.insts_functional = static_cast<double>(t.insts_functional);
          rec.insts_detailed = static_cast<double>(t.insts_detailed);
          rec.wall_functional = t.wall_secs_functional;
          rec.wall_detailed = t.wall_secs_detailed;
          rec.ci_half_pct = 100.0 * ratio(t.cpi_ci_half, t.cpi_mean);
          rec.ok = rec.result.check_ok;
          if (!rec.ok) rec.error = "workload check failed";
          ScopedSpan s(tracer, "svc.put", point.id(), id);
          store.put(hashes[i], specs[i], rec.result,
                    seconds_between(t0, Clock::now()) - rec.start);
        } catch (const std::exception& e) {
          rec.ok = false;
          rec.error = e.what();
        }
      }
      rec.end = seconds_between(t0, Clock::now());
    }
    pass.pool_end = seconds_between(t0, Clock::now());
    // Warm serve: every completed point must come back bit-identical.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      PointRecord& rec = pass.points[i];
      if (!rec.ok) continue;
      ScopedSpan s(tracer, "svc.lookup", span.id(), i + 1);
      sim::RunResult served;
      if (store.lookup(hashes[i], specs[i], &served) &&
          same_result(served, rec.result)) {
        ++pass.store_hits;
      } else {
        rec.ok = false;
        rec.error = "result store lookup missed or differed";
      }
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.stream = sim::StreamCache::instance().stats();
  for (const auto& entry : fs::recursive_directory_iterator(store_dir)) {
    if (entry.is_regular_file()) {
      pass.store_bytes += static_cast<double>(entry.file_size());
    }
  }
  fs::remove_all(store_dir);
  std::vector<u64> digests;
  for (const PointRecord& p : pass.points) digests.push_back(p.digest);
  pass.digest = digest_of(digests);
  return pass;
}

/// Set-up pass: construct (and drop) every point's System serially,
/// timing the constructor alone. Returns per-point seconds.
std::vector<double> setup_pass(const std::vector<sim::RunSpec>& specs,
                               Tracer& tracer) {
  std::vector<double> out;
  ScopedSpan span(tracer, "setup.pass", -1, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::RunSpec& spec = specs[i];
    const workloads::Workload& w = workloads::find_workload(spec.workload);
    const sim::SystemConfig config = sim::build_config(spec);
    const int id = tracer.begin("setup.ctor", span.id(), i + 1);
    const Clock::time_point t0 = Clock::now();
    auto system = std::make_unique<sim::System>(config, w, spec.params);
    out.push_back(seconds_between(t0, Clock::now()));
    tracer.end(id);
  }
  return out;
}

// ------------------------------------------------- isolated drivers

volatile u64 g_sink = 0;

/// Median ns per ViReCManager::on_decode + on_commit pair, replaying the
/// kernel's own instructions round-robin over its threads on the
/// register configuration of @p spec (5 repetitions).
double decode_ns(const sim::RunSpec& spec, u32 ops) {
  const workloads::Workload& w = workloads::find_workload(spec.workload);
  const sim::SystemConfig config = sim::build_config(spec);
  const kasm::Program program = w.program(spec.params);
  const std::vector<isa::Inst>& code = program.code();
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    mem::MemorySystem ms(config.mem);
    const cpu::CoreEnv env{.core_id = 0,
                           .num_threads = spec.threads_per_core,
                           .ms = &ms};
    core::ViReCManager manager(config.virec, env);
    Cycle now = 0;
    int tid = 0;
    std::size_t pc = 0;
    u64 sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (u32 i = 0; i < ops; ++i) {
      const isa::Inst& inst = code[pc];
      const cpu::DecodeAccess acc = manager.on_decode(tid, inst, now);
      manager.on_commit(tid, inst);
      now = acc.ready + 1;
      sink += acc.ready;
      if (++pc == code.size()) pc = 0;
      if ((i & 7) == 7) {
        tid = (tid + 1) % static_cast<int>(spec.threads_per_core);
      }
    }
    reps.push_back(1e9 * seconds_between(t0, Clock::now()) / ops);
    g_sink = g_sink + sink;
  }
  return median(reps);
}

/// Median ns per Cache::access on the dcache of @p spec's memory
/// system: alternating hits in a 4 KiB hot region and seeded random
/// accesses over the workload's data array (5 repetitions).
double cache_access_ns(const sim::RunSpec& spec, u32 ops) {
  const sim::SystemConfig config = sim::build_config(spec);
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    mem::MemorySystem ms(config.mem);
    mem::Cache& dcache = ms.dcache(0);
    u64 x = spec.params.seed * 0x9E3779B97F4A7C15ull + 1;
    Cycle now = 0;
    const Clock::time_point t0 = Clock::now();
    for (u32 i = 0; i < ops; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const Addr addr =
          (i & 1) ? workloads::layout::kArrayB + (x % 64) * 64
                  : workloads::layout::kArrayA + (x % spec.params.elements) * 8;
      now = dcache.access(addr, (x & 15) == 0, now).done;
    }
    reps.push_back(1e9 * seconds_between(t0, Clock::now()) / ops);
    g_sink = g_sink + now;
  }
  return median(reps);
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m) {
  std::printf("metric %-32s %14.6g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

u64 sum_insts(const PassResult& p) {
  u64 n = 0;
  for (const PointRecord& r : p.points) n += r.result.instructions;
  return n;
}

/// End-to-end metrics over the untraced passes.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               const std::vector<double>& setup_sums,
                               bool report_tail) {
  const std::size_t n_points = passes.front().points.size();
  std::vector<double> wall, cpu, rate;
  std::vector<std::vector<double>> per_point(n_points);
  for (const PassResult& p : passes) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    rate.push_back(ratio(static_cast<double>(sum_insts(p)), p.wall_s) / 1e6);
    for (std::size_t i = 0; i < n_points; ++i) {
      per_point[i].push_back(p.points[i].end - p.points[i].start);
    }
  }
  // Each point's latency is its median over the passes; the
  // percentiles are taken over the points.
  std::vector<double> latency;
  for (const std::vector<double>& v : per_point) latency.push_back(median(v));
  const double p90 = percentile(latency, 0.9);
  if (report_tail) {
    std::size_t beyond = 0;
    for (const double l : latency) beyond += l > p90 ? 1 : 0;
    std::printf("point latency: %zu points (each the median of %zu passes), "
                "%zu beyond p90%s\n",
                latency.size(), passes.size(), beyond,
                beyond < 10 ? " (fewer than 10: p90 is indicative only)" : "");
  }
  return {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"setup_s", median(setup_sums), "s"},
      {"sim_minst_per_s", median(rate), "Minst/s"},
      {"points_per_s", static_cast<double>(n_points) / median(wall), "1/s"},
      {"point_p50_s", median(latency), "s"},
      {"point_p90_s", p90, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Per-layer metrics of one traced pass (simulated counters are exact
/// and identical in every pass; host times are medians across passes).
std::map<std::string, double> layer_metrics(const PassResult& p,
                                            const LayerTimes& lt) {
  std::map<std::string, double> m;
  auto self = [&](const char* name) {
    auto it = lt.self_s.find(name);
    return it == lt.self_s.end() ? 0.0 : it->second;
  };
  auto p50_us = [&](const char* name) {
    auto it = lt.durations.find(name);
    return it == lt.durations.end() ? 0.0 : 1e6 * median(it->second);
  };
  double cycles = 0.0, insts = 0.0, busy = 0.0, switches = 0.0;
  double fills = 0.0, spills = 0.0, stack_total = 0.0;
  std::array<double, kNumCycleBuckets> stack{};
  Counters c;
  std::map<std::thread::id, double> last_end;
  const bool sampled = p.stream.built + p.stream.mem_hits > 0;
  for (const PointRecord& r : p.points) {
    cycles += static_cast<double>(r.result.cycles);
    insts += static_cast<double>(r.result.instructions);
    busy += r.end - r.start;
    switches += static_cast<double>(r.result.context_switches);
    fills += static_cast<double>(r.result.rf_fills);
    spills += static_cast<double>(r.result.rf_spills);
    c.add(r.counters);
    last_end[r.worker] = std::max(last_end[r.worker], r.end);
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      stack[b] += sampled ? r.window_stack[b] : r.result.cpi_stack[b];
    }
  }
  double first_idle = p.pool_end;
  for (const auto& [worker, end] : last_end) first_idle = std::min(first_idle, end);
  // Sampled points measure CPI over their detailed windows only.
  double stack_insts = insts;
  if (sampled) {
    stack_insts = 0.0;
    for (const PointRecord& r : p.points) stack_insts += r.window_insts;
  }
  for (const double s : stack) stack_total += s;

  m["sim.run_s"] = self("sim.run");
  m["sim.run_ns_per_cycle"] = 1e9 * ratio(self("sim.run"), cycles);
  m["sim.run_ns_per_inst"] = 1e9 * ratio(self("sim.run"), insts);
  m["sim.worker_busy_frac"] = ratio(busy, p.workers * p.wall_s);
  m["sim.tail_idle_s"] = p.pool_end - first_idle;
  m["setup.ctor_s"] = self("setup.ctor");
  m["cpu.cpi"] = ratio(stack_total, stack_insts);
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    m[std::string("cpu.cpi.") + cycle_bucket_name(static_cast<CycleBucket>(b))] =
        ratio(stack[b], stack_insts);
  }
  m["cpu.switches_per_kinst"] = 1e3 * ratio(switches, insts);
  m["cpu.mispredicts_per_kinst"] = 1e3 * ratio(c.mispredicts, insts);
  m["core.rf_fills_per_kinst"] = 1e3 * ratio(fills, insts);
  m["core.rf_spills_per_kinst"] = 1e3 * ratio(spills, insts);
  if (sampled) {
    // Registry counters are not reachable through run_spec_tiered;
    // the register-file hit rate comes from the results instead.
    std::vector<double> hit;
    for (const PointRecord& r : p.points) {
      if (r.result.rf_hit_rate < 1.0) hit.push_back(r.result.rf_hit_rate);
    }
    m["core.rf_hit_rate"] = hit.empty() ? 1.0 : median(hit);
  } else {
    m["core.rf_hit_rate"] = c.rf_hits + c.rf_misses == 0.0
                                ? 1.0
                                : c.rf_hits / (c.rf_hits + c.rf_misses);
  }
  m["mem.dcache_accesses_per_inst"] = ratio(c.dcache_accesses, insts);
  m["mem.dcache_miss_rate"] = ratio(c.dcache_misses, c.dcache_accesses);
  m["mem.dram_per_kinst"] = 1e3 * ratio(c.dram_accesses, insts);
  m["mem.dram_row_hit_rate"] = ratio(c.dram_row_hits, c.dram_row_total);
  m["mem.xbar_transfers_per_kinst"] = 1e3 * ratio(c.xbar_transfers, insts);

  // Tiered layer: the first point builds the stream; the rest replay it.
  double replay_insts = 0.0, replay_wall = 0.0, det_insts = 0.0,
         det_wall = 0.0;
  std::vector<double> ci;
  for (std::size_t i = 0; i < p.points.size(); ++i) {
    const PointRecord& r = p.points[i];
    if (i > 0) {
      replay_insts += r.insts_functional;
      replay_wall += r.wall_functional;
    }
    det_insts += r.insts_detailed;
    det_wall += r.wall_detailed;
    if (sampled) ci.push_back(r.ci_half_pct);
  }
  const double replay_rate = ratio(replay_insts, replay_wall);
  const PointRecord& first = p.points.front();
  m["tiered.run_s"] = self("tiered.run_spec_tiered");
  m["tiered.stream_build_s"] =
      sampled ? std::max(0.0, first.wall_functional -
                                  ratio(first.insts_functional, replay_rate))
              : 0.0;
  m["tiered.replay_minst_per_s"] = replay_rate / 1e6;
  m["tiered.detailed_minst_per_s"] = ratio(det_insts, det_wall) / 1e6;
  m["tiered.stream_reuse_frac"] =
      ratio(static_cast<double>(p.stream.mem_hits),
            static_cast<double>(p.stream.built + p.stream.mem_hits));
  m["tiered.ci_half_pct"] = median(ci);

  m["svc.io_s"] = self("svc.put") + self("svc.lookup");
  m["svc.put_us_p50"] = p50_us("svc.put");
  m["svc.lookup_us_p50"] = p50_us("svc.lookup");
  m["svc.warm_hit_frac"] =
      sampled ? ratio(static_cast<double>(p.store_hits),
                      static_cast<double>(p.points.size()))
              : 0.0;
  m["svc.store_kib"] = p.store_bytes / 1024.0;
  return m;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        {"sim.run_s", "s"},
        {"sim.run_ns_per_cycle", "ns"},
        {"sim.run_ns_per_inst", "ns"},
        {"sim.worker_busy_frac", "frac"},
        {"sim.tail_idle_s", "s"},
        {"setup.ctor_s", "s"},
        {"setup.ctor_ms_p50", "ms"},
        {"setup.ctor_ms_max", "ms"},
        {"cpu.cpi", "cycles/inst"},
        {"cpu.switches_per_kinst", "1/kinst"},
        {"cpu.mispredicts_per_kinst", "1/kinst"},
        {"core.rf_hit_rate", "frac"},
        {"core.rf_fills_per_kinst", "1/kinst"},
        {"core.rf_spills_per_kinst", "1/kinst"},
        {"core.decode_ns", "ns"},
        {"mem.dcache_accesses_per_inst", "1/inst"},
        {"mem.dcache_miss_rate", "frac"},
        {"mem.dram_per_kinst", "1/kinst"},
        {"mem.dram_row_hit_rate", "frac"},
        {"mem.xbar_transfers_per_kinst", "1/kinst"},
        {"mem.cache_access_ns", "ns"},
        {"tiered.run_s", "s"},
        {"tiered.stream_build_s", "s"},
        {"tiered.replay_minst_per_s", "Minst/s"},
        {"tiered.detailed_minst_per_s", "Minst/s"},
        {"tiered.stream_reuse_frac", "frac"},
        {"tiered.ci_half_pct", "%"},
        {"svc.io_s", "s"},
        {"svc.put_us_p50", "us"},
        {"svc.lookup_us_p50", "us"},
        {"svc.warm_hit_frac", "frac"},
        {"svc.store_kib", "KiB"},
        {"trace.overhead_s", "s"},
    };
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      u[std::string("cpu.cpi.") +
        cycle_bucket_name(static_cast<CycleBucket>(b))] = "cycles/inst";
    }
    return u;
  }();
  return units;
}

/// Figure 9 cells beside the paper's quoted values. Informational and
/// never gated: the timing model is unvalidated against hardware.
void print_paper_reference(const std::vector<sim::RunSpec>& specs,
                           const PassResult& pass) {
  std::map<std::string, const PointRecord*> by_key;
  auto key = [](const std::string& w, sim::Scheme s, u32 t, double f) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s/%d/%u/%.2f", w.c_str(),
                  static_cast<int>(s), t, f);
    return std::string(buf);
  };
  Counters triad;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sim::RunSpec& s = specs[i];
    by_key[key(s.workload, s.scheme, s.threads_per_core, s.context_fraction)] =
        &pass.points[i];
    if (s.workload == "triad") triad.add(pass.points[i].counters);
  }
  std::printf(
      "\npaper reference (Figure 9; informational, never gated). The timing\n"
      "model is unvalidated against hardware, so no error figure is given.\n"
      "Drop = 1 - geomean(banked cycles / scheme cycles) over the 8 kernels;\n"
      "rel = geomean performance relative to banked.\n");
  std::printf("%-8s %-18s %-12s %-18s %-10s %-14s %-12s\n", "threads",
              "virec80 drop", "virec60 drop", "virec40 drop", "nsf80 rel",
              "pf-exact80 rel", "pf-full80 rel");
  const std::array<std::array<const char*, 2>, 3> paper = {
      {{"4.4%", "10.7%"}, {"7.1%", "17.6%"}, {"10.0%", "22.1%"}}};
  int row = 0;
  for (const u32 t : {4u, 6u, 8u}) {
    auto geo = [&](sim::Scheme scheme, double f) {
      std::vector<double> rel;
      for (const workloads::Workload* w : workloads::figure_workloads()) {
        const PointRecord* b = by_key[key(w->name(), sim::Scheme::kBanked, t, 1.0)];
        const PointRecord* x = by_key[key(w->name(), scheme, t, f)];
        if (b == nullptr || x == nullptr || x->result.cycles == 0) return 0.0;
        rel.push_back(static_cast<double>(b->result.cycles) /
                      static_cast<double>(x->result.cycles));
      }
      return geomean(rel);
    };
    char v80[32], v60[32], v40[32];
    std::snprintf(v80, sizeof v80, "%.1f%% (%s)",
                  100.0 * (1.0 - geo(sim::Scheme::kViReC, 0.8)), paper[row][0]);
    std::snprintf(v60, sizeof v60, "%.1f%%",
                  100.0 * (1.0 - geo(sim::Scheme::kViReC, 0.6)));
    std::snprintf(v40, sizeof v40, "%.1f%% (%s)",
                  100.0 * (1.0 - geo(sim::Scheme::kViReC, 0.4)), paper[row][1]);
    std::printf("%-8u %-18s %-12s %-18s %-10.3f %-14.3f %-12.3f\n", t, v80, v60,
                v40, geo(sim::Scheme::kNSF, 0.8),
                geo(sim::Scheme::kPrefetchExact, 0.8),
                geo(sim::Scheme::kPrefetchFull, 0.8));
    ++row;
  }
  std::printf("triad mem.dram_row_hit_rate = %.4f over its 21 points\n\n",
              ratio(triad.dram_row_hits, triad.dram_row_total));
}

void print_json(bool correct, u64 attempted, u64 failed, u64 digest,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"digest\": \"%016" PRIx64
              "\", \"metrics\": {",
              correct ? "true" : "false", attempted, failed, digest);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  const Sizing sz = opt.smoke ? Sizing::smoke() : Sizing{};
  std::vector<sim::RunSpec> specs;
  switch (opt.kind) {
    case Kind::kFigureGrid: specs = figure_grid(sz, opt.seed); break;
    case Kind::kManycore: specs = manycore_grid(sz, opt.seed); break;
    case Kind::kSampledStore: specs = sampled_grid(sz, opt.seed); break;
  }
  const u32 cpus = host_cpus();
  const u32 jobs = opt.kind == Kind::kFigureGrid
                       ? std::min<u32>(cpus, static_cast<u32>(specs.size()))
                       : 1;

  std::printf("# virec-bench %s\n", build::provenance().c_str());
  std::printf("# nproc=%u workers=%u workload=%s seed=%" PRIu64
              " seconds=%g trace=%d sizing=%s%s points=%zu\n",
              cpus, jobs, opt.workload.c_str(), opt.seed, opt.seconds,
              opt.trace ? 1 : 0, opt.smoke ? "smoke " : "",
              sz.describe().c_str(), specs.size());
  std::fflush(stdout);

  Tracer tracer(opt.trace);
  Tracer untraced(false);

  // Set-up: every point's System constructor, several times; the
  // median of the per-pass sums is setup_s.
  std::vector<double> setup_sums, ctor_ms;
  const Clock::time_point setup_t0 = Clock::now();
  while (setup_sums.size() < 3 ||
         (seconds_between(setup_t0, Clock::now()) < sz.min_setup_s &&
          setup_sums.size() < 200)) {
    const std::vector<double> ctor = setup_pass(specs, tracer);
    double sum = 0.0;
    for (const double s : ctor) {
      sum += s;
      ctor_ms.push_back(1e3 * s);
    }
    setup_sums.push_back(sum);
  }

  // Timed passes; with --trace 1 every other pass is traced.
  std::vector<PassResult> plain, traced;
  std::vector<std::map<std::string, double>> layers;
  std::map<std::string, double> split;  // self time by span, traced passes
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_passes = opt.trace ? 4 : 2;
  for (std::size_t i = 0;; ++i) {
    const bool trace_pass = opt.trace && i % 2 == 1;
    Tracer& tr = trace_pass ? tracer : untraced;
    const std::size_t first_span = tracer.snapshot().size();
    PassResult pass = opt.kind == Kind::kSampledStore
                          ? run_sampled_pass(specs, opt.store_dir, tr)
                          : run_detailed_pass(specs, jobs, tr);
    std::printf("pass %zu%s: wall %.4f s, cpu %.4f s, digest %016" PRIx64 "\n",
                i, trace_pass ? " (traced)" : "", pass.wall_s, pass.cpu_s,
                pass.digest);
    std::fflush(stdout);
    if (trace_pass) {
      const LayerTimes lt = layer_times(tracer.snapshot(), first_span);
      for (const auto& [name, s] : lt.self_s) split[name] += s;
      layers.push_back(layer_metrics(pass, lt));
      traced.push_back(std::move(pass));
    } else {
      plain.push_back(std::move(pass));
    }
    // Start another pass only if it is expected to end within
    // --seconds, so a run lasts about --seconds, not --seconds plus a
    // pass.
    const double elapsed = seconds_between(t0, Clock::now());
    if (i + 1 >= min_passes &&
        elapsed * static_cast<double>(i + 2) / static_cast<double>(i + 1) >
            opt.seconds) {
      break;
    }
  }

  // Correctness: every point's checker, one digest across all passes.
  u64 attempted = 0, failed = 0;
  bool digests_agree = true;
  const u64 digest = plain.front().digest;
  for (const std::vector<PassResult>* set : {&plain, &traced}) {
    for (const PassResult& pass : *set) {
      digests_agree = digests_agree && pass.digest == digest;
      for (std::size_t i = 0; i < pass.points.size(); ++i) {
        ++attempted;
        if (!pass.points[i].ok) {
          ++failed;
          std::printf("FAILED point %s: %s\n",
                      sim::spec_label(specs[i]).c_str(),
                      pass.points[i].error.c_str());
        }
      }
    }
  }
  if (!digests_agree) {
    std::printf("FAILED: simulated-statistics digest differs between passes\n");
  }
  std::printf("fail_frac = %.6g (%" PRIu64 " of %" PRIu64 " points)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);
  std::printf("digest %016" PRIx64 "\n", digest);

  if (opt.kind == Kind::kFigureGrid) print_paper_reference(specs, plain.front());

  const std::vector<Metric> e2e = end_to_end(plain, setup_sums, !opt.trace);
  std::vector<Metric> out;
  if (!opt.trace) {
    out = e2e;
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const auto& m : layers) {
      for (const auto& [name, v] : m) samples[name].push_back(v);
    }
    std::map<std::string, double> values;
    for (const auto& [name, v] : samples) values[name] = median(v);
    values["setup.ctor_ms_p50"] = percentile(ctor_ms, 0.5);
    values["setup.ctor_ms_max"] = *std::max_element(ctor_ms.begin(), ctor_ms.end());
    // Isolated per-call drivers on the workload's register and memory
    // configuration: ViReC at ctx 0.8, 8 threads, one kernel at a time.
    std::vector<std::string> kernels;
    for (const sim::RunSpec& s : specs) {
      if (std::find(kernels.begin(), kernels.end(), s.workload) == kernels.end()) {
        kernels.push_back(s.workload);
      }
    }
    std::vector<double> dec;
    for (const std::string& k : kernels) {
      sim::RunSpec s = base_spec(k, 64, opt.seed);
      s.scheme = sim::Scheme::kViReC;
      s.context_fraction = 0.8;
      dec.push_back(decode_ns(s, sz.decode_ops));
    }
    values["core.decode_ns"] = mean(dec);
    values["mem.cache_access_ns"] =
        cache_access_ns(base_spec(kernels.front(), 64, opt.seed), sz.decode_ops);
    std::vector<double> traced_wall;
    for (const PassResult& p : traced) traced_wall.push_back(p.wall_s);
    values["trace.overhead_s"] = median(traced_wall) - e2e.front().value;
    std::printf("tracing overhead = %.6f s (traced wall_s %.6f - untraced "
                "wall_s %.6f, medians of %zu and %zu passes)\n",
                values["trace.overhead_s"], median(traced_wall),
                e2e.front().value, traced.size(), plain.size());
    // Where host time went: self time per span, summed over the traced
    // passes, as a share of their summed span time (worker time, so a
    // pool of N workers sums to about N x wall).
    double split_total = 0.0;
    for (const auto& [name, s] : split) split_total += s;
    std::printf("layer split of %zu traced passes (self time, share):\n",
                traced.size());
    for (const auto& [name, s] : split) {
      std::printf("  %-26s %10.4f s %6.1f%%\n", name.c_str(), s,
                  100.0 * ratio(s, split_total));
    }
    for (const auto& [name, unit] : layer_units()) {
      out.push_back({name, values.count(name) ? values[name] : 0.0, unit});
    }
    if (!opt.trace_out.empty() && !tracer.write_chrome(opt.trace_out)) {
      std::fprintf(stderr, "virec-bench: cannot write %s\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  std::printf("\n%s metrics (%s):\n", opt.workload.c_str(),
              opt.trace ? "per-layer, traced run" : "end-to-end, untraced");
  for (const Metric& m : out) print_metric(m);
  print_json(failed == 0 && digests_agree, attempted, failed, digest, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "virec-bench: %s\n", e.what());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "virec-bench: %s\n", e.what());
    return 1;
  }
}

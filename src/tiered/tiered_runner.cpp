#include "tiered/tiered_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ckpt/spec_codec.hpp"

namespace virec::sim {

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Two-sided 95% Student-t quantile (df = n-1): a table for small window
// counts, then the four-term Cornish-Fisher expansion around the normal
// quantile (Abramowitz & Stegun 26.7.5), which is within 1e-6 of
// Student-t above df 20 and converges to the normal 1.96 the
// sampled-simulation literature quotes.
double t_quantile_95(std::size_t df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086};
  if (df == 0) return 12.706;
  if (df <= 20) return kTable[df - 1];
  constexpr double z = 1.959963984540054;  // normal 97.5% quantile
  constexpr double z2 = z * z;
  constexpr double g1 = z * (z2 + 1) / 4;
  constexpr double g2 = z * ((5 * z2 + 16) * z2 + 3) / 96;
  constexpr double g3 = z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384;
  constexpr double g4 =
      z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160;
  const double v = static_cast<double>(df);
  return z + (g1 + (g2 + (g3 + g4 / v) / v) / v) / v;
}

}  // namespace

TieredRunner::TieredRunner(System& system, const RunSpec& spec)
    : sys_(system), spec_(spec) {
  validate(spec_);
  if (spec_.sample_windows == 0) {
    throw std::invalid_argument(
        "TieredRunner: nothing to run (no sample windows)");
  }
}

void TieredRunner::set_progress(std::function<void(const TieredProgress&)> fn,
                                double every_secs) {
  progress_ = std::move(fn);
  progress_every_secs_ = every_secs;
}

u64 TieredRunner::cpi_scale() const {
  if (insts_detailed_ == 0) return 1;
  return std::max<u64>(1, (cycles_detailed_ + insts_detailed_ / 2) /
                              insts_detailed_);
}

void TieredRunner::replay_advance(u64 target) {
  cpu::CgmtCore& core = sys_.core(0);
  if (target > n_total_) target = n_total_;
  if (replayer_->pos() >= target && !detached_) return;
  if (!detached_) {
    core.cut_to_functional();
    detached_ = true;
  }
  Cycle wc = core.cycle();
  const u64 scale = cpi_scale();
  double last = now_secs();
  while (replayer_->pos() < target) {
    const u64 before = replayer_->pos();
    const u64 chunk = std::min<u64>(target - before, u64{1} << 16);
    wc = replayer_->advance(before + chunk, core, sys_.manager(0),
                            sys_.memory_system(), sys_.check(), wc, scale);
    const u64 ran = replayer_->pos() - before;
    if (ran == 0) break;  // defensive: target <= n_total implies progress
    insts_functional_ += ran;
    pending_functional_ += ran;
    const double t = now_secs();
    wall_functional_ += t - last;
    last = t;
    emit_progress("functional", false);
  }
  pending_functional_ = 0;
  // A reverted probe's committed instructions are already in the core's
  // count (probes execute real golden instructions; only their
  // architectural side effects were reverted), so credit the replay
  // with the difference that lands the commit count on target.
  const u64 committed = sys_.total_instructions();
  core.resume_from_functional(wc, target > committed ? target - committed : 0);
  detached_ = false;
}

void TieredRunner::begin_probe() {
  if (sys_.check() != nullptr) sys_.check()->set_enabled(false);
  cpu::ContextManager& rcm = sys_.manager(0);
  cpu::CgmtCore& core = sys_.core(0);
  const u32 total = sys_.total_threads();
  probe_regs_.assign(total, {});
  probe_launched_.assign(total, 0);
  for (u32 tid = 0; tid < total; ++tid) {
    // Pre-launch threads have no meaningful on-chip register state —
    // their architectural values live in the context region the memory
    // journal reverts; snapshot only launched threads.
    if (!core.thread_launched(static_cast<int>(tid))) continue;
    probe_launched_[tid] = 1;
    for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
      probe_regs_[tid][r] =
          rcm.read_reg(static_cast<int>(tid), static_cast<isa::RegId>(r));
    }
  }
  probe_threads_ = core.probe_snapshot();
  sys_.memory_system().memory().journal_begin();
}

void TieredRunner::end_probe() {
  cpu::CgmtCore& core = sys_.core(0);
  // Cut FIRST: squashing the probe's in-flight instructions computes
  // resume PCs from the pipeline latches, which must happen before the
  // golden PCs are restored underneath it.
  core.cut_to_functional();
  detached_ = true;
  sys_.memory_system().memory().journal_rollback();
  // Registers after memory: backing-store values live in the context
  // regions the rollback just restored; the diff-write then fixes the
  // on-chip resident copies through the scheme's canonical write path.
  // Threads the probe itself launched (launch flags are sticky; the
  // replay's launch guard will skip them) are reverted to their initial
  // context image instead — at snapshot time their architectural state
  // was the context region, not the unfetched on-chip storage.
  cpu::ContextManager& rcm = sys_.manager(0);
  mem::MemorySystem& ms = sys_.memory_system();
  for (u32 tid = 0; tid < probe_regs_.size(); ++tid) {
    if (!core.thread_launched(static_cast<int>(tid))) continue;
    for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
      const u64 want = probe_launched_[tid] != 0
                           ? probe_regs_[tid][r]
                           : ms.memory().read(ms.reg_addr(0, tid, r), 8);
      const auto reg = static_cast<isa::RegId>(r);
      if (rcm.read_reg(static_cast<int>(tid), reg) != want) {
        rcm.write_reg(static_cast<int>(tid), reg, want);
      }
    }
  }
  core.probe_restore(probe_threads_);
  if (sys_.check() != nullptr) sys_.check()->set_enabled(true);
}

void TieredRunner::run_detailed(u64 insts) {
  // Single-core: validate() rejects sampling on more cores.
  cpu::CgmtCore& core = sys_.core(0);
  if (insts == 0 || core.done()) return;
  const double t0 = now_secs();
  const u64 before = sys_.total_instructions();
  const Cycle c0 = core.cycle();
  core.run_insts(insts);
  insts_detailed_ += sys_.total_instructions() - before;
  cycles_detailed_ += core.cycle() - c0;
  wall_detailed_ += now_secs() - t0;
  emit_progress("detailed", false);
}

void TieredRunner::emit_progress(const char* tier, bool force) {
  if (!progress_) return;
  const double now = now_secs();
  if (!force && now < next_emit_wall_) return;
  next_emit_wall_ = now + progress_every_secs_;
  TieredProgress p;
  p.tier = tier;
  p.insts_done = sys_.total_instructions() + pending_functional_;
  p.insts_total = n_total_;
  p.window = window_;
  p.windows = spec_.sample_windows;
  p.wall_secs = now - wall_start_;
  // Instruction-based ETA with one measured rate per tier: the plan
  // splits the remaining instructions into detailed (unfinished
  // windows' warm-up + measurement) and functional (everything else).
  const double f_rate = wall_functional_ > 0.0
                            ? static_cast<double>(insts_functional_) /
                                  wall_functional_
                            : 0.0;
  const double d_rate = wall_detailed_ > 0.0
                            ? static_cast<double>(insts_detailed_) /
                                  wall_detailed_
                            : 0.0;
  const u64 rem_total =
      n_total_ > p.insts_done ? n_total_ - p.insts_done : 0;
  const u64 windows_left =
      spec_.sample_windows > window_ ? spec_.sample_windows - window_ : 0;
  const u64 rem_detailed = std::min<u64>(
      rem_total,
      static_cast<u64>(windows_left) *
          (spec_.warmup_insts + spec_.window_insts));
  const u64 rem_functional = rem_total - rem_detailed;
  double eta = 0.0;
  if (f_rate > 0.0) {
    eta += static_cast<double>(rem_functional) / f_rate;
  } else if (d_rate > 0.0) {
    eta += static_cast<double>(rem_functional) / d_rate;
  }
  if (d_rate > 0.0) {
    eta += static_cast<double>(rem_detailed) / d_rate;
  } else if (f_rate > 0.0 && rem_detailed > 0) {
    // No detailed rate measured yet: a detailed window runs orders of
    // magnitude slower than the functional tier; leave its share out
    // rather than fabricate a rate (the ETA firms up after window 1).
  }
  p.eta_secs = eta;
  progress_(p);
}

void TieredRunner::finalize(TieredResult& r) {
  r.full = sys_.make_result();
  r.total_insts = n_total_;
  r.windows = windows_;
  r.insts_functional = insts_functional_;
  r.insts_detailed = insts_detailed_;
  r.wall_secs_functional = wall_functional_;
  r.wall_secs_detailed = wall_detailed_;
  const std::size_t n = windows_.size();
  if (n == 0) return;
  double sum = 0.0;
  for (const WindowStat& w : windows_) sum += w.cpi;
  const double mean = sum / static_cast<double>(n);
  double half = 0.0;
  if (n >= 2) {
    double var = 0.0;
    for (const WindowStat& w : windows_) {
      var += (w.cpi - mean) * (w.cpi - mean);
    }
    var /= static_cast<double>(n - 1);
    half = t_quantile_95(n - 1) * std::sqrt(var / static_cast<double>(n));
  }
  r.cpi_mean = mean;
  r.cpi_ci_half = half;
  // Stratified estimate: exact cycles for every detailed instruction
  // (pilot + warm-ups + windows — this is what captures the cold-start
  // transient), windowed CPI extrapolated over the functional spans
  // only. The interval maps the CPI interval through the same sum.
  const double detailed = static_cast<double>(cycles_detailed_);
  const double func_insts = static_cast<double>(
      n_total_ - std::min<u64>(n_total_, insts_detailed_));
  r.est_cycles = detailed + mean * func_insts;
  const double total = static_cast<double>(n_total_);
  r.est_ipc = r.est_cycles > 0.0 ? total / r.est_cycles : 0.0;
  const double hi_cycles = detailed + (mean + half) * func_insts;
  r.est_ipc_lo = hi_cycles > 0.0 ? total / hi_cycles : 0.0;
  const double lo_cycles = detailed + (mean - half) * func_insts;
  r.est_ipc_hi = lo_cycles > 0.0 ? total / lo_cycles
                                 : std::numeric_limits<double>::infinity();
}

TieredResult TieredRunner::run() {
  wall_start_ = now_secs();
  next_emit_wall_ = wall_start_ + progress_every_secs_;
  TieredResult r;
  cpu::CgmtCore& core = sys_.core(0);
  // Acquire the (possibly sweep-shared) functional stream — recording
  // it fixes the total instruction count — then alternate replayed
  // functional stretches with reverted detailed probes.
  emit_progress("prepass", false);
  const double t0 = now_secs();
  stream_ = StreamCache::instance().acquire(
      ckpt::functional_stream_hash(spec_), sys_);
  replayer_ = std::make_unique<FuncStreamReplayer>(stream_, sys_.program(),
                                                   sys_.total_threads());
  wall_functional_ += now_secs() - t0;
  n_total_ = stream_->n_total;
  const u64 wk = spec_.warmup_insts + spec_.window_insts;
  const u32 n = spec_.sample_windows;
  if (static_cast<u64>(n) * wk > n_total_) {
    throw std::invalid_argument(
        "TieredRunner: " + std::to_string(n) + " windows of " +
        std::to_string(wk) +
        " instructions (warm-up + measured) exceed the workload's " +
        std::to_string(n_total_) +
        " total instructions; shrink --sample-windows, --window-insts or "
        "--warmup-insts");
  }
  const u64 spacing = n_total_ / n;
  // Detailed pilot: the first replayed stretch needs a CPI estimate
  // (warm-clock scale) and observed miss latencies (warm-fill recency
  // bias) to warm state faithfully, so burn one window-equivalent of
  // detailed execution at the start. Like every probe it is reverted —
  // the replay below re-executes the same golden positions — but its
  // warm state and CPI carry forward.
  const u64 first_start = spacing > wk ? (spacing - wk) / 2 : 0;
  const u64 pilot = std::min(wk, first_start);
  if (pilot > 0 && !core.done()) {
    begin_probe();
    run_detailed(pilot);
    end_probe();
  }
  while (window_ < n) {
    // Systematic placement: window i's detailed stretch is centred in
    // its stratum [i*spacing, (i+1)*spacing).
    const u64 detail_start = static_cast<u64>(window_) * spacing +
                             (spacing > wk ? (spacing - wk) / 2 : 0);
    replay_advance(detail_start);
    begin_probe();
    run_detailed(spec_.warmup_insts);
    WindowStat w;
    w.start_inst = sys_.total_instructions();
    const Cycle c0 = core.cycle();
    std::array<double, kNumCycleBuckets> s0{};
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      s0[b] = sys_.cpi_bucket_cycles(static_cast<CycleBucket>(b));
    }
    run_detailed(spec_.window_insts);
    w.insts = sys_.total_instructions() - w.start_inst;
    w.cycles = core.cycle() - c0;
    for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
      w.cpi_stack[b] =
          sys_.cpi_bucket_cycles(static_cast<CycleBucket>(b)) - s0[b];
    }
    end_probe();
    if (w.insts > 0) {
      w.cpi = static_cast<double>(w.cycles) / static_cast<double>(w.insts);
      windows_.push_back(w);
    }
    ++window_;
  }
  replay_advance(n_total_);
  emit_progress("functional", true);
  finalize(r);
  return r;
}

}  // namespace virec::sim

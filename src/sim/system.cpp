#include "sim/system.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "ckpt/spec_codec.hpp"

namespace virec::sim {

namespace {

// With a heartbeat attached, a scheduler turn stops stepping after this
// many cycles, so a single-core run still yields turns to count.
constexpr Cycle kHeartbeatSlice = 1024;

}  // namespace

System::System(const SystemConfig& config, const workloads::Workload& workload,
               const workloads::WorkloadParams& params)
    : config_(config),
      workload_(workload),
      params_(params),
      program_(workload.program(params)) {
  params_.validate();
  config_.mem.num_cores = config_.num_cores;
  config_.core.num_threads = config_.threads_per_core;
  ms_ = std::make_unique<mem::MemorySystem>(config_.mem);

  for (u32 c = 0; c < config_.num_cores; ++c) {
    cpu::CoreEnv env{.core_id = c,
                     .num_threads = config_.threads_per_core,
                     .ms = ms_.get()};
    managers_.push_back(
        make_context_manager(config_.scheme, config_.virec, env));
    cores_.push_back(std::make_unique<cpu::CgmtCore>(config_.core, env,
                                                     *managers_.back(),
                                                     program_));
  }

  workload_.init_memory(ms_->memory(), params_, total_threads());
  offload_contexts();
  build_registry();
}

void System::build_registry() {
  for (u32 c = 0; c < config_.num_cores; ++c) {
    const std::string path = "core" + std::to_string(c);
    registry_.add(path, cores_[c]->stats());
    registry_.add(path, managers_[c]->stats());
    registry_.add(path, ms_->icache(c).stats());
    registry_.add(path, ms_->dcache(c).stats());
  }
  if (ms_->has_l2()) registry_.add("", ms_->l2().stats());
  registry_.add("", ms_->crossbar().stats());
  registry_.add("", ms_->dram().stats());
}

void System::set_tracer(u32 core, cpu::TraceSink* tracer) {
  cores_[core]->set_tracer(tracer);
  managers_[core]->set_tracer(tracer);
}

void System::enable_check() {
  if (check_ != nullptr) return;
  check_ = std::make_unique<check::CheckContext>(
      program_, *ms_, config_.num_cores, config_.threads_per_core);
  for (u32 c = 0; c < config_.num_cores; ++c) {
    cores_[c]->set_check(check_.get());
    managers_[c]->set_check(check_.get());
    ms_->icache(c).set_check(check_.get());
    ms_->dcache(c).set_check(check_.get());
  }
  if (ms_->has_l2()) ms_->l2().set_check(check_.get());
}

void System::offload_contexts() {
  // Task-level offload: contexts ship through the crossbar into each
  // processor's reserved region; processors fetch them on first
  // schedule. Functionally this writes the initial register values.
  for (u32 c = 0; c < config_.num_cores; ++c) {
    for (u32 t = 0; t < config_.threads_per_core; ++t) {
      const u32 gtid = c * config_.threads_per_core + t;
      const workloads::RegContext regs =
          workload_.thread_regs(params_, gtid, total_threads());
      for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
        ms_->memory().write_u64(ms_->reg_addr(c, t, r), regs[r]);
      }
      // Zeroed sysreg line (PC = entry, NZCV = 0).
      for (u32 w = 0; w < mem::kLineBytes / 8; ++w) {
        ms_->memory().write_u64(ms_->sysreg_addr(c, t) + w * 8, 0);
      }
      cores_[c]->start_thread(static_cast<int>(t));
    }
  }
}

void System::take_sample(Cycle prev_cycle, u64 prev_instructions) {
  Sample s;
  for (auto& core : cores_) {
    s.cycle = std::max(s.cycle, core->cycle());
    s.instructions += core->instructions();
  }
  if (!samples_.empty() && samples_.back().cycle == s.cycle) return;
  s.ipc = s.cycle == 0 ? 0.0
                       : static_cast<double>(s.instructions) /
                             static_cast<double>(s.cycle);
  s.interval_ipc =
      s.cycle > prev_cycle
          ? static_cast<double>(s.instructions - prev_instructions) /
                static_cast<double>(s.cycle - prev_cycle)
          : 0.0;
  s.rf_hit_rate = rf_hit_rate();
  for (u32 c = 0; c < config_.num_cores; ++c) {
    s.runnable_threads += cores_[c]->runnable_threads(s.cycle);
    s.outstanding_misses += ms_->dcache(c).outstanding_misses(s.cycle);
  }
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    s.cpi[b] = cpi_bucket_cycles(static_cast<CycleBucket>(b));
  }
  samples_.push_back(s);
  if (sample_hook_) sample_hook_(samples_.back());
}

double System::rf_hit_rate() const {
  double hits = 0.0, misses = 0.0;
  for (const auto& m : managers_) {
    hits += m->stats().get("rf_hits");
    misses += m->stats().get("rf_misses");
  }
  return (hits + misses) == 0.0 ? 1.0 : hits / (hits + misses);
}

double System::cpi_bucket_cycles(CycleBucket b) const {
  double sum = 0.0;
  for (const auto& core : cores_) sum += core->cycle_account().bucket(b);
  return sum;
}

Cycle System::max_core_cycle() const {
  Cycle now = 0;
  for (const auto& core : cores_) now = std::max(now, core->cycle());
  return now;
}

RunResult System::run() {
  if (!restored_) {
    samples_.clear();
    sample_next_ = sample_interval_;
    sample_prev_cycle_ = 0;
    sample_prev_instructions_ = 0;
  }
  restored_ = false;
  schedule();
  return make_result();
}

void System::throw_watchdog() const {
  // Watchdog: name the stuck core/thread instead of spinning.
  std::string diagnosis;
  for (const auto& core : cores_) {
    if (core->done()) continue;
    if (!diagnosis.empty()) diagnosis += "; ";
    diagnosis += core->watchdog_diagnosis();
  }
  throw std::runtime_error("System: max_cycles (" +
                           std::to_string(config_.core.max_cycles) +
                           ") exceeded; " + diagnosis);
}

void System::emit_progress(std::chrono::steady_clock::time_point wall_start,
                           const std::vector<Cycle>& start_cycles,
                           Cycle skipped_cycles) {
  RunProgress p;
  p.cycle = max_core_cycle();
  p.max_cycles = config_.core.max_cycles;
  for (auto& core : cores_) p.instructions += core->instructions();
  p.ipc = p.cycle == 0 ? 0.0
                       : static_cast<double>(p.instructions) /
                             static_cast<double>(p.cycle);
  double elapsed = 0.0;
  for (auto& core : cores_) elapsed += static_cast<double>(core->cycle());
  double top = 0.0;
  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    const auto bucket = static_cast<CycleBucket>(b);
    if (bucket == CycleBucket::kCommit || bucket == CycleBucket::kPipeline) {
      continue;  // useful cycles are not a stall
    }
    const double v = cpi_bucket_cycles(bucket);
    if (v > top) {
      top = v;
      p.top_stall = cycle_bucket_name(bucket);
    }
  }
  p.top_stall_frac = elapsed == 0.0 ? 0.0 : top / elapsed;
  // Per-core: each core skips alone, so both sides sum over cores and
  // the ratio is <= 1 by construction.
  Cycle run_cycles = 0;
  for (u32 c = 0; c < config_.num_cores; ++c) {
    run_cycles += cores_[c]->cycle() - start_cycles[c];
  }
  p.skip_efficiency = run_cycles == 0
                          ? 0.0
                          : static_cast<double>(skipped_cycles) /
                                static_cast<double>(run_cycles);
  p.wall_secs = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              wall_start)
                    .count();
  progress_(p);
}

void System::schedule() {
  // The one run loop. Shared accesses happen only inside
  // CgmtCore::step(), and the hierarchy resolves all timing at access
  // time, so stepping cores in ascending (cycle, core index) key order
  // issues them in exactly the order of lockstep stepping: always
  // advance the live core with the smallest key. It steps while its
  // key stays below the runner-up's; a quiet stretch it skips alone
  // (skipped cycles touch nothing shared), however far ahead of the
  // other cores that takes it. Observers see the whole system only at
  // epoch ends — the next sampling or checkpoint grid point or the
  // watchdog limit — which every core steps or skips exactly up to.
  const Cycle limit = cpu::watchdog_limit(config_.core.max_cycles);
  Cycle next_checkpoint = 0;
  if (checkpoint_every_ > 0) {
    // Align the checkpoint grid with the core cycle count so a
    // restored run checkpoints at the same cycles as a fresh one.
    const Cycle now = max_core_cycle();
    next_checkpoint = checkpoint_every_;
    while (next_checkpoint <= now) next_checkpoint += checkpoint_every_;
  }
  // Live telemetry bookkeeping (observers only: the heartbeat reads
  // stats and the wall clock, never simulation state it could alter).
  const auto wall_start = std::chrono::steady_clock::now();
  const auto emit_period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(progress_every_secs_));
  auto next_emit = wall_start + emit_period;
  std::vector<Cycle> start_cycles;
  for (const auto& core : cores_) start_cycles.push_back(core->cycle());
  Cycle skipped_cycles = 0;
  u32 turns = 0;

  const auto before = [this](u32 a, u32 b) {
    const Cycle ca = cores_[a]->cycle(), cb = cores_[b]->cycle();
    return ca < cb || (ca == cb && a < b);
  };
  // Cores with work left before the epoch end, in ascending key order.
  std::vector<u32> order;
  for (;;) {
    Cycle epoch_end = limit;
    if (sample_interval_ > 0) epoch_end = std::min(epoch_end, sample_next_);
    if (checkpoint_every_ > 0) {
      epoch_end = std::min(epoch_end, next_checkpoint);
    }
    bool live = false;
    order.clear();
    for (u32 c = 0; c < config_.num_cores; ++c) {
      if (cores_[c]->done()) continue;
      live = true;
      if (cores_[c]->cycle() < epoch_end) order.push_back(c);
    }
    if (!live) break;
    std::sort(order.begin(), order.end(), before);
    while (!order.empty()) {
      cpu::CgmtCore& core = *cores_[order[0]];
      Cycle bound = epoch_end;
      if (order.size() > 1) {
        const Cycle next = cores_[order[1]]->cycle();
        bound = std::min(bound, order[0] < order[1] ? next + 1 : next);
      }
      // Slicing a turn is exact: run_until resumes where it stopped.
      if (progress_) bound = std::min(bound, core.cycle() + kHeartbeatSlice);
      skipped_cycles += core.run_until(bound, epoch_end);
      // Re-file the core by its new key: it is past the runner-up now,
      // and usually past everyone, so search from the back.
      const u32 c = order[0];
      if (core.done() || core.cycle() >= epoch_end) {
        order.erase(order.begin());
      } else {
        std::size_t pos = order.size();
        while (pos > 1 && before(c, order[pos - 1])) --pos;
        std::copy(order.begin() + 1, order.begin() + pos, order.begin());
        order[pos - 1] = c;
      }
      if (progress_ && (++turns & 0xffu) == 0) {
        // One wall-clock read per 256 turns keeps the heartbeat off
        // the simulation hot path.
        const auto now_wall = std::chrono::steady_clock::now();
        if (now_wall >= next_emit) {
          emit_progress(wall_start, start_cycles, skipped_cycles);
          next_emit = now_wall + emit_period;
        }
      }
    }
    // Epoch end: every live core sits exactly at epoch_end, as in a
    // lockstep run. Observe in lockstep order: sample, checkpoint,
    // watchdog.
    const Cycle now = max_core_cycle();
    if (sample_interval_ > 0 && now >= sample_next_) {
      take_sample(sample_prev_cycle_, sample_prev_instructions_);
      if (!samples_.empty()) {
        sample_prev_cycle_ = samples_.back().cycle;
        sample_prev_instructions_ = samples_.back().instructions;
      }
      while (sample_next_ <= now) sample_next_ += sample_interval_;
    }
    if (checkpoint_every_ > 0 && now >= next_checkpoint) {
      save(checkpoint_dir_ + "/ckpt-" + std::to_string(now) + ".vckpt");
      while (next_checkpoint <= now) next_checkpoint += checkpoint_every_;
    }
    if (now > config_.core.max_cycles) throw_watchdog();
  }
  // Final row so the series ends exactly at the run result.
  if (sample_interval_ > 0) {
    take_sample(sample_prev_cycle_, sample_prev_instructions_);
  }
  // Final heartbeat so even short runs produce one line.
  if (progress_) emit_progress(wall_start, start_cycles, skipped_cycles);
}

u64 System::total_instructions() const {
  u64 n = 0;
  for (const auto& core : cores_) n += core->instructions();
  return n;
}

RunResult System::make_result() {
  // The scheduler drives cores through run_until(), not
  // CgmtCore::run(); mirror run()'s final scalar bookkeeping so registry
  // dumps always carry totals.
  for (auto& core : cores_) {
    core->stats().set("cycles", static_cast<double>(core->cycle()));
    core->stats().set("instructions",
                      static_cast<double>(core->instructions()));
  }

  RunResult result;
  for (u32 c = 0; c < config_.num_cores; ++c) {
    result.cycles = std::max(result.cycles, cores_[c]->cycle());
    result.instructions += cores_[c]->instructions();
    result.context_switches += static_cast<u64>(
        cores_[c]->stats().get("context_switches"));
    const StatSet& ms = managers_[c]->stats();
    result.rf_fills += static_cast<u64>(ms.get("bsi_fills"));
    result.rf_spills += static_cast<u64>(ms.get("bsi_spills"));
  }
  result.ipc = result.cycles == 0
                   ? 0.0
                   : static_cast<double>(result.instructions) /
                         static_cast<double>(result.cycles);

  double miss_cycles = 0.0, misses = 0.0;
  for (u32 c = 0; c < config_.num_cores; ++c) {
    const StatSet& ds = ms_->dcache(c).stats();
    miss_cycles += ds.get("miss_latency");
    misses += ds.get("misses");
  }
  result.avg_dcache_miss_latency = misses == 0.0 ? 0.0 : miss_cycles / misses;

  for (std::size_t b = 0; b < kNumCycleBuckets; ++b) {
    result.cpi_stack[b] = cpi_bucket_cycles(static_cast<CycleBucket>(b));
  }

  if (config_.scheme == Scheme::kViReC || config_.scheme == Scheme::kNSF) {
    result.rf_hit_rate = rf_hit_rate();
  }

  result.check_ok = workload_.check(ms_->memory(), params_, total_threads(),
                                    &result.check_msg);
  return result;
}

u64 System::config_hash() const {
  // FNV-1a over each field's 8 little-endian bytes, in this order.
  ckpt::Encoder enc;
  const auto put_cache = [&enc](const mem::CacheConfig& c) {
    enc.put_u64(c.size_bytes);
    enc.put_u64(c.assoc);
    enc.put_u64(c.hit_latency);
    enc.put_u64(c.mshrs);
    enc.put_u64(c.stride_prefetch ? 1 : 0);
    enc.put_u64(c.prefetch_degree);
  };
  enc.put_u64(static_cast<u64>(config_.scheme));
  enc.put_u64(config_.num_cores);
  enc.put_u64(config_.threads_per_core);
  const core::ViReCConfig& v = config_.virec;
  enc.put_u64(v.num_phys_regs);
  enc.put_u64(static_cast<u64>(v.policy));
  enc.put_u64((v.bsi.non_blocking ? 1u : 0u) |
              (v.bsi.dummy_dest_fill ? 2u : 0u) |
              (v.bsi.pin_lines ? 4u : 0u) |
              (v.csl.sysreg_prefetch ? 8u : 0u) |
              (v.group_spill ? 16u : 0u) |
              (v.switch_prefetch ? 32u : 0u));
  enc.put_u64(v.rollback_depth);
  enc.put_u64(v.seed);
  // config_.core.max_cycles is deliberately excluded: restoring with a
  // larger watchdog budget must be allowed. config_.core.skip is
  // excluded too: cycle skipping is a pure simulator-speed knob with
  // no state of its own, so snapshots move freely between skip-on and
  // --no-skip runs.
  enc.put_u64(config_.core.num_threads);
  enc.put_u64(config_.core.sq_entries);
  // A retired config word, kept at 1 so that config hashes and
  // snapshots stay byte-identical.
  enc.put_u64(1);
  const mem::MemSystemConfig& m = config_.mem;
  put_cache(m.icache);
  put_cache(m.dcache);
  enc.put_u64(m.has_l2 ? 1 : 0);
  if (m.has_l2) put_cache(m.l2);
  enc.put_u64(m.xbar.latency);
  enc.put_u64(m.xbar.cycles_per_line);
  enc.put_u64(m.dram.channels);
  enc.put_u64(m.dram.banks_per_channel);
  enc.put_u64(m.dram.row_bytes);
  enc.put_u64(m.dram.t_rp);
  enc.put_u64(m.dram.t_rcd);
  enc.put_u64(m.dram.t_cl);
  enc.put_u64(m.dram.burst_cycles);
  const std::string name = workload_.name();
  enc.put_u64(name.size());
  enc.raw(name.data(), name.size());
  enc.put_u64(params_.iters_per_thread);
  enc.put_u64(params_.elements);
  enc.put_u64(params_.stride);
  enc.put_u64(params_.locality_window);
  enc.put_u64(params_.extra_compute);
  enc.put_u64(params_.max_regs);
  enc.put_u64(params_.seed);
  return ckpt::fnv1a(ckpt::kFnvOffsetBasis, enc.bytes().data(), enc.size());
}

void System::save(const std::string& path) const {
  ckpt::CheckpointWriter writer(config_hash());
  ckpt::Sections sections(writer);
  // Saving only reads the fields the section list names.
  const_cast<System&>(*this).state(sections);
  writer.write_file(path);
}

void System::restore(const std::string& path) {
  ckpt::CheckpointReader reader(path, config_hash());
  ckpt::Sections sections(reader);
  state(sections);
  restored_ = true;
}

void System::state(ckpt::Sections& sections) {
  ms_->state(sections);
  for (u32 c = 0; c < config_.num_cores; ++c) {
    sections("core" + std::to_string(c), *cores_[c]);
    sections("mgr" + std::to_string(c), *managers_[c]);
  }
  sections("sim", [this](ckpt::Archive& ar) {
    ar.seq(samples_, ~u32{0}, "samples", [&ar](Sample& s) {
      ar(s.cycle, s.instructions, s.ipc, s.interval_ipc, s.rf_hit_rate,
         s.runnable_threads, s.outstanding_misses, s.cpi);
    });
    ar(sample_next_, sample_prev_cycle_, sample_prev_instructions_);
  });
}

}  // namespace virec::sim

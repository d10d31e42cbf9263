#include "cpu/cgmt_core.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/check.hpp"

namespace virec::cpu {

CgmtCore::CgmtCore(const CgmtCoreConfig& config, const CoreEnv& env,
                   ContextManager& rcm, const kasm::Program& program)
    : config_(config),
      env_(env),
      rcm_(rcm),
      program_(program),
      sq_(config.sq_entries, env.ms->dcache(env.core_id)),
      icache_(env.ms->icache(env.core_id)),
      dcache_(env.ms->dcache(env.core_id)),
      threads_(config.num_threads),
      stats_("core"),
      acct_(stats_, config.num_threads) {
  if (env.num_threads != config.num_threads) {
    throw std::invalid_argument("CgmtCore: env/config thread count mismatch");
  }
  program_.validate();
  stats_.describe("cycles", "total simulated cycles of this core");
  stats_.describe("instructions", "instructions committed by this core");
  c_context_switches_ =
      stats_.counter("context_switches", "CGMT context switches taken");
  c_halts_ = stats_.counter("halts", "threads that executed HALT");
  c_branches_ = stats_.counter("branches", "committed branch instructions");
  c_mispredicts_ =
      stats_.counter("mispredicts", "BTFN branch mispredictions at commit");
  c_dcache_data_misses_ = stats_.counter(
      "dcache_data_misses", "demand data misses signalled to the CSL");
  c_replay_misses_ = stats_.counter(
      "replay_misses", "data misses taken again while replaying after a switch");
  c_rf_miss_stall_cycles_ = stats_.counter(
      "rf_miss_stall_cycles", "decode stall cycles on register-file misses");
  hist_run_length_ = stats_.histogram(
      "run_length", "committed instructions between context switches");
  hist_miss_latency_ = stats_.histogram(
      "miss_latency", "cycles from dcache data-miss issue to data ready");
}

u32 CgmtCore::runnable_threads(Cycle now) const {
  u32 n = 0;
  for (const Thread& t : threads_) {
    if (t.started && !t.halted && t.blocked_until <= now) ++n;
  }
  return n;
}

void CgmtCore::start_thread(int tid, u64 entry_pc) {
  Thread& t = threads_.at(static_cast<std::size_t>(tid));
  if (t.started) throw std::logic_error("thread started twice");
  t.started = true;
  t.pc = entry_pc;
  ++live_threads_;
}

u64 CgmtCore::predict_next(const isa::Inst& inst, u64 pc) const {
  switch (inst.op) {
    case isa::Op::kB:
    case isa::Op::kBl:
      return static_cast<u64>(inst.target);
    case isa::Op::kBcond:
    case isa::Op::kCbz:
    case isa::Op::kCbnz:
      // Backward-taken / forward-not-taken.
      return static_cast<u64>(inst.target) <= pc
                 ? static_cast<u64>(inst.target)
                 : pc + 1;
    default:
      return pc + 1;  // ret predicted fall-through (resolved at commit)
  }
}

int CgmtCore::pick_next_thread() const {
  const u32 n = config_.num_threads;
  if (current_tid_ < 0) {
    // Initial schedule: first ready thread, else earliest to become ready.
    int best = -1;
    for (u32 tid = 0; tid < n; ++tid) {
      const Thread& t = threads_[tid];
      if (!t.started || t.halted) continue;
      if (t.blocked_until <= cycle_) return static_cast<int>(tid);
      if (best < 0 ||
          t.blocked_until < threads_[static_cast<u32>(best)].blocked_until) {
        best = static_cast<int>(tid);
      }
    }
    return best;
  }
  // Round-robin from the current thread over *ready* candidates only.
  // If every other thread is still blocked, the pending switch request
  // is retried each cycle, so threads resume in data-arrival order.
  for (u32 step = 1; step < n; ++step) {
    const u32 tid = (static_cast<u32>(current_tid_) + step) % n;
    const Thread& t = threads_[tid];
    if (!t.started || t.halted) continue;
    if (t.blocked_until <= cycle_) return static_cast<int>(tid);
  }
  return -1;
}

int CgmtCore::predict_thread_after(int after) const {
  // Mirror pick_next_thread()'s ready-first round-robin so the sysreg
  // ping-pong buffer and the register prefetchers target the thread the
  // scheduler will actually choose.
  const u32 n = config_.num_threads;
  int best = -1;
  for (u32 step = 1; step < n; ++step) {
    const u32 tid = (static_cast<u32>(after) + step) % n;
    const Thread& t = threads_[tid];
    if (!t.started || t.halted || static_cast<int>(tid) == after ||
        static_cast<int>(tid) == current_tid_) {
      continue;
    }
    if (t.blocked_until <= cycle_) return static_cast<int>(tid);
    if (best < 0 ||
        t.blocked_until < threads_[static_cast<u32>(best)].blocked_until) {
      best = static_cast<int>(tid);
    }
  }
  return best;
}

void CgmtCore::flush_pipeline() {
  if_.valid = false;
  id_.valid = false;
  ex_.valid = false;
  mem_.valid = false;
  switch_pending_ = false;
}

void CgmtCore::switch_to(int to_tid) {
  Thread& t = threads_[static_cast<std::size_t>(to_tid)];
  if (t.has_reserved_line) {
    dcache_.release_line(t.reserved_line);
    t.has_reserved_line = false;
  }
  current_tid_ = to_tid;
  fetch_pc_ = t.pc;
  Cycle ready = std::max(cycle_ + 1, t.blocked_until);
  if (!t.launched_context) {
    t.launched_context = true;
    t.start_ready = rcm_.on_thread_start(to_tid, ready);
  }
  ready = std::max(ready, t.start_ready);
  fetch_ready_ = ready;
  fetch_wait_cause_ = kFwSwitch;
}

bool CgmtCore::request_context_switch(u64 resume_pc, Cycle miss_done) {
  Thread& cur = threads_[static_cast<std::size_t>(current_tid_)];
  const int next = pick_next_thread();
  if (next < 0 || next == current_tid_) {
    // No ready thread this cycle; the pending request is retried.
    return false;
  }
  if (tracer_ != nullptr) {
    tracer_->on_context_switch(cycle_, current_tid_, next, resume_pc);
  }
  cur.pc = resume_pc;
  cur.blocked_until = miss_done;
  // Hold the miss response for this thread: the line it is waiting on
  // must survive until the replayed load consumes it.
  cur.has_reserved_line =
      dcache_.reserve_line(mem_.mem_addr);
  cur.reserved_line = mem_.mem_addr;
  flush_pipeline();
  ++*c_context_switches_;
  hist_run_length_->record(
      static_cast<double>(instructions_ - episode_start_instructions_));
  episode_start_instructions_ = instructions_;
  const Cycle csl_ready = rcm_.on_context_switch(
      current_tid_, next, predict_thread_after(next), cycle_);
  switch_to(next);
  fetch_ready_ = std::max(fetch_ready_, csl_ready);
  committed_since_switch_ = false;
  tag_cycle(CycleBucket::kSwitchOverhead);
  return true;
}

void CgmtCore::commit(Latch& latch) {
  const int tid = current_tid_;
  // The commit cycle belongs to the committing thread even when the
  // halt path below switches away in the same step.
  acct_tag_ = CycleBucket::kCommit;
  acct_tid_ = tid;
  Thread& t = threads_[static_cast<std::size_t>(tid)];
  if (check_ != nullptr) {
    check_->pre_commit(env_.core_id, tid, latch.inst, latch.pc, cycle_, rcm_,
                       t.nzcv);
  }
  const isa::ExecResult res = isa::execute(
      latch.inst, latch.pc, tid, rcm_, env_.ms->memory(), t.nzcv);
  rcm_.on_commit(tid, latch.inst);
  if (check_ != nullptr) {
    check_->post_commit(env_.core_id, tid, latch.inst, latch.pc, cycle_, rcm_,
                        t.nzcv, res);
  }
  ++instructions_;
  committed_since_switch_ = true;
  latch.valid = false;
  if (tracer_ != nullptr) tracer_->on_commit(cycle_, tid, latch.pc, latch.inst);

  if (res.halted) {
    if (tracer_ != nullptr) tracer_->on_halt(cycle_, tid);
    t.halted = true;
    --live_threads_;
    rcm_.on_thread_halt(tid, cycle_);
    flush_pipeline();
    rcm_.on_mispredict_flush(tid);
    ++*c_halts_;
    hist_run_length_->record(
        static_cast<double>(instructions_ - episode_start_instructions_));
    episode_start_instructions_ = instructions_;
    const int next = pick_next_thread();
    if (next >= 0 && next != tid) {
      const Cycle csl_ready = rcm_.on_context_switch(
          tid, next, predict_thread_after(next), cycle_);
      switch_to(next);
      fetch_ready_ = std::max(fetch_ready_, csl_ready);
      committed_since_switch_ = false;
    } else {
      current_tid_ = -1;
    }
    return;
  }

  if (res.taken_branch || isa::is_branch(latch.inst.op)) {
    ++*c_branches_;
  }
  if (res.next_pc != latch.pred_next) {
    // Misprediction: discard wrong-path in-flight instructions.
    ++*c_mispredicts_;
    if (tracer_ != nullptr) {
      tracer_->on_mispredict(cycle_, tid, latch.pc, res.next_pc);
    }
    flush_pipeline();
    rcm_.on_mispredict_flush(tid);
    fetch_pc_ = res.next_pc;
    fetch_ready_ = std::max(fetch_ready_, cycle_ + 1);
    fetch_wait_cause_ = kFwMispredict;
  }
}

void CgmtCore::handle_mem_and_commit() {
  if (!mem_.valid || current_tid_ < 0) return;
  if (!mem_.mem_issued) {
    if (isa::is_mem(mem_.inst.op)) {
      const Addr addr = isa::compute_mem_addr(mem_.inst, current_tid_, rcm_);
      const bool reg_region = env_.ms->in_reg_region(addr);
      if (isa::is_store(mem_.inst.op)) {
        if (!sq_.push(addr, cycle_, reg_region)) {
          tag_cycle(CycleBucket::kSqFull);
          return;  // retry next cycle
        }
        mem_.ready = cycle_;
        mem_.mem_issued = true;
      } else {
        const mem::CacheAccess acc =
            dcache_.access(addr, /*is_write=*/false, cycle_, reg_region);
        mem_.mem_issued = true;
        mem_.mem_addr = addr;
        if (acc.hit) {
          // Pipelined hit: the final access cycle overlaps writeback.
          mem_.ready = std::max(cycle_, acc.done - 1);
          mem_.mem_kind = 0;
        } else if (reg_region) {
          // Register backing-store miss: never a context switch.
          mem_.ready = acc.done;
          mem_.mem_kind = acc.mshr_stall ? 3 : 2;
        } else {
          ++*c_dcache_data_misses_;
          hist_miss_latency_->record(static_cast<double>(acc.done - cycle_));
          if (!committed_since_switch_) ++*c_replay_misses_;
          if (tracer_ != nullptr) {
            tracer_->on_data_miss(cycle_, current_tid_, mem_.pc, addr,
                                  acc.done);
          }
          mem_.ready = acc.done;
          mem_.mem_kind = acc.mshr_stall ? 3 : 1;
          // The miss signal to the CSL arrives after the dcache tag
          // check (Figure 4, (C) -> (D)).
          switch_pending_ = true;
          switch_eligible_at_ = cycle_ + env_.ms->config().dcache.hit_latency;
        }
      }
    } else {
      mem_.ready = cycle_;
      mem_.mem_issued = true;
    }
  }
  if (switch_pending_) {
    // The switch request stays pending until the CSL masks (outstanding
    // BSI fill, no commit since last switch) clear — or the miss
    // returns first and execution simply continues.
    if (cycle_ >= mem_.ready) {
      switch_pending_ = false;
    } else if (cycle_ >= switch_eligible_at_ && rcm_.switch_allowed(cycle_) &&
               committed_since_switch_) {
      if (request_context_switch(mem_.pc, mem_.ready)) return;
      tag_cycle(CycleBucket::kSwitchNoTarget);
    } else {
      tag_cycle(CycleBucket::kSwitchMasked);
    }
  }
  if (cycle_ >= mem_.ready) commit(mem_);
}

void CgmtCore::advance_ex_mem() {
  if (ex_.valid && !mem_.valid && cycle_ >= ex_.ready) {
    mem_ = ex_;
    mem_.mem_issued = false;
    ex_.valid = false;
  }
}

void CgmtCore::advance_id_ex() {
  if (id_.valid && !ex_.valid && cycle_ >= id_.ready) {
    ex_ = id_;
    ex_.ready = cycle_ + isa::op_latency(id_.inst.op);
    id_.valid = false;
  }
}

void CgmtCore::advance_if_id() {
  if (if_.valid && !id_.valid && cycle_ >= if_.ready) {
    id_ = if_;
    if_.valid = false;
    // Decode-stage register access through the context manager.
    const DecodeAccess da = rcm_.on_decode(current_tid_, id_.inst, cycle_);
    id_.decoded = true;
    id_.ready = std::max(cycle_ + 1, da.ready);
    id_.fill_wait = !da.hit;
    if (!da.hit) {
      *c_rf_miss_stall_cycles_ += double(id_.ready - (cycle_ + 1));
    }
  }
}

void CgmtCore::do_fetch() {
  if (if_.valid || current_tid_ < 0 || cycle_ < fetch_ready_) return;
  if (fetch_pc_ >= program_.size()) return;  // wrong-path runoff
  const isa::Inst& inst = program_.at(fetch_pc_);
  const mem::CacheAccess acc =
      icache_.access(mem::MemorySystem::code_addr(fetch_pc_), false, cycle_);
  if_.valid = true;
  if_.pc = fetch_pc_;
  if_.inst = inst;
  if_.decoded = false;
  if_.mem_issued = false;
  if_.fill_wait = false;
  if_.mem_kind = 0;
  // Pipelined icache: hits deliver next cycle, misses stall the front end.
  if_.ready = acc.hit ? cycle_ + 1 : acc.done;
  if_.pred_next = predict_next(inst, fetch_pc_);
  if (tracer_ != nullptr) {
    tracer_->on_fetch(cycle_, current_tid_, fetch_pc_, inst);
  }
  fetch_pc_ = if_.pred_next;
}

void CgmtCore::step() {
  if (live_threads_ == 0) return;
  acct_tag_ = CycleBucket::kCount;  // untagged until an event claims it
  acct_tid_ = -1;
  if (current_tid_ < 0) {
    // The initial-schedule branch of pick_next_thread() accepts blocked
    // threads, so a live thread is always found.
    const int next = pick_next_thread();
    if (next < 0) {
      throw std::logic_error("CgmtCore: core " + std::to_string(env_.core_id) +
                             " has live threads but none to schedule");
    }
    const Cycle csl_ready =
        rcm_.on_context_switch(-1, next, predict_thread_after(next), cycle_);
    switch_to(next);
    fetch_ready_ = std::max(fetch_ready_, csl_ready);
    tag_cycle(CycleBucket::kSwitchOverhead);
  }
  handle_mem_and_commit();
  advance_ex_mem();
  advance_id_ex();
  // Once a context switch is pending, the front end freezes: decoding
  // further instructions that are about to be flushed would only
  // trigger pointless register fills (which would in turn mask the
  // switch longer).
  if (!switch_pending_) {
    advance_if_id();
    do_fetch();
  }
  // Cycle accounting: if no event tagged this cycle, classify the
  // (quiet) state — the same function skip_to() bulk-charges with.
  if (acct_tag_ == CycleBucket::kCount) {
    acct_tag_ = classify_quiet();
    acct_tid_ = current_tid_;
  }
  acct_.charge(acct_tag_, acct_tid_);
  ++cycle_;
  VIREC_CHECK(check_, acct_.total() == static_cast<double>(cycle_),
              "cycle accounting must close after step");
}

Cycle CgmtCore::earliest_other_thread_ready() const {
  Cycle next = kNeverCycle;
  for (u32 tid = 0; tid < config_.num_threads; ++tid) {
    const Thread& t = threads_[tid];
    if (!t.started || t.halted || static_cast<int>(tid) == current_tid_) {
      continue;
    }
    if (t.blocked_until > cycle_ && t.blocked_until < next) {
      next = t.blocked_until;
    }
  }
  return next;
}

CycleBucket CgmtCore::classify_quiet() const {
  // Priority mirrors the head-of-line blocking structure of the pipe:
  // a frozen switch request, then the oldest latch (MEM outwards), then
  // the empty-pipe fetch wait. Every input is constant across a quiet
  // stretch (next_event_cycle() bounds them), so one evaluation at the
  // stretch head equals per-cycle evaluation.
  if (switch_pending_) {
    return (cycle_ >= switch_eligible_at_ && committed_since_switch_ &&
            rcm_.switch_allowed(cycle_))
               ? CycleBucket::kSwitchNoTarget
               : CycleBucket::kSwitchMasked;
  }
  if (mem_.valid) {
    if (mem_.mem_issued && cycle_ < mem_.ready) {
      switch (mem_.mem_kind) {
        case 1:
          return CycleBucket::kMemData;
        case 2:
          return CycleBucket::kMemReg;
        case 3:
          return CycleBucket::kMemMshr;
        default:
          return CycleBucket::kPipeline;  // pipelined hit / non-mem latency
      }
    }
    return CycleBucket::kPipeline;
  }
  if (ex_.valid) return CycleBucket::kPipeline;
  if (id_.valid) {
    return id_.fill_wait ? CycleBucket::kDecodeFill : CycleBucket::kPipeline;
  }
  if (if_.valid) return CycleBucket::kFrontendWait;
  if (cycle_ < fetch_ready_) {
    switch (fetch_wait_cause_) {
      case kFwSwitch:
        return CycleBucket::kSwitchOverhead;
      case kFwMispredict:
        return CycleBucket::kMispredictRedirect;
      default:
        return CycleBucket::kFrontendWait;
    }
  }
  // Wrong-path runoff / store-queue drain with nothing else to do.
  return CycleBucket::kPipeline;
}

Cycle CgmtCore::next_event_cycle() const {
  if (live_threads_ == 0) return cycle_;  // done; nothing to wait for
  if (current_tid_ < 0) return cycle_;  // the next step schedules one
  Cycle next = kNeverCycle;
  if (mem_.valid) {
    // An unissued memory stage (including a store stalled on a full
    // store queue) re-runs real issue work every cycle, and a ready
    // one commits: both are immediate events.
    if (!mem_.mem_issued || cycle_ >= mem_.ready) return cycle_;
    next = std::min(next, mem_.ready);
    if (switch_pending_) {
      if (cycle_ < switch_eligible_at_) {
        next = std::min(next, switch_eligible_at_);
      } else if (committed_since_switch_) {
        if (!rcm_.switch_allowed(cycle_)) {
          // Masked by the scheme (outstanding BSI fill); quiet until
          // the mask clears.
          next = std::min(next, rcm_.next_event_cycle(cycle_));
        } else if (pick_next_thread() >= 0) {
          return cycle_;  // switch target available: next step switches
        } else {
          // No ready target; one appears when another thread's miss
          // returns.
          next = std::min(next, earliest_other_thread_ready());
        }
      }
      // Masked purely by !committed_since_switch_: that cannot clear
      // before the miss itself returns at mem_.ready (already bounded).
    }
  }
  if (ex_.valid && !mem_.valid) {
    if (cycle_ >= ex_.ready) return cycle_;
    next = std::min(next, ex_.ready);
  }
  // ID -> EX still advances while a switch is pending (only the front
  // end freezes), so these bounds apply unconditionally.
  if (id_.valid && !ex_.valid) {
    if (cycle_ >= id_.ready) return cycle_;
    next = std::min(next, id_.ready);
  }
  if (!switch_pending_) {
    if (if_.valid && !id_.valid) {
      if (cycle_ >= if_.ready) return cycle_;
      next = std::min(next, if_.ready);
    }
    if (!if_.valid) {
      if (fetch_pc_ < program_.size()) {
        if (cycle_ >= fetch_ready_) return cycle_;
        next = std::min(next, fetch_ready_);
      } else if (!id_.valid && !ex_.valid && !mem_.valid &&
                 cycle_ < fetch_ready_) {
        // Wrong-path runoff with an empty pipeline: nothing will ever
        // fetch again, but classify_quiet() charges the fetch-wait
        // cause only while cycle_ < fetch_ready_, so the quiet stretch
        // must break there to keep the CPI stack bit-exact.
        next = std::min(next, fetch_ready_);
      }
    }
  }
  // Conservative clamp: a draining store-queue entry is future-dated
  // state other components observe (occupancy, port ordering).
  next = std::min(next, sq_.next_event_cycle(cycle_));
  return next;
}

void CgmtCore::skip_to(Cycle target) {
  // Precondition: cycle_ < target <= next_event_cycle(). Within that
  // stretch every stepped cycle would only advance the clock and charge
  // classify_quiet()'s bucket, whose inputs next_event_cycle() bounds,
  // so one bulk charge is bit-identical to stepping the stretch.
  acct_.charge(classify_quiet(), current_tid_,
               static_cast<double>(target - cycle_));
  cycle_ = target;
  VIREC_CHECK(check_, acct_.total() == static_cast<double>(cycle_),
              "cycle accounting must close after skip");
}

void CgmtCore::throw_max_cycles() const {
  throw std::runtime_error("CgmtCore: max_cycles (" +
                           std::to_string(config_.max_cycles) +
                           ") exceeded; " + watchdog_diagnosis());
}

Cycle CgmtCore::run_until(Cycle bound, Cycle skip_end, u64 inst_end) {
  Cycle skipped = 0;
  while (!done() && cycle_ < bound && instructions_ < inst_end) {
    if (config_.skip && maybe_quiet()) {
      const Cycle target = std::min(next_event_cycle(), skip_end);
      if (target > cycle_ + 1) {
        skipped += target - cycle_;
        skip_to(target);
        continue;
      }
    }
    step();
  }
  return skipped;
}

void CgmtCore::run() {
  // Clamping skips to the watchdog limit keeps the throw cycle (and the
  // stall counters at that point) identical to the stepped loop.
  const Cycle limit = watchdog_limit(config_.max_cycles);
  run_until(limit, limit);
  if (cycle_ > config_.max_cycles) throw_max_cycles();
  stats_.set("cycles", static_cast<double>(cycle_));
  stats_.set("instructions", static_cast<double>(instructions_));
}

void CgmtCore::run_insts(u64 max_insts) {
  const Cycle limit = watchdog_limit(config_.max_cycles);
  run_until(limit, limit, instructions_ + max_insts);
  if (cycle_ > config_.max_cycles) throw_max_cycles();
}

void CgmtCore::cut_to_functional() {
  if (current_tid_ >= 0) {
    Thread& cur = threads_[static_cast<std::size_t>(current_tid_)];
    // The oldest un-committed instruction (MEM outwards) resumes the
    // thread; with an empty pipe the fetch cursor is exact. Everything
    // squashed here re-executes functionally, so dropping the rollback
    // entries mirrors a wrong-path flush.
    if (mem_.valid) {
      cur.pc = mem_.pc;
    } else if (ex_.valid) {
      cur.pc = ex_.pc;
    } else if (id_.valid) {
      cur.pc = id_.pc;
    } else if (if_.valid) {
      cur.pc = if_.pc;
    } else {
      cur.pc = fetch_pc_;
    }
    flush_pipeline();
    rcm_.on_mispredict_flush(current_tid_);
    current_tid_ = -1;
  }
  // Reservations pin miss lines for replay; the functional tier
  // completes those loads itself, and a pinned line would corrupt warm
  // victim selection.
  for (Thread& t : threads_) {
    if (t.has_reserved_line) {
      dcache_.release_line(t.reserved_line);
      t.has_reserved_line = false;
    }
  }
  committed_since_switch_ = true;
}

void CgmtCore::resume_from_functional(Cycle warm_clock, u64 retired) {
  if (warm_clock > cycle_) {
    acct_.charge(CycleBucket::kFastForward, -1,
                 static_cast<double>(warm_clock - cycle_));
    cycle_ = warm_clock;
  }
  instructions_ += retired;
  episode_start_instructions_ = instructions_;
  for (Thread& t : threads_) {
    // Outstanding-miss data and initial contexts arrived functionally.
    if (t.blocked_until > cycle_) t.blocked_until = cycle_;
    if (t.start_ready > cycle_) t.start_ready = cycle_;
  }
  fetch_ready_ = cycle_;
  fetch_wait_cause_ = kFwFetch;
  VIREC_CHECK(check_, acct_.total() == static_cast<double>(cycle_),
              "cycle accounting must close after fast-forward");
}

std::vector<CgmtCore::ThreadProbeState> CgmtCore::probe_snapshot() const {
  std::vector<ThreadProbeState> snap(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    snap[i] = {threads_[i].halted, threads_[i].pc, threads_[i].nzcv};
  }
  return snap;
}

void CgmtCore::probe_restore(const std::vector<ThreadProbeState>& snap) {
  live_threads_ = 0;
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    Thread& t = threads_[i];
    t.halted = snap[i].halted;
    t.pc = snap[i].pc;
    t.nzcv = snap[i].nzcv;
    // Outstanding-miss data arrives functionally during the replay.
    if (t.blocked_until > cycle_) t.blocked_until = cycle_;
    if (t.started && !t.halted) ++live_threads_;
  }
}

void CgmtCore::halt_thread_functional(int tid) {
  Thread& t = threads_[static_cast<std::size_t>(tid)];
  t.halted = true;
  --live_threads_;
  if (t.has_reserved_line) {
    dcache_.release_line(t.reserved_line);
    t.has_reserved_line = false;
  }
  ++*c_halts_;
}

std::string CgmtCore::watchdog_diagnosis() const {
  std::string out = "core " + std::to_string(env_.core_id) + " at cycle " +
                    std::to_string(cycle_) + ": ";
  if (current_tid_ < 0) {
    out += "no thread running";
  } else {
    const Thread& t = threads_[static_cast<std::size_t>(current_tid_)];
    out += "thread " + std::to_string(current_tid_) + " at pc " +
           std::to_string(t.pc);
    if (t.blocked_until > cycle_) {
      out += " (blocked until cycle " + std::to_string(t.blocked_until) + ")";
    }
  }
  out += ", " + std::to_string(runnable_threads(cycle_)) + "/" +
         std::to_string(live_threads_) + " threads runnable";
  if (switch_pending_) out += ", context switch pending";
  return out;
}

void CgmtCore::state(ckpt::Archive& ar) {
  ar.length(threads_.size(), "core threads");
  for (Thread& t : threads_) {
    ar(t.started, t.halted, t.pc, t.nzcv, t.blocked_until, t.start_ready,
       t.launched_context, t.has_reserved_line, t.reserved_line);
  }
  for (Latch* l : {&if_, &id_, &ex_, &mem_}) {
    isa::Inst& inst = l->inst;
    ar(l->valid, l->pc, l->pred_next);
    ar.enumeration(inst.op, isa::Op::kHalt, "latch opcode");
    ar(inst.rd, inst.rn, inst.rm, inst.ra);
    ar.enumeration(inst.cond, isa::Cond::kAl, "latch condition");
    ar.enumeration(inst.mem_mode, isa::MemMode::kRegOffset,
                   "latch addressing mode");
    ar(inst.shift, inst.imm2, inst.imm, inst.target);
    ar(l->ready, l->decoded, l->mem_issued, l->mem_addr, l->fill_wait);
    ar.index(l->mem_kind, 4, "latch memory kind");
    // One comparison covers every field a valid latch's instruction
    // indexes or shifts with: register ids, shift and lane.
    if (ar.loading() && l->valid &&
        (l->pc >= program_.size() || !(inst == program_.at(l->pc)))) {
      ar.fail("latch instruction at pc " + std::to_string(l->pc) +
              " is not the program's");
    }
  }
  ar(cycle_, instructions_);
  ar.index(current_tid_, threads_.size(), "core current thread");
  ar(live_threads_, committed_since_switch_, fetch_ready_, fetch_pc_,
     switch_pending_, switch_eligible_at_);
  // The run ends when this count reaches zero, so it must match the
  // threads' flags.
  if (ar.loading() &&
      live_threads_ != std::count_if(threads_.begin(), threads_.end(),
                                     [](const Thread& t) {
                                       return t.started && !t.halted;
                                     })) {
    ar.fail("core live threads " + std::to_string(live_threads_) +
            " is not the number of started, unhalted threads");
  }
  ar.enumeration(fetch_wait_cause_, kFwMispredict, "core fetch wait cause");
  ar(episode_start_instructions_);
  sq_.state(ar);
  stats_.state(ar);
}

}  // namespace virec::cpu

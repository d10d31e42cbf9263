// Coarse-grain multithreaded in-order core (Section 3 of the paper).
//
// A 4-latch in-order pipeline (IF -> ID -> EX -> MEM, commit on leaving
// MEM) with BTFN static branch prediction. Architectural state mutates
// only at commit, so the CGMT context-switch flush (triggered by dcache
// data misses) can replay flushed instructions safely.
//
// Register storage is delegated to a ContextManager: decode-stage
// operand access timing, commit notifications and context-switch costs
// all flow through that interface, which is how the banked, software,
// prefetching and ViReC schemes plug into the same pipeline.
//
// Threading: a core and everything it owns (pipeline latches, context
// manager, store queue, its private dcache slice, stats) is
// single-threaded state, and one System runs all its cores on one
// thread (sim/system.cpp's scheduler). Nothing in this class needs (or
// has) internal locking.
#pragma once

#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/cycle_account.hpp"
#include "cpu/context_manager.hpp"
#include "cpu/store_queue.hpp"
#include "cpu/trace.hpp"
#include "kasm/program.hpp"
#include "mem/cache.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::cpu {

struct CgmtCoreConfig {
  u32 num_threads = 1;
  u32 sq_entries = 5;
  /// Event-driven cycle skipping: run() fast-forwards provably quiet
  /// stretches (all threads blocked on memory, frontend waiting, CSL
  /// masks set) in one jump instead of stepping cycle by cycle. The
  /// skip is cycle-exact — every stat, sample and trace is bit
  /// identical to the stepped run — so this only trades simulator
  /// wall-clock. Disable (--no-skip) to force the stepped loop, e.g.
  /// when bisecting the simulator itself.
  bool skip = true;
  /// Hard guard against runaway simulations.
  u64 max_cycles = 4'000'000'000ull;
};

/// First cycle at which a max_cycles watchdog fires, saturating so a
/// maximal budget disables it. Every run loop clamps skips here, so a
/// timed-out skip run stops at the same cycle as a stepped one.
inline Cycle watchdog_limit(u64 max_cycles) {
  return max_cycles + 1 == 0 ? kNeverCycle : max_cycles + 1;
}

class CgmtCore {
 public:
  /// @p env.num_threads must equal @p config.num_threads.
  CgmtCore(const CgmtCoreConfig& config, const CoreEnv& env,
           ContextManager& rcm, const kasm::Program& program);

  /// Mark thread @p tid runnable. Its initial register context must
  /// already be present in the reserved backing region (see
  /// sim::System / offload). @p entry_pc is its start instruction.
  void start_thread(int tid, u64 entry_pc = 0);

  /// Advance one cycle.
  void step();

  /// All started threads halted.
  bool done() const { return live_threads_ == 0; }

  /// The one step/skip loop every caller shares: run(), run_insts()
  /// and sim::System's scheduler. Steps until
  /// done(), cycle() >= @p bound or instructions() >= @p inst_end.
  /// With config.skip set, a quiet stretch is instead fast-forwarded in
  /// one jump to its next event, clamped to @p skip_end (>= @p bound):
  /// a skip may carry the clock past @p bound, since skipped cycles
  /// touch nothing outside the core, but never past @p skip_end. No
  /// watchdog here — callers compare cycle() with their budget.
  /// Returns the number of cycles skipped.
  Cycle run_until(Cycle bound, Cycle skip_end, u64 inst_end = ~u64{0});

  /// Run to completion (single-core convenience), fast-forwarding
  /// quiet stretches when config.skip is set. Throws on exceeding
  /// max_cycles (first at max_cycles + 1, same as sim::System).
  void run();

  /// Like run(), but stop once @p max_insts further instructions have
  /// committed (detailed warm-up / measurement windows of the tiered
  /// runner). Does not write the final "cycles"/"instructions" stats.
  void run_insts(u64 max_insts);

  // --- Tiered simulation (sim::TieredRunner) ---
  /// Detach the detailed pipeline so the functional tier can take
  /// over: squash all in-flight (uncommitted) instructions — the
  /// oldest one's pc becomes the running thread's architectural resume
  /// pc — drop their rollback entries, release every held miss-line
  /// reservation and deschedule the core. Architectural state (memory,
  /// register contexts, NZCV, thread pcs) is untouched.
  void cut_to_functional();

  /// Re-attach after a functional phase whose pseudo-clock reached
  /// @p warm_clock (>= cycle()): the elapsed span is charged to the
  /// FastForward bucket — keeping the closed-accounting invariant and
  /// the cache-recency ordering (warm LRU stamps never exceed the
  /// clock) — @p retired functionally-executed instructions join the
  /// commit count, and every live thread becomes schedulable at the
  /// new clock. The next step() re-enters through the initial-schedule
  /// path, charging a fresh context switch.
  void resume_from_functional(Cycle warm_clock, u64 retired);

  /// Functional HALT: retire thread @p tid from the scheduler without
  /// pipeline involvement. The caller runs the context manager's
  /// warm_thread_halt hook itself.
  void halt_thread_functional(int tid);

  /// Per-thread architectural state a detailed probe may disturb
  /// (tiered probe-and-revert: the golden replay stream is the sole
  /// driver of architectural progress, so a measurement probe's thread
  /// effects are reverted afterwards).
  struct ThreadProbeState {
    bool halted = false;
    u64 pc = 0;
    u8 nzcv = 0;
  };
  std::vector<ThreadProbeState> probe_snapshot() const;
  /// Revert thread scheduling state to @p snap. Must be called while
  /// detached (after cut_to_functional()); un-halts threads a probe
  /// halted and recomputes the live count. Register values and memory
  /// are reverted separately by the caller.
  void probe_restore(const std::vector<ThreadProbeState>& snap);

  // Architectural thread state, exposed for the functional stream
  // replayer.
  /// on_thread_start (initial context fetch) already ran for @p tid.
  bool thread_launched(int tid) const {
    return threads_[static_cast<std::size_t>(tid)].launched_context;
  }
  /// The functional tier ran warm_thread_start: a later detailed
  /// switch_to() must not replay on_thread_start over newer state.
  void mark_thread_launched(int tid) {
    threads_[static_cast<std::size_t>(tid)].launched_context = true;
  }
  void set_thread_pc(int tid, u64 pc) {
    threads_[static_cast<std::size_t>(tid)].pc = pc;
  }
  /// Mutable NZCV for the functional stream replayer.
  u8& nzcv_ref(int tid) {
    return threads_[static_cast<std::size_t>(tid)].nzcv;
  }

  const CgmtCoreConfig& config() const { return config_; }

  Cycle cycle() const { return cycle_; }
  u64 instructions() const { return instructions_; }
  double ipc() const {
    return cycle_ == 0 ? 0.0
                       : static_cast<double>(instructions_) /
                             static_cast<double>(cycle_);
  }

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }
  ContextManager& context_manager() { return rcm_; }

  /// Closed cycle accounting: every elapsed cycle attributed to one
  /// CycleBucket (Σ buckets == cycle(), skip and stepped bit-identical).
  const CycleAccount& cycle_account() const { return acct_; }

  /// Store-queue occupancy at @p now (telemetry counter tracks).
  u32 sq_occupancy(Cycle now) const { return sq_.occupancy(now); }

  /// Threads that could run at @p now (started, not halted, not
  /// blocked on an outstanding miss).
  u32 runnable_threads(Cycle now) const;

  /// Attach a pipeline tracer (nullptr detaches). Not owned.
  void set_tracer(TraceSink* tracer) { tracer_ = tracer; }

  /// Attach the lockstep oracle / invariant context (nullptr detaches).
  /// Forwards to the store queue for its occupancy invariants.
  void set_check(check::CheckContext* check) {
    check_ = check;
    sq_.set_check(check);
  }

  /// Per-thread NZCV flags (functional sysreg, exposed for tests).
  u8 nzcv(int tid) const { return threads_[static_cast<std::size_t>(tid)].nzcv; }

  /// Snapshot fields of the whole pipeline: thread contexts, latches,
  /// frontend cursors, switch bookkeeping, the store queue and the stat
  /// set. The attached ContextManager checkpoints separately. Loading
  /// refuses a current thread out of range, a live-thread count the
  /// threads disagree with, and a valid latch whose instruction is not
  /// the program's at its pc.
  void state(ckpt::Archive& ar);

  /// One-line description of what the core is (or is not) doing, used
  /// by the watchdog to name the stuck core/thread when max_cycles is
  /// exceeded.
  std::string watchdog_diagnosis() const;

 private:
  // --- Event skipping, driven only by run_until() ---
  /// Earliest cycle at which step() would do real work: move a latch,
  /// issue/commit an instruction, take a context switch, fetch, or
  /// react to returning data. Returns cycle() itself when the very
  /// next step is such work, and kNeverCycle when no future event
  /// exists (the core would spin to the watchdog). Every cycle from
  /// cycle() up to (but excluding) the returned value is "quiet": the
  /// stepped loop would only advance the clock and charge one CPI
  /// bucket, which is exactly what skip_to() replays in bulk.
  Cycle next_event_cycle() const;

  /// Fast-forward a quiet stretch: jump the core clock to @p target
  /// (cycle() < target <= next_event_cycle()) and charge the skipped
  /// span to classify_quiet()'s bucket, the one the stepped loop would
  /// have charged each cycle. Bit-exact with respect to stepping: no
  /// other state changes during a quiet stretch.
  void skip_to(Cycle target);

  /// Cheap pre-filter for the skip path: true when the core is in a
  /// state that can begin a quiet stretch (an issued memory access
  /// still in flight, or an empty pipeline waiting on fetch / a
  /// scheduler candidate). False means the next step() very likely
  /// does real work, so run_until() steps directly without paying for
  /// the full next_event_cycle() evaluation. Purely a performance hint:
  /// declining a possible skip is always bit-exact, because stepping
  /// through a quiet cycle is the reference behaviour.
  bool maybe_quiet() const {
    if (mem_.valid) return mem_.mem_issued && cycle_ < mem_.ready;
    if (if_.valid || id_.valid || ex_.valid) return false;
    return current_tid_ >= 0 &&
           (cycle_ < fetch_ready_ || fetch_pc_ >= program_.size());
  }

  struct Thread {
    bool started = false;
    bool halted = false;
    u64 pc = 0;
    u8 nzcv = 0;
    Cycle blocked_until = 0;       // dcache miss outstanding
    Cycle start_ready = 0;         // initial context transfer
    bool launched_context = false; // on_thread_start already charged
    bool has_reserved_line = false;
    Addr reserved_line = 0;        // miss response held until resume
  };

  struct Latch {
    bool valid = false;
    u64 pc = 0;
    u64 pred_next = 0;
    isa::Inst inst;
    Cycle ready = 0;     // stage completion time
    bool decoded = false;
    bool mem_issued = false;
    Addr mem_addr = 0;   // effective address once issued
    /// Decode waited on register fill/spill traffic (cycle accounting).
    bool fill_wait = false;
    /// What an issued memory access is waiting on: 0 = nothing / hit
    /// pipeline, 1 = demand data miss, 2 = register-region miss,
    /// 3 = MSHR-full stall (cycle accounting).
    u8 mem_kind = 0;
  };

  /// Cause of an empty-pipe fetch_ready_ wait, for cycle accounting.
  enum FetchWaitCause : u8 { kFwFetch = 0, kFwSwitch, kFwMispredict };

  void do_fetch();
  void advance_if_id();
  void advance_id_ex();
  void advance_ex_mem();
  void handle_mem_and_commit();
  void commit(Latch& latch);
  /// Invalidate the IF/ID/EX/MEM latches and drop a pending switch.
  void flush_pipeline();
  u64 predict_next(const isa::Inst& inst, u64 pc) const;
  /// Round-robin choice of the next thread to run; -1 if none exists.
  int pick_next_thread() const;
  /// Prediction of the thread that will run after @p after (prefetch
  /// hint for the context managers); -1 if none.
  int predict_thread_after(int after) const;
  /// Switch to @p to_tid (flush already done); schedules fetch start.
  void switch_to(int to_tid);
  /// Try to switch away from the in-flight miss; returns true if a
  /// switch happened (pipeline flushed).
  bool request_context_switch(u64 resume_pc, Cycle miss_done);
  /// Earliest blocked_until of a non-current live thread still in the
  /// future (kNeverCycle if none) — when the scheduler next gains a
  /// candidate.
  Cycle earliest_other_thread_ready() const;
  /// Pure classification of the current (quiet) state into a cycle
  /// bucket. step() consults it for cycles no explicit event tagged;
  /// skip_to() bulk-charges span * this — the two agree bit-for-bit
  /// because next_event_cycle() bounds every input of this function.
  CycleBucket classify_quiet() const;
  /// Record that this step's cycle belongs to @p bucket, attributed to
  /// the current thread.
  void tag_cycle(CycleBucket bucket) {
    acct_tag_ = bucket;
    acct_tid_ = current_tid_;
  }
  [[noreturn]] void throw_max_cycles() const;

  CgmtCoreConfig config_;
  CoreEnv env_;
  ContextManager& rcm_;
  const kasm::Program& program_;
  StoreQueue sq_;
  mem::Cache& icache_;  // this core's caches, resolved once
  mem::Cache& dcache_;
  std::vector<Thread> threads_;

  Cycle cycle_ = 0;
  u64 instructions_ = 0;
  int current_tid_ = -1;
  u32 live_threads_ = 0;
  bool committed_since_switch_ = true;
  Cycle fetch_ready_ = 0;  // earliest cycle the frontend may fetch
  u64 fetch_pc_ = 0;
  /// A dcache data miss is outstanding and a context switch will fire
  /// as soon as the CSL masks clear (or the miss returns first).
  bool switch_pending_ = false;
  Cycle switch_eligible_at_ = 0;  // miss-detection (tag check) delay
  FetchWaitCause fetch_wait_cause_ = kFwFetch;

  Latch if_, id_, ex_, mem_;
  StatSet stats_;
  CycleAccount acct_;
  // Per-step accounting scratch (reset every step; not checkpointed).
  CycleBucket acct_tag_ = CycleBucket::kCount;
  int acct_tid_ = -1;
  // Detailed (opt-in) histograms; owned by stats_.
  Histogram* hist_run_length_ = nullptr;
  Histogram* hist_miss_latency_ = nullptr;
  // Hot-path counter handles (owned by stats_).
  double* c_context_switches_ = nullptr;
  double* c_halts_ = nullptr;
  double* c_branches_ = nullptr;
  double* c_mispredicts_ = nullptr;
  double* c_dcache_data_misses_ = nullptr;
  double* c_replay_misses_ = nullptr;
  double* c_rf_miss_stall_cycles_ = nullptr;
  u64 episode_start_instructions_ = 0;
  TraceSink* tracer_ = nullptr;
  // Mutable: the oracle advances its shadow state at each commit.
  check::CheckContext* check_ = nullptr;
};

}  // namespace virec::cpu

// Register context management interface for the CGMT pipeline.
//
// A ContextManager owns the storage for thread register contexts and
// answers the pipeline's timing questions:
//  * on_decode  — instruction entered the decode stage; make its
//                 register operands available and report when.
//  * on_commit  — instruction committed (drives commit/C-bit state).
//  * on_context_switch — the core flushed the pipeline and is
//                 switching threads; report when the new thread may
//                 fetch (sysreg buffers, bank swaps, save/restore...).
//  * switch_allowed — CSL masking input (e.g. BSI fill in flight).
//
// It also implements isa::RegisterFileIO so committed instructions read
// and write functional register values through whatever storage the
// scheme uses (banks, a cached physical RF + backing memory, ...).
//
// Implementations: BankedManager, SoftwareManager, PrefetchManager
// (this directory) and core::ViReCManager / core::make_nsf_manager (the
// paper's contribution and the NSF prior-work baseline).
#pragma once

#include <array>
#include <memory>

#include "common/stats.hpp"
#include "isa/semantics.hpp"
#include "mem/memory_system.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::cpu {

class TraceSink;

/// Environment handed to a context manager: which core it serves, how
/// many thread contexts it manages, and the memory system that holds
/// the backing store.
struct CoreEnv {
  u32 core_id = 0;
  u32 num_threads = 1;
  mem::MemorySystem* ms = nullptr;
};

/// Timing result of a decode-stage register access.
struct DecodeAccess {
  Cycle ready = 0;  ///< cycle when all operands are present
  u32 fills = 0;    ///< registers fetched from the backing store
  u32 spills = 0;   ///< dirty registers written back
  bool hit = true;  ///< no fill was needed
};

class ContextManager : public isa::RegisterFileIO {
 public:
  explicit ContextManager(const CoreEnv& env, const char* stat_prefix);
  ~ContextManager() override = default;

  ContextManager(const ContextManager&) = delete;
  ContextManager& operator=(const ContextManager&) = delete;

  // --- pipeline timing hooks ---

  /// Thread @p tid was offloaded; returns the cycle at which it may
  /// start fetching (initial context transfer, if the scheme pays one).
  virtual Cycle on_thread_start(int tid, Cycle now) {
    (void)tid;
    return now;
  }

  /// Instruction enters decode at @p now.
  virtual DecodeAccess on_decode(int tid, const isa::Inst& inst,
                                 Cycle now) = 0;

  /// Instruction committed.
  virtual void on_commit(int tid, const isa::Inst& inst) {
    (void)tid;
    (void)inst;
  }

  /// Branch-misprediction flush: in-flight instructions of @p tid were
  /// discarded and will NOT be replayed (wrong path).
  virtual void on_mispredict_flush(int tid) { (void)tid; }

  /// Context switch from @p from_tid to @p to_tid after a pipeline
  /// flush at @p now; flushed instructions WILL be replayed.
  /// @p predicted_next is the scheduler's prediction of the thread that
  /// will run after @p to_tid (prefetch hint; -1 if none). Returns the
  /// cycle at which @p to_tid may fetch its first instruction.
  virtual Cycle on_context_switch(int from_tid, int to_tid, int predicted_next,
                                  Cycle now) {
    (void)from_tid;
    (void)to_tid;
    (void)predicted_next;
    return now;
  }

  /// CSL mask: false while the scheme must delay context switches
  /// (e.g. an outstanding BSI fill).
  virtual bool switch_allowed(Cycle now) const {
    (void)now;
    return true;
  }

  /// Earliest future cycle at which the scheme's autonomous timing
  /// state changes — in particular, the cycle at which a false
  /// switch_allowed() turns true again (kNeverCycle when nothing is
  /// scheduled). Between pipeline hooks, switch_allowed() must stay
  /// constant up to (but excluding) the returned cycle; this is what
  /// lets the core fast-forward masked-switch stalls in one jump.
  virtual Cycle next_event_cycle(Cycle now) const {
    (void)now;
    return kNeverCycle;
  }

  /// Thread halted; flush its dirty state to the backing store so the
  /// host can read results.
  virtual void on_thread_halt(int tid, Cycle now) {
    (void)tid;
    (void)now;
  }

  // --- functional fast-forward hooks (tiered simulation) ---
  //
  // The functional tier executes committed instructions without the
  // pipeline. The warm_* hooks mirror each timing hook's persistent
  // state effects — storage residency, episode masks, cache tags via
  // Cache::warm_access — at zero timing cost, so a later detailed
  // window starts against warm structures. They must keep read_reg /
  // write_reg architecturally correct for any thread the functional
  // tier runs; the default no-ops are only right for schemes whose
  // register accessors always reach canonical storage.

  /// Functional counterpart of on_thread_start: make @p tid's registers
  /// live through read_reg/write_reg (e.g. copy the backing store into
  /// the scheme's private storage) without charging transfer time.
  /// Called exactly once per thread, before its first functional
  /// instruction; the core marks the context launched so a later
  /// detailed switch-in does not replay on_thread_start over newer
  /// values.
  virtual void warm_thread_start(int tid, Cycle warm_now) {
    (void)tid;
    (void)warm_now;
  }

  /// Functional counterpart of on_decode (residency + cache warmth).
  virtual void warm_decode(int tid, const isa::Inst& inst, Cycle warm_now) {
    (void)tid;
    (void)inst;
    (void)warm_now;
  }

  /// Functional counterpart of on_context_switch.
  virtual void warm_context_switch(int from_tid, int to_tid,
                                   int predicted_next, Cycle warm_now) {
    (void)from_tid;
    (void)to_tid;
    (void)predicted_next;
    (void)warm_now;
  }

  /// Functional counterpart of on_thread_halt: flush dirty state to the
  /// backing store so the host can read results.
  virtual void warm_thread_halt(int tid, Cycle warm_now) {
    (void)tid;
    (void)warm_now;
  }

  /// Attach a trace sink for register-traffic events (fills, spills,
  /// rollbacks). Schemes without such traffic ignore it.
  virtual void set_tracer(TraceSink* tracer) { (void)tracer; }

  /// Attach the check context (nullptr detaches). Schemes with
  /// structural invariants audit themselves against it on hot paths.
  virtual void set_check(const check::CheckContext* check) { check_ = check; }

  /// Snapshot fields of the scheme. The base moves the stat set;
  /// overrides call the base first and then name their own fields.
  virtual void state(ckpt::Archive& ar) { stats_.state(ar); }

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }
  const CoreEnv& env() const { return env_; }

 protected:
  /// One thread's x0..x30 values.
  using RegValues = std::array<u64, isa::kNumAllocatableRegs>;

  /// Functional access to the reserved backing region in memory.
  u64 backing_read(int tid, isa::RegId reg) const;
  void backing_write(int tid, isa::RegId reg, u64 value);
  /// Move @p tid's whole context with one block copy: the backing slots
  /// of x0..x30 are contiguous 8-byte little-endian words, the layout
  /// of RegValues on the (asserted little-endian) host.
  void backing_read_all(int tid, RegValues& values) const;
  void backing_write_all(int tid, const RegValues& values);

  mem::Cache& dcache() { return env_.ms->dcache(env_.core_id); }

  CoreEnv env_;
  StatSet stats_;
  /// Hard-invariant context; null or disabled when checking is off.
  const check::CheckContext* check_ = nullptr;
};

}  // namespace virec::cpu

// Shared functional streams (docs/performance.md, "Stream reuse").
//
// A sampled tiered run spends most of its instructions in the
// functional tier, and that tier's work — the architectural values
// every instruction produces plus the thread schedule — depends only
// on the *functional identity* of the experiment point (workload +
// parameters + topology + dcache geometry; see
// ckpt::functional_stream_hash). A policy or scheme sweep therefore
// re-pays the same interpretation N times.
//
// build_func_stream() pays it once: a golden interleaved pass over a
// clone of the system's memory records, per committed instruction, a
// compact delta record (successor PC when not sequential, NZCV when
// changed, the memory address and stored bytes, the destination
// register values, and scheduler rotation events). FuncStreamReplayer
// then re-applies those records through a point's OWN warm hooks
// (icache/dcache warm_access, warm_decode, warm_context_switch,
// warm_thread_start/halt) and register write path, without re-running
// isa::execute. The replayed stream is the only functional path of a
// tiered run; with System::enable_check() the lockstep oracle checks
// every replayed instruction.
//
// The golden pass is the one definition of the functional schedule
// (rotate on switch-on-miss demand-load misses and every
// kRotationPeriod instructions; func_stream.cpp). Its load hit/miss
// decisions come from a private, deterministically cold tag-only LRU
// model of the dcache geometry, not from the live dcache, so the
// recorded schedule cannot depend on any point-specific warm state and
// one stream is valid for every point sharing the identity.
//
// StreamCache is the process-wide rendezvous: all stream acquisitions
// funnel through it, deduplicating builds across the points of an
// in-process sweep. Streams live only in its in-memory map; none is
// written to or read from disk.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/system.hpp"

namespace virec::sim {

/// One recorded functional execution, immutable once built.
struct FuncStream {
  u32 num_threads = 0;
  int start_tid = 0;   ///< first scheduled thread
  u64 n_total = 0;     ///< records == committed instructions
  std::vector<u8> records;  ///< varint-packed per-instruction deltas
};

/// Golden interleaved pass over @p system's current program/workload
/// state: executes every thread to completion against clones of the
/// initial register contexts and memory (the system is untouched) and
/// records the stream. Throws std::runtime_error when the instruction
/// count exceeds the core's max_cycles watchdog budget.
std::shared_ptr<const FuncStream> build_func_stream(System& system);

/// Advance-only cursor over a FuncStream that re-applies records
/// through a live system's warm hooks and architectural write paths.
/// One replayer drives a whole sampled run 0 -> n_total; detailed
/// probes in between must be reverted (TieredRunner's probe-and-revert)
/// so the stream stays the sole driver of architectural state.
class FuncStreamReplayer {
 public:
  /// Throws std::runtime_error unless @p stream records @p num_threads
  /// threads, starts at one of them and @p program is not empty.
  FuncStreamReplayer(std::shared_ptr<const FuncStream> stream,
                     const kasm::Program& program, u32 num_threads);

  u64 pos() const { return pos_; }
  bool done() const { return pos_ >= stream_->n_total; }
  int cur_tid() const { return cur_tid_; }
  const FuncStream& stream() const { return *stream_; }

  /// Replay records [pos, min(target, n_total)): warm the icache /
  /// dcache / context manager, apply register, memory and NZCV deltas,
  /// update thread PCs and drive launch/halt/switch hooks in the
  /// recorded schedule. @p warm_clock advances by @p cpi_scale
  /// per record; the final value is returned (pass it to
  /// CgmtCore::resume_from_functional). @p check, when non-null and
  /// enabled, receives pre/post_commit for every record so the lockstep
  /// oracle validates the stream against its reference interpreter.
  Cycle advance(u64 target, cpu::CgmtCore& core, cpu::ContextManager& rcm,
                mem::MemorySystem& ms, check::CheckContext* check,
                Cycle warm_clock, u64 cpi_scale);

 private:
  /// What every record at one PC shares, derived from the program once
  /// per replayer instead of once per record.
  struct PcInfo {
    bool mem_op = false;
    bool store_op = false;
    bool halt = false;
    u32 size = 0;        ///< access size in bytes (memory ops)
    isa::RegList dsts;   ///< registers the record carries values for
  };
  struct Decoded;
  /// Decode the record at the cursor (updating byte_ only). Throws
  /// std::runtime_error on a truncated record, a successor PC outside
  /// the program or a scheduler target that is not a live thread.
  Decoded decode_next(const isa::Inst*& inst, u64& pc);
  /// The first live thread after @p after, skipping @p exclude (-1
  /// when the thread pool is exhausted).
  int pick_next(int after, int exclude) const;

  std::shared_ptr<const FuncStream> stream_;
  const kasm::Program* program_;
  std::vector<PcInfo> pc_info_;  ///< indexed by PC
  u64 pos_ = 0;
  std::size_t byte_ = 0;
  int cur_tid_ = -1;
  std::vector<u64> pcs_;
  std::vector<u8> halted_;
  u32 live_ = 0;
};

/// Process-wide stream registry: deduplicates builds across the points
/// of a sweep (and across threads). Every stream is kept for the life
/// of the process.
class StreamCache {
 public:
  struct Stats {
    u64 built = 0;     ///< golden passes actually executed
    u64 mem_hits = 0;  ///< acquisitions served from the in-memory map
  };

  static StreamCache& instance();

  /// Return the stream for @p key, building it from @p system at most
  /// once per process (concurrent acquirers of the same key block
  /// until the first finishes).
  std::shared_ptr<const FuncStream> acquire(u64 key, System& system);

  Stats stats() const;
  /// Drop every cached stream and zero the counters (tests / CI smoke).
  void reset_for_test();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<u64, std::shared_ptr<const FuncStream>> streams_;
  std::unordered_set<u64> building_;
  Stats stats_;
};

}  // namespace virec::sim

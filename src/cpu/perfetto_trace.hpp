// Chrome/Perfetto trace-event JSON sink for pipeline traces. The
// output is a JSON array of trace events (the legacy "JSON Array
// Format" every Chrome-tracing consumer accepts) that loads directly
// in ui.perfetto.dev or chrome://tracing:
//
//  * one process per core (pid = core id);
//  * one track per hardware thread (tid = thread id) carrying
//    context-residency spans — the intervals a thread occupies the
//    pipeline between context switches;
//  * a parallel "tN misses" track per thread carrying dcache
//    miss-stall spans (issue cycle -> data-ready cycle);
//  * instant events for register fills, spills and rollback-queue
//    flushes (from context managers that report them, e.g.
//    core::ViReCManager).
//
// Timestamps are simulated cycles reported as microseconds, so one
// trace-viewer microsecond == one core cycle.
//
// A PerfettoTraceWriter owns the output stream and the JSON framing;
// one PerfettoTracer per core adapts TraceSink events onto it. Call
// finish() (or let the writer destruct) to emit valid JSON.
#pragma once

#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/trace.hpp"

namespace virec::cpu {

/// Serialises trace events into one shared JSON array. Thread-safe:
/// each emitting call serialises the whole event under an internal
/// mutex, so tracers driven from different threads may share one
/// writer.
class PerfettoTraceWriter {
 public:
  explicit PerfettoTraceWriter(std::ostream& os);
  ~PerfettoTraceWriter();

  PerfettoTraceWriter(const PerfettoTraceWriter&) = delete;
  PerfettoTraceWriter& operator=(const PerfettoTraceWriter&) = delete;

  /// Name the process @p pid (core) in the viewer.
  void process_name(u32 pid, const std::string& name);
  /// Name track @p tid of process @p pid.
  void thread_name(u32 pid, u32 tid, const std::string& name);

  /// Complete ("X") span [ts, ts+dur) on (pid, tid).
  void complete_event(const std::string& name, const char* category, u32 pid,
                      u32 tid, Cycle ts, Cycle dur,
                      const std::string& args_json = "");
  /// Thread-scoped instant ("i") event at @p ts.
  void instant_event(const std::string& name, const char* category, u32 pid,
                     u32 tid, Cycle ts);
  /// Counter ("C") sample at @p ts. @p args_json carries the series
  /// values, e.g. {"value": 3} or {"mem": 12, "switch": 4} for a
  /// stacked multi-series counter track.
  void counter_event(const std::string& name, u32 pid, Cycle ts,
                     const std::string& args_json);

  /// Close the JSON array; further events are dropped. Idempotent.
  void finish();
  u64 events_written() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  /// Emits the shared event prelude; callers hold mu_.
  void event_prefix(const char* ph, const std::string& name,
                    const char* category, u32 pid, u32 tid, Cycle ts);

  std::ostream& os_;
  mutable std::mutex mu_;
  bool first_ = true;
  bool finished_ = false;
  u64 events_ = 0;
};

/// TraceSink adapter for one core writing into a PerfettoTraceWriter.
class PerfettoTracer final : public TraceSink {
 public:
  /// @p num_threads sizes the per-thread residency bookkeeping.
  PerfettoTracer(PerfettoTraceWriter& writer, u32 core_id, u32 num_threads);

  void on_fetch(Cycle cycle, int tid, u64 pc, const isa::Inst& inst) override;
  void on_commit(Cycle cycle, int tid, u64 pc,
                 const isa::Inst& inst) override;
  void on_data_miss(Cycle cycle, int tid, u64 pc, Addr addr,
                    Cycle ready) override;
  void on_context_switch(Cycle cycle, int from_tid, int to_tid,
                         u64 resume_pc) override;
  void on_mispredict(Cycle cycle, int tid, u64 pc, u64 actual) override;
  void on_halt(Cycle cycle, int tid) override;
  void on_reg_fill(Cycle cycle, int tid, u8 arch) override;
  void on_reg_spill(Cycle cycle, int tid, u8 arch) override;
  void on_rollback(Cycle cycle, int tid, u32 flushed) override;

  /// Close any open residency span at @p end_cycle (call after the
  /// run; finishing the writer without this drops in-flight spans).
  void flush_open_spans(Cycle end_cycle);

 private:
  /// tid of the miss-stall track that shadows thread @p tid.
  u32 miss_track(int tid) const;
  void open_residency(int tid, Cycle cycle);
  void close_residency(int tid, Cycle cycle);

  PerfettoTraceWriter& writer_;
  u32 core_id_;
  // Residency span start per thread; kNeverCycle = no open span.
  std::vector<Cycle> residency_start_;
  std::vector<u64> commits_in_episode_;
};

}  // namespace virec::cpu

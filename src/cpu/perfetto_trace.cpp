#include "cpu/perfetto_trace.hpp"

#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "isa/disasm.hpp"

namespace virec::cpu {

PerfettoTraceWriter::PerfettoTraceWriter(std::ostream& os) : os_(os) {
  os_ << "[";
}

PerfettoTraceWriter::~PerfettoTraceWriter() { finish(); }

void PerfettoTraceWriter::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  os_ << "\n]\n";
  os_.flush();
}

void PerfettoTraceWriter::event_prefix(const char* ph, const std::string& name,
                                       const char* category, u32 pid, u32 tid,
                                       Cycle ts) {
  if (!first_) os_ << ",";
  first_ = false;
  ++events_;
  os_ << "\n{\"name\": " << JsonWriter::quote(name) << ", \"ph\": \"" << ph
      << "\", \"cat\": \"" << category << "\", \"pid\": " << pid
      << ", \"tid\": " << tid << ", \"ts\": " << ts;
}

void PerfettoTraceWriter::process_name(u32 pid, const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  if (!first_) os_ << ",";
  first_ = false;
  ++events_;
  os_ << "\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"args\": {\"name\": " << JsonWriter::quote(name) << "}}";
}

void PerfettoTraceWriter::thread_name(u32 pid, u32 tid,
                                      const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  if (!first_) os_ << ",";
  first_ = false;
  ++events_;
  os_ << "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"tid\": " << tid
      << ", \"args\": {\"name\": " << JsonWriter::quote(name) << "}}";
}

void PerfettoTraceWriter::complete_event(const std::string& name,
                                         const char* category, u32 pid,
                                         u32 tid, Cycle ts, Cycle dur,
                                         const std::string& args_json) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  event_prefix("X", name, category, pid, tid, ts);
  os_ << ", \"dur\": " << dur;
  if (!args_json.empty()) os_ << ", \"args\": " << args_json;
  os_ << "}";
}

void PerfettoTraceWriter::instant_event(const std::string& name,
                                        const char* category, u32 pid,
                                        u32 tid, Cycle ts) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  event_prefix("i", name, category, pid, tid, ts);
  os_ << ", \"s\": \"t\"}";
}

void PerfettoTraceWriter::counter_event(const std::string& name, u32 pid,
                                        Cycle ts,
                                        const std::string& args_json) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  // Counter tracks are process-scoped in the trace-event format: no
  // tid, and the args object carries one entry per plotted series.
  if (!first_) os_ << ",";
  first_ = false;
  ++events_;
  os_ << "\n{\"name\": " << JsonWriter::quote(name)
      << ", \"ph\": \"C\", \"cat\": \"counter\", \"pid\": " << pid
      << ", \"ts\": " << ts << ", \"args\": " << args_json << "}";
}

PerfettoTracer::PerfettoTracer(PerfettoTraceWriter& writer, u32 core_id,
                               u32 num_threads)
    : writer_(writer),
      core_id_(core_id),
      residency_start_(num_threads, kNeverCycle),
      commits_in_episode_(num_threads, 0) {
  std::string process = "core";
  process += std::to_string(core_id_);
  writer_.process_name(core_id_, process);
  for (u32 t = 0; t < num_threads; ++t) {
    std::string thread = "t";
    thread += std::to_string(t);
    writer_.thread_name(core_id_, t, thread);
    writer_.thread_name(core_id_, miss_track(static_cast<int>(t)),
                        thread + " misses");
  }
}

u32 PerfettoTracer::miss_track(int tid) const {
  // Keep miss-stall spans off the residency track: a miss outlives the
  // residency span that issued it (the thread switches away), and
  // partially overlapping slices on one track do not render.
  return 1000 + static_cast<u32>(tid);
}

void PerfettoTracer::open_residency(int tid, Cycle cycle) {
  auto& start = residency_start_[static_cast<std::size_t>(tid)];
  if (start == kNeverCycle) {
    start = cycle;
    commits_in_episode_[static_cast<std::size_t>(tid)] = 0;
  }
}

void PerfettoTracer::close_residency(int tid, Cycle cycle) {
  if (tid < 0) return;
  auto& start = residency_start_[static_cast<std::size_t>(tid)];
  if (start == kNeverCycle) return;
  std::ostringstream args;
  args << "{\"commits\": " << commits_in_episode_[static_cast<std::size_t>(tid)]
       << "}";
  writer_.complete_event("resident", "residency", core_id_,
                         static_cast<u32>(tid), start,
                         cycle > start ? cycle - start : 1, args.str());
  start = kNeverCycle;
}

void PerfettoTracer::on_fetch(Cycle cycle, int tid, u64 /*pc*/,
                              const isa::Inst& /*inst*/) {
  open_residency(tid, cycle);
}

void PerfettoTracer::on_commit(Cycle cycle, int tid, u64 /*pc*/,
                               const isa::Inst& /*inst*/) {
  open_residency(tid, cycle);
  ++commits_in_episode_[static_cast<std::size_t>(tid)];
}

void PerfettoTracer::on_data_miss(Cycle cycle, int tid, u64 pc, Addr addr,
                                  Cycle ready) {
  open_residency(tid, cycle);
  std::ostringstream args;
  args << "{\"addr\": \"0x" << std::hex << addr << std::dec
       << "\", \"pc\": " << pc << "}";
  writer_.complete_event("dmiss", "mem", core_id_, miss_track(tid), cycle,
                         ready > cycle ? ready - cycle : 1, args.str());
}

void PerfettoTracer::on_context_switch(Cycle cycle, int from_tid, int to_tid,
                                       u64 /*resume_pc*/) {
  close_residency(from_tid, cycle);
  // The incoming thread's span opens at its first fetch/commit, so the
  // pipeline-refill gap shows up as empty track time.
  (void)to_tid;
}

void PerfettoTracer::on_mispredict(Cycle cycle, int tid, u64 /*pc*/,
                                   u64 /*actual*/) {
  writer_.instant_event("mispredict", "pipeline", core_id_,
                        static_cast<u32>(tid), cycle);
}

void PerfettoTracer::on_halt(Cycle cycle, int tid) {
  close_residency(tid, cycle);
  writer_.instant_event("halt", "pipeline", core_id_, static_cast<u32>(tid),
                        cycle);
}

void PerfettoTracer::on_reg_fill(Cycle cycle, int tid, u8 arch) {
  writer_.instant_event("fill x" + std::to_string(arch), "regcache", core_id_,
                        static_cast<u32>(tid), cycle);
}

void PerfettoTracer::on_reg_spill(Cycle cycle, int tid, u8 arch) {
  writer_.instant_event("spill x" + std::to_string(arch), "regcache",
                        core_id_, static_cast<u32>(tid), cycle);
}

void PerfettoTracer::on_rollback(Cycle cycle, int tid, u32 flushed) {
  writer_.instant_event("rollback x" + std::to_string(flushed), "regcache",
                        core_id_, static_cast<u32>(tid), cycle);
}

void PerfettoTracer::flush_open_spans(Cycle end_cycle) {
  for (std::size_t t = 0; t < residency_start_.size(); ++t) {
    close_residency(static_cast<int>(t), end_cycle);
  }
}

}  // namespace virec::cpu

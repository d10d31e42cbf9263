#include "analysis/policy_sim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "analysis/thread_walk.hpp"

namespace virec::analysis {

namespace {

/// Per-thread flat register access stream (functional execution).
std::vector<u8> thread_stream(const workloads::Workload& workload,
                              const workloads::WorkloadParams& params,
                              u32 tid, u32 total_threads,
                              u64 max_instructions) {
  const kasm::Program program = workload.program(params);
  std::vector<u8> stream;
  walk_thread(workload, params, program, tid, total_threads, max_instructions,
              [&](u64, const isa::Inst& inst) {
                const isa::RegList regs = isa::all_regs(inst);
                for (u32 i = 0; i < regs.count; ++i) {
                  stream.push_back(regs.regs[i]);
                }
              });
  return stream;
}

}  // namespace

std::vector<TraceAccess> interleaved_trace(
    const workloads::Workload& workload,
    const workloads::WorkloadParams& params, u32 threads,
    u32 accesses_per_episode, u64 max_instructions) {
  if (threads == 0 || accesses_per_episode == 0) {
    throw std::invalid_argument("interleaved_trace: bad arguments");
  }
  std::vector<std::vector<u8>> streams;
  for (u32 t = 0; t < threads; ++t) {
    streams.push_back(
        thread_stream(workload, params, t, threads, max_instructions));
  }
  std::vector<TraceAccess> trace;
  std::vector<std::size_t> cursor(threads, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (u8 t = 0; t < threads; ++t) {
      for (u32 k = 0; k < accesses_per_episode; ++k) {
        if (cursor[t] >= streams[t].size()) break;
        progress = true;
        trace.push_back(TraceAccess{t, streams[t][cursor[t]++]});
      }
    }
  }
  return trace;
}

double belady_hit_rate(const std::vector<TraceAccess>& trace,
                       u32 rf_entries) {
  if (trace.empty()) return 1.0;
  constexpr u64 kNever = std::numeric_limits<u64>::max();

  // next_use[i] = index of the next access to the same key after i.
  std::vector<u64> next_use(trace.size(), kNever);
  std::unordered_map<u32, u64> last_seen;
  for (u64 i = trace.size(); i-- > 0;) {
    const u32 key = trace[i].key();
    auto it = last_seen.find(key);
    next_use[i] = it == last_seen.end() ? kNever : it->second;
    last_seen[key] = i;
  }

  // Resident set: key -> next use index; victim = max next use.
  std::unordered_map<u32, u64> resident;
  u64 hits = 0;
  for (u64 i = 0; i < trace.size(); ++i) {
    const u32 key = trace[i].key();
    auto it = resident.find(key);
    if (it != resident.end()) {
      ++hits;
      it->second = next_use[i];
      continue;
    }
    if (resident.size() >= rf_entries) {
      auto victim = resident.begin();
      for (auto r = resident.begin(); r != resident.end(); ++r) {
        if (r->second > victim->second) victim = r;
      }
      resident.erase(victim);
    }
    resident.emplace(key, next_use[i]);
  }
  return static_cast<double>(hits) / static_cast<double>(trace.size());
}

OfflineHitRates offline_hit_rates(const std::vector<TraceAccess>& trace,
                                  u32 rf_entries, u32 threads) {
  if (rf_entries == 0) {
    throw std::invalid_argument("offline_hit_rates: zero-entry RF");
  }
  OfflineHitRates out;
  out.accesses = trace.size();
  if (trace.empty()) {
    out.opt = out.lru = out.fifo = out.mrt_lru = 1.0;
    return out;
  }
  out.opt = belady_hit_rate(trace, rf_entries);

  struct Entry {
    u32 key;
    u64 last_use;
    u64 inserted;
    u8 tid;
  };

  // Thread recency rank: larger == suspended longer ago == runs sooner
  // again is FALSE — under round-robin the thread suspended most
  // recently runs furthest in the future, so it is victimised first.
  auto run_policy = [&](int policy) {
    std::vector<Entry> entries;
    std::unordered_map<u32, std::size_t> index;
    std::vector<u64> suspended_at(threads, 0);  // episode counter
    u64 episode = 1;
    u8 running = trace[0].tid;
    u64 hits = 0, tick = 0;

    for (const TraceAccess& access : trace) {
      if (access.tid != running) {
        suspended_at[running] = episode++;
        running = access.tid;
      }
      ++tick;
      const u32 key = access.key();
      auto it = index.find(key);
      if (it != index.end()) {
        ++hits;
        entries[it->second].last_use = tick;
        continue;
      }
      if (entries.size() < rf_entries) {
        index[key] = entries.size();
        entries.push_back(Entry{key, tick, tick, access.tid});
        continue;
      }
      // Pick a victim.
      std::size_t victim = 0;
      for (std::size_t e = 1; e < entries.size(); ++e) {
        const Entry& a = entries[e];
        const Entry& b = entries[victim];
        bool better = false;
        switch (policy) {
          case 0:  // LRU
            better = a.last_use < b.last_use;
            break;
          case 1:  // FIFO
            better = a.inserted < b.inserted;
            break;
          case 2: {  // MRT-LRU
            const u64 sa = a.tid == running ? 0 : suspended_at[a.tid];
            const u64 sb = b.tid == running ? 0 : suspended_at[b.tid];
            better = sa != sb ? sa > sb : a.last_use < b.last_use;
            break;
          }
        }
        if (better) victim = e;
      }
      index.erase(entries[victim].key);
      entries[victim] = Entry{key, tick, tick, access.tid};
      index[key] = victim;
    }
    return static_cast<double>(hits) / static_cast<double>(trace.size());
  };

  out.lru = run_policy(0);
  out.fifo = run_policy(1);
  out.mrt_lru = run_policy(2);
  return out;
}

}  // namespace virec::analysis

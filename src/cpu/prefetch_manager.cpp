#include "cpu/prefetch_manager.hpp"

#include <bit>

#include "isa/inst.hpp"

namespace virec::cpu {

namespace {
constexpr u32 kAllRegsMask = (1u << isa::kNumAllocatableRegs) - 1;
}

PrefetchManager::PrefetchManager(const CoreEnv& env, PrefetchMode mode)
    : ContextManager(env, mode == PrefetchMode::kFull ? "prefetch_full"
                                                      : "prefetch_exact"),
      mode_(mode),
      values_(env.num_threads),
      resident_(env.num_threads, 0),
      used_this_episode_(env.num_threads, 0),
      last_episode_used_(env.num_threads, 0),
      started_(env.num_threads, 0),
      prefetch_ready_(env.num_threads, 0) {
  for (auto& v : values_) v.fill(0);
  c_rf_accesses_ = stats_.counter("rf_accesses",
                                  "register-file reads and writes");
  c_reg_fills_ = stats_.counter("reg_fills",
                                "registers filled from the backing store");
  c_reg_spills_ = stats_.counter("reg_spills",
                                 "registers spilled to the backing store");
  c_demand_fills_ = stats_.counter(
      "demand_fills", "fills issued on demand at first post-switch use");
  c_context_switches_ = stats_.counter("context_switches",
                                       "context switches handled");
  c_prefetches_ = stats_.counter("prefetches",
                                 "register prefetches issued at switch");
  c_prefetch_mispredicts_ = stats_.counter(
      "prefetch_mispredicts", "prefetched registers never used before evict");
}

namespace {

/// The 64 B backing lines (8 registers each) that @p mask touches.
u32 line_mask_of(u32 mask) {
  u32 lines = 0;
  for (u32 line = 0; line < 4; ++line) {
    if (mask & (0xffu << (8 * line))) lines |= 1u << line;
  }
  return lines;
}

}  // namespace

void PrefetchManager::write_back(int tid, RegMask mask) {
  const auto& vals = values_[static_cast<std::size_t>(tid)];
  if (mask == kAllRegsMask) {
    backing_write_all(tid, vals);
    return;
  }
  for (u8 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    if (mask & (1u << r)) backing_write(tid, r, vals[r]);
  }
}

void PrefetchManager::load_started(int tid) {
  backing_read_all(tid, values_[static_cast<std::size_t>(tid)]);
  started_[static_cast<std::size_t>(tid)] = true;
}

Cycle PrefetchManager::transfer(int tid, RegMask mask, bool is_write,
                                Cycle now) {
  // The double-buffer datapath moves whole cache lines (8 registers per
  // 64 B line); only the lines covering the transfer set are touched.
  const auto moved = static_cast<double>(std::popcount(mask));
  if (is_write) {
    write_back(tid, mask);
    *c_reg_spills_ += moved;
  } else {
    *c_reg_fills_ += moved;
  }
  Cycle t = now;
  const u32 line_mask = line_mask_of(mask);
  const Addr base = env_.ms->context_base(env_.core_id, static_cast<u32>(tid));
  for (u32 line = 0; line < 4; ++line) {
    if (!(line_mask & (1u << line))) continue;
    t = dcache().access(base + line * mem::kLineBytes, is_write, t).done;
  }
  // The system register line travels with every episode.
  t = dcache()
          .access(env_.ms->sysreg_addr(env_.core_id, static_cast<u32>(tid)),
                  is_write, t)
          .done;
  return t;
}

PrefetchManager::RegMask PrefetchManager::predicted_set(int tid) const {
  if (mode_ == PrefetchMode::kFull) return kAllRegsMask;
  const RegMask hist = last_episode_used_[static_cast<std::size_t>(tid)];
  return hist != 0 ? hist : kAllRegsMask;  // first episode: whole context
}

Cycle PrefetchManager::on_thread_start(int tid, Cycle now) {
  load_started(tid);
  if (prefetched_tid_ < 0) {
    // Very first thread: demand-load its context.
    prefetched_tid_ = tid;
    resident_[static_cast<std::size_t>(tid)] = predicted_set(tid);
    prefetch_ready_[static_cast<std::size_t>(tid)] =
        transfer(tid, predicted_set(tid), /*is_write=*/false, now);
    return prefetch_ready_[static_cast<std::size_t>(tid)];
  }
  return now;
}

DecodeAccess PrefetchManager::on_decode(int tid, const isa::Inst& inst,
                                        Cycle now) {
  DecodeAccess acc;
  acc.ready = now;
  const isa::RegList regs = isa::all_regs(inst);
  RegMask& resident = resident_[static_cast<std::size_t>(tid)];
  RegMask& used = used_this_episode_[static_cast<std::size_t>(tid)];
  ++*c_rf_accesses_;
  for (u32 i = 0; i < regs.count; ++i) {
    const u8 r = regs.regs[i];
    used |= 1u << r;
    if (!(resident & (1u << r))) {
      // Oracle miss: demand-fetch with a decode stall.
      const Addr addr =
          env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), r);
      acc.ready = dcache().access(addr, /*is_write=*/false, acc.ready).done;
      resident |= 1u << r;
      acc.hit = false;
      ++acc.fills;
      ++*c_demand_fills_;
    }
  }
  return acc;
}

Cycle PrefetchManager::on_context_switch(int from_tid, int to_tid,
                                         int predicted_next, Cycle now) {
  const auto to = static_cast<std::size_t>(to_tid);
  ++*c_context_switches_;

  // Close the outgoing episode: remember its used set, write back the
  // registers the strategy must store (full: all; exact: all used).
  // There is no outgoing episode on the first schedule after reset or
  // an idle period (from_tid < 0) — indexing the per-thread arrays
  // with -1 read and spilled out-of-bounds memory.
  Cycle spill_done = now;
  if (from_tid >= 0) {
    const auto from = static_cast<std::size_t>(from_tid);
    const RegMask spill_mask =
        mode_ == PrefetchMode::kFull ? kAllRegsMask : used_this_episode_[from];
    spill_done = transfer(from_tid, spill_mask, /*is_write=*/true, now);
    last_episode_used_[from] = used_this_episode_[from];
    used_this_episode_[from] = 0;
    resident_[from] = 0;
  }

  // The incoming thread should already be prefetched; a wrong
  // prediction degenerates to a demand fetch here.
  Cycle ready;
  if (prefetched_tid_ == to_tid) {
    ready = std::max(now, prefetch_ready_[to]);
  } else {
    ++*c_prefetch_mispredicts_;
    resident_[to] = predicted_set(to_tid);
    ready = transfer(to_tid, resident_[to], /*is_write=*/false, spill_done);
  }

  // Kick the next prefetch (scheduler-provided prediction) to overlap
  // with the incoming thread's execution.
  int next = predicted_next;
  if (next == to_tid ||
      (next >= 0 && !started_[static_cast<std::size_t>(next)])) {
    next = -1;
  }
  if (next >= 0) {
    const auto nx = static_cast<std::size_t>(next);
    resident_[nx] = predicted_set(next);
    prefetch_ready_[nx] =
        transfer(next, resident_[nx], /*is_write=*/false,
                 std::max(spill_done, ready));
    prefetched_tid_ = next;
    ++*c_prefetches_;
  } else {
    prefetched_tid_ = -1;
  }
  return ready;
}

void PrefetchManager::on_thread_halt(int tid, Cycle now) {
  (void)now;
  write_back(tid, kAllRegsMask);
  started_[static_cast<std::size_t>(tid)] = false;
}

void PrefetchManager::warm_transfer(int tid, RegMask mask, bool is_write,
                                    Cycle warm_now) {
  if (is_write) write_back(tid, mask);
  const u32 line_mask = line_mask_of(mask);
  const Addr base = env_.ms->context_base(env_.core_id, static_cast<u32>(tid));
  for (u32 line = 0; line < 4; ++line) {
    if (!(line_mask & (1u << line))) continue;
    dcache().warm_access(base + line * mem::kLineBytes, is_write, warm_now);
  }
  dcache().warm_access(env_.ms->sysreg_addr(env_.core_id,
                                            static_cast<u32>(tid)),
                       is_write, warm_now);
}

void PrefetchManager::warm_thread_start(int tid, Cycle warm_now) {
  // read_reg/write_reg always use values_, so the functional tier must
  // perform the backing -> values_ copy on_thread_start would have
  // done before the thread's first instruction.
  load_started(tid);
  if (prefetched_tid_ < 0) {
    prefetched_tid_ = tid;
    resident_[static_cast<std::size_t>(tid)] = predicted_set(tid);
    warm_transfer(tid, predicted_set(tid), /*is_write=*/false, warm_now);
  }
}

void PrefetchManager::warm_decode(int tid, const isa::Inst& inst,
                                  Cycle warm_now) {
  const isa::RegList regs = isa::all_regs(inst);
  RegMask& resident = resident_[static_cast<std::size_t>(tid)];
  RegMask& used = used_this_episode_[static_cast<std::size_t>(tid)];
  for (u32 i = 0; i < regs.count; ++i) {
    const u8 r = regs.regs[i];
    used |= 1u << r;
    if (!(resident & (1u << r))) {
      dcache().warm_access(
          env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), r),
          /*is_write=*/false, warm_now);
      resident |= 1u << r;
    }
  }
}

void PrefetchManager::warm_context_switch(int from_tid, int to_tid,
                                          int predicted_next, Cycle warm_now) {
  const auto from = static_cast<std::size_t>(from_tid);
  const auto to = static_cast<std::size_t>(to_tid);
  const RegMask spill_mask =
      mode_ == PrefetchMode::kFull ? kAllRegsMask : used_this_episode_[from];
  warm_transfer(from_tid, spill_mask, /*is_write=*/true, warm_now);
  last_episode_used_[from] = used_this_episode_[from];
  used_this_episode_[from] = 0;
  resident_[from] = 0;

  if (prefetched_tid_ != to_tid) {
    resident_[to] = predicted_set(to_tid);
    warm_transfer(to_tid, resident_[to], /*is_write=*/false, warm_now);
  }

  int next = predicted_next;
  if (next == to_tid ||
      (next >= 0 && !started_[static_cast<std::size_t>(next)])) {
    next = -1;
  }
  if (next >= 0) {
    const auto nx = static_cast<std::size_t>(next);
    resident_[nx] = predicted_set(next);
    warm_transfer(next, resident_[nx], /*is_write=*/false, warm_now);
    prefetched_tid_ = next;
  } else {
    prefetched_tid_ = -1;
  }
}

void PrefetchManager::warm_thread_halt(int tid, Cycle /*warm_now*/) {
  write_back(tid, kAllRegsMask);
  started_[static_cast<std::size_t>(tid)] = false;
}

u64 PrefetchManager::read_reg(int tid, isa::RegId reg) {
  return values_[static_cast<std::size_t>(tid)][reg];
}

void PrefetchManager::write_reg(int tid, isa::RegId reg, u64 value) {
  values_[static_cast<std::size_t>(tid)][reg] = value;
}

void PrefetchManager::state(ckpt::Archive& ar) {
  ContextManager::state(ar);
  for (RegValues& regs : values_) ar(regs);
  for (RegMask& m : resident_) ar(m);
  for (RegMask& m : used_this_episode_) ar(m);
  for (RegMask& m : last_episode_used_) ar(m);
  for (u8& s : started_) ar(s);
  ar.vec(prefetch_ready_, "prefetch threads");
  ar.index(prefetched_tid_, env_.num_threads, "prefetched thread");
}

}  // namespace virec::cpu

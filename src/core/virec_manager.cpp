#include "core/virec_manager.hpp"

#include <algorithm>
#include <string>

#include "check/check.hpp"

namespace virec::core {

ViReCConfig make_nsf_config(u32 num_phys_regs) {
  ViReCConfig config;
  config.num_phys_regs = num_phys_regs;
  config.policy = PolicyKind::kPLRU;
  config.bsi.non_blocking = false;
  config.bsi.dummy_dest_fill = false;
  config.bsi.pin_lines = false;
  config.csl.sysreg_prefetch = false;
  return config;
}

ViReCManager::ViReCManager(const ViReCConfig& config, const cpu::CoreEnv& env)
    : ContextManager(env, "virec"),
      config_(config),
      tags_(config.num_phys_regs, env.num_threads, config.policy,
            config.seed),
      rollback_(config.rollback_depth),
      bsi_(config.bsi, env, stats_),
      csl_(config.csl, env.num_threads, bsi_, stats_),
      phys_values_(config.num_phys_regs, 0),
      locked_scratch_(config.num_phys_regs, 0),
      used_this_episode_(env.num_threads, 0),
      last_episode_used_(env.num_threads, 0) {
  c_rf_hits_ = stats_.counter("rf_hits",
                              "decode operands present in the physical RF");
  c_rf_misses_ = stats_.counter(
      "rf_misses", "decode operands filled from the backing store");
  c_rf_spills_ = stats_.counter(
      "rf_spills", "dirty registers written back on eviction");
  c_rf_evictions_ = stats_.counter(
      "rf_evictions", "physical registers reclaimed by the eviction policy");
  c_context_switches_ =
      stats_.counter("context_switches", "context switches handled");
  c_group_spills_ = stats_.counter(
      "group_spills", "spill-group writebacks batched at context switch");
  c_switch_prefetch_fills_ = stats_.counter(
      "switch_prefetch_fills",
      "registers prefetched into the RF at context switch");
  hist_rollback_depth_ = stats_.histogram(
      "rollback_depth", "rollback-queue occupancy sampled at each decode");
  dist_decode_stall_ = stats_.distribution(
      "decode_stall", "cycles a missing decode waited for its fills");
}

Cycle ViReCManager::on_thread_start(int tid, Cycle now) {
  // General-purpose registers are demand-filled; only the sysreg line
  // must be present before the thread can fetch.
  return csl_.on_thread_start(tid, now);
}

int ViReCManager::allocate_entry(int tid, isa::RegId arch,
                                 std::vector<u8>& locked, Cycle now,
                                 Cycle& spill_done) {
  TagStore::Victim victim;
  const int idx = tags_.allocate(tid, arch, locked, &victim);
  if (idx < 0) return -1;
  if (victim.valid && victim.dirty) {
    // Functional value moves to the backing store immediately; the
    // timing cost is a background BSI spill.
    backing_write(victim.tid, victim.arch,
                  phys_values_[static_cast<u32>(idx)]);
    spill_done =
        std::max(spill_done, bsi_.spill(victim.tid, victim.arch, now));
    ++*c_rf_spills_;
    if (tracer_ != nullptr) {
      tracer_->on_reg_spill(now, victim.tid, victim.arch);
    }
  }
  if (victim.valid) ++*c_rf_evictions_;
  locked[static_cast<u32>(idx)] = 1;
  return idx;
}

cpu::DecodeAccess ViReCManager::on_decode(int tid, const isa::Inst& inst,
                                          Cycle now) {
  cpu::DecodeAccess acc;
  acc.ready = now;

  const isa::RegList srcs = isa::src_regs(inst);
  const isa::RegList dsts = isa::dst_regs(inst);

  // Registers this instruction references must not evict each other
  // while its misses resolve.
  std::vector<u8>& locked = locked_scratch_;
  std::fill(locked.begin(), locked.end(), u8{0});
  RollbackQueue::Entry rb;
  rb.is_mem = isa::is_mem(inst.op);

  Cycle spill_done = now;

  auto record = [&](int idx, isa::RegId arch) {
    used_this_episode_[static_cast<std::size_t>(tid)] |= 1u << arch;
    locked[static_cast<u32>(idx)] = 1;
    if (rb.count < rb.phys.size()) {
      rb.phys[rb.count] = static_cast<u16>(idx);
      rb.tid[rb.count] = static_cast<u8>(tid);
      rb.arch[rb.count] = arch;
      ++rb.count;
    }
  };

  // Source operands: must hold the architectural value before decode
  // completes.
  for (u32 i = 0; i < srcs.count; ++i) {
    const isa::RegId arch = srcs.regs[i];
    int idx = tags_.lookup(tid, arch);
    if (idx >= 0) {
      ++*c_rf_hits_;
      tags_.touch(static_cast<u32>(idx));
    } else {
      ++*c_rf_misses_;
      idx = allocate_entry(tid, arch, locked, now, spill_done);
      if (idx < 0) {
        // Pathological: every entry locked by this instruction. Serve
        // the operand straight from the backing store.
        acc.ready = std::max(acc.ready, bsi_.fill(tid, arch, acc.ready));
        acc.hit = false;
        ++acc.fills;
        continue;
      }
      phys_values_[static_cast<u32>(idx)] = backing_read(tid, arch);
      acc.ready = std::max(acc.ready, bsi_.fill(tid, arch, now));
      acc.hit = false;
      ++acc.fills;
      if (tracer_ != nullptr) tracer_->on_reg_fill(now, tid, arch);
    }
    record(idx, arch);
  }

  // Destination-only operands: allocate, optionally with a dummy fill.
  for (u32 i = 0; i < dsts.count; ++i) {
    const isa::RegId arch = dsts.regs[i];
    bool also_src = false;
    for (u32 j = 0; j < srcs.count; ++j) {
      if (srcs.regs[j] == arch) {
        also_src = true;
        break;
      }
    }
    if (also_src) continue;
    int idx = tags_.lookup(tid, arch);
    if (idx >= 0) {
      ++*c_rf_hits_;
      tags_.touch(static_cast<u32>(idx));
    } else {
      ++*c_rf_misses_;
      idx = allocate_entry(tid, arch, locked, now, spill_done);
      if (idx < 0) continue;  // handled functionally via backing store
      // The architectural value is dead (pure destination); install the
      // current backing value so partial-width updates stay correct,
      // but do not put the fill latency on the critical path.
      phys_values_[static_cast<u32>(idx)] = backing_read(tid, arch);
      const Cycle done = bsi_.dummy_fill(tid, arch, now);
      acc.ready = std::max(acc.ready, done);
      if (done > now) {
        acc.hit = false;
        ++acc.fills;
      }
    }
    record(idx, arch);
  }

  rollback_.push(rb);
  hist_rollback_depth_->record(static_cast<double>(rollback_.size()));
  if (check_ != nullptr) {
    tags_.audit(check_);
    VIREC_CHECK(check_, rollback_.size() <= rollback_.depth(),
                "rollback queue holds " + std::to_string(rollback_.size()) +
                    " entries, depth " + std::to_string(rollback_.depth()));
  }
  if (!acc.hit) {
    dist_decode_stall_->record(
        static_cast<double>(acc.ready > now ? acc.ready - now : 0));
  }
  acc.spills = static_cast<u32>(*c_rf_spills_);
  return acc;
}

void ViReCManager::on_commit(int tid, const isa::Inst& inst) {
  (void)tid;
  (void)inst;
  if (!rollback_.empty()) rollback_.pop_oldest();
}

void ViReCManager::on_mispredict_flush(int tid) {
  (void)tid;
  // Wrong-path instructions never replay; drop their entries without
  // resetting C bits.
  rollback_.clear();
}

Cycle ViReCManager::on_context_switch(int from_tid, int to_tid,
                                      int predicted_next, Cycle now) {
  const u32 flushed = rollback_.size();
  if (tracer_ != nullptr && flushed > 0) {
    tracer_->on_rollback(now, from_tid >= 0 ? from_tid : to_tid, flushed);
  }
  rollback_.flush_to(tags_);
  tags_.on_context_switch(from_tid, to_tid);
  ++*c_context_switches_;

  if (from_tid >= 0) {
    const auto from = static_cast<std::size_t>(from_tid);
    last_episode_used_[from] = used_this_episode_[from];
    used_this_episode_[from] = 0;

    if (config_.group_spill) {
      // Future-work "group evictions": eagerly write back the
      // suspended thread's dirty committed registers in one burst.
      // Their entries stay valid (and clean), so when the policy later
      // victimises them no spill sits on anyone's critical path.
      Cycle t = now;
      for (u32 i = 0; i < tags_.size(); ++i) {
        const RfEntry& entry = tags_.entry(i);
        if (!entry.valid || static_cast<int>(entry.tid) != from_tid ||
            !entry.dirty || !entry.c_bit) {
          continue;
        }
        backing_write(from_tid, entry.arch, phys_values_[i]);
        t = bsi_.spill(from_tid, entry.arch, t);
        tags_.clear_dirty(i);
        ++*c_group_spills_;
      }
    }
  }

  const Cycle ready = csl_.on_switch(from_tid, to_tid, predicted_next, now);

  if (config_.switch_prefetch && to_tid >= 0) {
    // Future-work prefetch hybrid: pull the incoming thread's
    // previous-episode registers into the RF in the background. The
    // BSI traffic overlaps the pipeline refill; wrongly predicted
    // registers simply occupy entries until evicted.
    const auto to = static_cast<std::size_t>(to_tid);
    const u32 want = last_episode_used_[to];
    std::vector<u8> locked(config_.num_phys_regs, 0);
    Cycle t = now;
    for (u8 arch = 0; arch < isa::kNumAllocatableRegs; ++arch) {
      if (!(want & (1u << arch))) continue;
      if (tags_.lookup(to_tid, arch) >= 0) continue;
      Cycle spill_done = t;
      const int idx = allocate_entry(to_tid, arch, locked, t, spill_done);
      if (idx < 0) break;
      phys_values_[static_cast<u32>(idx)] = backing_read(to_tid, arch);
      t = bsi_.fill(to_tid, arch, t);
      ++*c_switch_prefetch_fills_;
    }
  }
  return ready;
}

bool ViReCManager::switch_allowed(Cycle now) const {
  return !bsi_.fill_outstanding(now);
}

Cycle ViReCManager::next_event_cycle(Cycle now) const {
  // The only autonomous transition is the CSL mask clearing when the
  // outstanding BSI fill completes; everything else happens inside
  // pipeline hooks.
  return bsi_.mask_clear_cycle(now);
}

void ViReCManager::on_thread_halt(int tid, Cycle now) {
  Cycle t = now;
  for (u32 i = 0; i < tags_.size(); ++i) {
    const RfEntry& entry = tags_.entry(i);
    if (!entry.valid || static_cast<int>(entry.tid) != tid) continue;
    if (entry.dirty) {
      backing_write(tid, entry.arch, phys_values_[i]);
      t = bsi_.spill(tid, entry.arch, t);
    }
    tags_.invalidate(i);
  }
}

void ViReCManager::warm_thread_start(int tid, Cycle warm_now) {
  // read_reg/write_reg are always functional (tags -> phys_values_,
  // else backing store); this is warmth only: sysreg buffer occupancy
  // and its dcache line, as on_thread_start would leave them.
  csl_.warm_thread_start(tid, warm_now);
}

int ViReCManager::warm_allocate(int tid, isa::RegId arch,
                                std::vector<u8>& locked, Cycle warm_now) {
  TagStore::Victim victim;
  const int idx = tags_.allocate(tid, arch, locked, &victim);
  if (idx < 0) return -1;
  if (victim.valid && victim.dirty) {
    backing_write(victim.tid, victim.arch,
                  phys_values_[static_cast<u32>(idx)]);
    bsi_.warm_reg_transfer(victim.tid, victim.arch, /*is_write=*/true,
                           warm_now);
  }
  locked[static_cast<u32>(idx)] = 1;
  return idx;
}

void ViReCManager::warm_decode(int tid, const isa::Inst& inst,
                               Cycle warm_now) {
  const isa::RegList srcs = isa::src_regs(inst);
  const isa::RegList dsts = isa::dst_regs(inst);

  std::vector<u8>& locked = locked_scratch_;
  std::fill(locked.begin(), locked.end(), u8{0});
  u32& used = used_this_episode_[static_cast<std::size_t>(tid)];

  for (u32 i = 0; i < srcs.count; ++i) {
    const isa::RegId arch = srcs.regs[i];
    used |= 1u << arch;
    int idx = tags_.lookup(tid, arch);
    if (idx >= 0) {
      tags_.touch(static_cast<u32>(idx));
    } else {
      idx = warm_allocate(tid, arch, locked, warm_now);
      bsi_.warm_reg_transfer(tid, arch, /*is_write=*/false, warm_now);
      if (idx < 0) continue;  // pathological: served from the backing store
      phys_values_[static_cast<u32>(idx)] = backing_read(tid, arch);
    }
    locked[static_cast<u32>(idx)] = 1;
  }

  for (u32 i = 0; i < dsts.count; ++i) {
    const isa::RegId arch = dsts.regs[i];
    bool also_src = false;
    for (u32 j = 0; j < srcs.count; ++j) {
      if (srcs.regs[j] == arch) {
        also_src = true;
        break;
      }
    }
    if (also_src) continue;
    used |= 1u << arch;
    int idx = tags_.lookup(tid, arch);
    if (idx >= 0) {
      tags_.touch(static_cast<u32>(idx));
    } else {
      idx = warm_allocate(tid, arch, locked, warm_now);
      if (idx < 0) continue;
      phys_values_[static_cast<u32>(idx)] = backing_read(tid, arch);
      bsi_.warm_reg_transfer(tid, arch, /*is_write=*/false, warm_now);
    }
    locked[static_cast<u32>(idx)] = 1;
  }
  if (check_ != nullptr) tags_.audit(check_);
}

void ViReCManager::warm_context_switch(int from_tid, int to_tid,
                                       int predicted_next, Cycle warm_now) {
  // The functional tier commits every instruction it executes, so the
  // rollback queue is empty here; only the persistent structures move.
  tags_.on_context_switch(from_tid, to_tid);

  if (from_tid >= 0) {
    const auto from = static_cast<std::size_t>(from_tid);
    last_episode_used_[from] = used_this_episode_[from];
    used_this_episode_[from] = 0;

    if (config_.group_spill) {
      for (u32 i = 0; i < tags_.size(); ++i) {
        const RfEntry& entry = tags_.entry(i);
        if (!entry.valid || static_cast<int>(entry.tid) != from_tid ||
            !entry.dirty || !entry.c_bit) {
          continue;
        }
        backing_write(from_tid, entry.arch, phys_values_[i]);
        bsi_.warm_reg_transfer(from_tid, entry.arch, /*is_write=*/true,
                               warm_now);
        tags_.clear_dirty(i);
      }
    }
  }

  csl_.warm_switch(from_tid, to_tid, predicted_next, warm_now);

  if (config_.switch_prefetch && to_tid >= 0) {
    const auto to = static_cast<std::size_t>(to_tid);
    const u32 want = last_episode_used_[to];
    std::vector<u8> locked(config_.num_phys_regs, 0);
    for (u8 arch = 0; arch < isa::kNumAllocatableRegs; ++arch) {
      if (!(want & (1u << arch))) continue;
      if (tags_.lookup(to_tid, arch) >= 0) continue;
      const int idx = warm_allocate(to_tid, arch, locked, warm_now);
      if (idx < 0) break;
      phys_values_[static_cast<u32>(idx)] = backing_read(to_tid, arch);
      bsi_.warm_reg_transfer(to_tid, arch, /*is_write=*/false, warm_now);
    }
  }
}

void ViReCManager::warm_thread_halt(int tid, Cycle warm_now) {
  for (u32 i = 0; i < tags_.size(); ++i) {
    const RfEntry& entry = tags_.entry(i);
    if (!entry.valid || static_cast<int>(entry.tid) != tid) continue;
    if (entry.dirty) {
      backing_write(tid, entry.arch, phys_values_[i]);
      bsi_.warm_reg_transfer(tid, entry.arch, /*is_write=*/true, warm_now);
    }
    tags_.invalidate(i);
  }
}

u64 ViReCManager::read_reg(int tid, isa::RegId reg) {
  const int idx = tags_.lookup(tid, reg);
  if (idx >= 0) return phys_values_[static_cast<u32>(idx)];
  return backing_read(tid, reg);
}

void ViReCManager::write_reg(int tid, isa::RegId reg, u64 value) {
  const int idx = tags_.lookup(tid, reg);
  if (idx >= 0) {
    phys_values_[static_cast<u32>(idx)] = value;
    tags_.mark_dirty(static_cast<u32>(idx));
  } else {
    backing_write(tid, reg, value);
  }
}

double ViReCManager::rf_hit_rate() const {
  const double hits = stats_.get("rf_hits");
  const double misses = stats_.get("rf_misses");
  const double total = hits + misses;
  return total == 0.0 ? 1.0 : hits / total;
}

void ViReCManager::state(ckpt::Archive& ar) {
  ContextManager::state(ar);
  tags_.state(ar);
  rollback_.state(ar, tags_);
  bsi_.state(ar);
  csl_.state(ar);
  ar.vec(phys_values_, "ViReC phys regs");
  // locked_scratch_ is per-decode scratch; not state.
  ar.length(used_this_episode_.size(), "ViReC threads");
  for (u32& m : used_this_episode_) ar(m);
  for (u32& m : last_episode_used_) ar(m);
}

}  // namespace virec::core

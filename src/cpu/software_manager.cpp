#include "cpu/software_manager.hpp"

namespace virec::cpu {

SoftwareManager::SoftwareManager(const CoreEnv& env)
    : ContextManager(env, "swctx") {
  c_rf_accesses_ = stats_.counter("rf_accesses",
                                  "register-file reads and writes");
  c_context_saves_ = stats_.counter(
      "context_saves", "full software context saves to memory at switch");
  c_context_loads_ = stats_.counter(
      "context_loads", "full software context loads from memory at switch");
}

Cycle SoftwareManager::save_context(int tid, Cycle now) {
  // A software trampoline saves registers with stp pairs: one dcache
  // access per two registers.
  backing_write_all(tid, rf_);
  Cycle t = now;
  for (u8 r = 0; r < isa::kNumAllocatableRegs; r += 2) {
    const Addr addr = env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), r);
    t = dcache().access(addr, /*is_write=*/true, t).done;
  }
  // System register line (PC, NZCV, ...).
  t = dcache()
          .access(env_.ms->sysreg_addr(env_.core_id, static_cast<u32>(tid)),
                  /*is_write=*/true, t)
          .done;
  ++*c_context_saves_;
  return t;
}

Cycle SoftwareManager::load_context(int tid, Cycle now) {
  // ldp pairs: one dcache access per two registers.
  backing_read_all(tid, rf_);
  Cycle t = now;
  for (u8 r = 0; r < isa::kNumAllocatableRegs; r += 2) {
    const Addr addr = env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), r);
    t = dcache().access(addr, /*is_write=*/false, t).done;
  }
  t = dcache()
          .access(env_.ms->sysreg_addr(env_.core_id, static_cast<u32>(tid)),
                  /*is_write=*/false, t)
          .done;
  resident_tid_ = tid;
  ++*c_context_loads_;
  return t;
}

DecodeAccess SoftwareManager::on_decode(int tid, const isa::Inst& inst,
                                        Cycle now) {
  (void)inst;
  ++*c_rf_accesses_;
  DecodeAccess acc;
  acc.ready = now;
  if (resident_tid_ != tid) {
    // First decode of a newly scheduled thread pulls in its context.
    Cycle t = now;
    if (resident_tid_ >= 0) t = save_context(resident_tid_, t);
    acc.ready = load_context(tid, t);
    acc.hit = false;
  }
  return acc;
}

Cycle SoftwareManager::on_context_switch(int from_tid, int to_tid,
                                         int predicted_next, Cycle now) {
  (void)from_tid;
  (void)to_tid;
  (void)predicted_next;
  // The save/restore cost is charged when the incoming thread first
  // decodes (on_decode), mirroring a software trampoline that runs
  // before the thread's own instructions.
  return now;
}

void SoftwareManager::on_thread_halt(int tid, Cycle now) {
  if (resident_tid_ == tid) {
    save_context(tid, now);
    resident_tid_ = -1;
  }
}

void SoftwareManager::warm_decode(int tid, const isa::Inst& /*inst*/,
                                  Cycle warm_now) {
  // read_reg falls back to the backing store for non-resident threads,
  // so this is warmth only: perform the save/load residency swap
  // functionally, mirroring the dcache footprint of the trampoline.
  if (resident_tid_ == tid) return;
  if (resident_tid_ >= 0) warm_save(resident_tid_, warm_now);
  backing_read_all(tid, rf_);
  warm_footprint(tid, /*is_write=*/false, warm_now);
  resident_tid_ = tid;
}

void SoftwareManager::warm_thread_halt(int tid, Cycle warm_now) {
  if (resident_tid_ != tid) return;
  warm_save(tid, warm_now);
  resident_tid_ = -1;
}

void SoftwareManager::warm_save(int tid, Cycle warm_now) {
  backing_write_all(tid, rf_);
  warm_footprint(tid, /*is_write=*/true, warm_now);
}

void SoftwareManager::warm_footprint(int tid, bool is_write, Cycle warm_now) {
  // The dcache lines save_context/load_context touch, in their order.
  for (u8 r = 0; r < isa::kNumAllocatableRegs; r += 2) {
    dcache().warm_access(
        env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), r), is_write,
        warm_now);
  }
  dcache().warm_access(
      env_.ms->sysreg_addr(env_.core_id, static_cast<u32>(tid)), is_write,
      warm_now);
}

u64 SoftwareManager::read_reg(int tid, isa::RegId reg) {
  if (tid == resident_tid_) return rf_[reg];
  return backing_read(tid, reg);
}

void SoftwareManager::write_reg(int tid, isa::RegId reg, u64 value) {
  if (tid == resident_tid_) {
    rf_[reg] = value;
  } else {
    backing_write(tid, reg, value);
  }
}

void SoftwareManager::state(ckpt::Archive& ar) {
  ContextManager::state(ar);
  ar.index(resident_tid_, env_.num_threads, "software resident thread");
  ar(rf_);
}

}  // namespace virec::cpu

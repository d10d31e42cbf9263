#include "cpu/banked_manager.hpp"

#include <string>

#include "check/check.hpp"

namespace virec::cpu {

namespace {

std::string bank_access_msg(int tid, isa::RegId reg, u32 num_threads) {
  return "banked RF access (tid " + std::to_string(tid) + ", x" +
         std::to_string(reg) + ") outside the " +
         std::to_string(num_threads) + "-bank * " +
         std::to_string(isa::kNumAllocatableRegs) + "-register file";
}

}  // namespace

BankedManager::BankedManager(const CoreEnv& env)
    : ContextManager(env, "banked"), banks_(env.num_threads) {
  for (auto& bank : banks_) bank.fill(0);
  c_rf_accesses_ = stats_.counter("rf_accesses",
                                  "register-file reads and writes");
  c_context_loads_ = stats_.counter(
      "context_loads", "bank activations on context switch");
}

Cycle BankedManager::on_thread_start(int tid, Cycle now) {
  // Fetch the offloaded context (4 GPR lines + 1 sysreg line) from the
  // reserved region into the bank through the dcache.
  const Addr base = env_.ms->context_base(env_.core_id, static_cast<u32>(tid));
  Cycle ready = now;
  for (u32 line = 0; line < 5; ++line) {
    const auto acc = dcache().access(base + line * mem::kLineBytes,
                                     /*is_write=*/false, now,
                                     /*reg_region=*/false);
    ready = std::max(ready, acc.done);
  }
  for (u8 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    banks_[static_cast<std::size_t>(tid)][r] = backing_read(tid, r);
  }
  ++*c_context_loads_;
  return ready;
}

DecodeAccess BankedManager::on_decode(int tid, const isa::Inst& inst,
                                      Cycle now) {
  (void)tid;
  (void)inst;
  ++*c_rf_accesses_;
  return DecodeAccess{.ready = now, .fills = 0, .spills = 0, .hit = true};
}

void BankedManager::on_thread_halt(int tid, Cycle now) {
  (void)now;
  for (u8 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    backing_write(tid, r, banks_[static_cast<std::size_t>(tid)][r]);
  }
}

void BankedManager::warm_thread_start(int tid, Cycle warm_now) {
  // read_reg/write_reg serve from the bank, so the functional tier must
  // perform the backing -> bank copy on_thread_start would have done.
  const Addr base = env_.ms->context_base(env_.core_id, static_cast<u32>(tid));
  for (u32 line = 0; line < 5; ++line) {
    dcache().warm_access(base + line * mem::kLineBytes, /*is_write=*/false,
                         warm_now);
  }
  for (u8 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    banks_[static_cast<std::size_t>(tid)][r] = backing_read(tid, r);
  }
}

void BankedManager::warm_thread_halt(int tid, Cycle /*warm_now*/) {
  for (u8 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    backing_write(tid, r, banks_[static_cast<std::size_t>(tid)][r]);
  }
}

u64 BankedManager::read_reg(int tid, isa::RegId reg) {
  // Bank-ownership invariant: a thread may only touch its own bank, and
  // only allocatable registers (xzr never reaches the RF).
  VIREC_CHECK(check_,
              tid >= 0 && static_cast<u32>(tid) < env_.num_threads &&
                  reg < isa::kNumAllocatableRegs,
              bank_access_msg(tid, reg, env_.num_threads));
  return banks_[static_cast<std::size_t>(tid)][reg];
}

void BankedManager::write_reg(int tid, isa::RegId reg, u64 value) {
  VIREC_CHECK(check_,
              tid >= 0 && static_cast<u32>(tid) < env_.num_threads &&
                  reg < isa::kNumAllocatableRegs,
              bank_access_msg(tid, reg, env_.num_threads));
  banks_[static_cast<std::size_t>(tid)][reg] = value;
}

void BankedManager::state(ckpt::Archive& ar) {
  ContextManager::state(ar);
  for (auto& bank : banks_) ar(bank);
}

}  // namespace virec::cpu

// Banked register file (Figure 3(b) of the paper): one full 32-entry
// bank per hardware thread. Every decode access hits; the cost is area
// (banks * 32 registers) and a hard cap on thread count. The initial
// offloaded context is fetched from the reserved memory region once,
// when the thread starts.
#pragma once

#include <vector>

#include "cpu/context_manager.hpp"

namespace virec::cpu {

class BankedManager final : public ContextManager {
 public:
  explicit BankedManager(const CoreEnv& env);

  Cycle on_thread_start(int tid, Cycle now) override;
  DecodeAccess on_decode(int tid, const isa::Inst& inst, Cycle now) override;
  void on_thread_halt(int tid, Cycle now) override;
  void warm_thread_start(int tid, Cycle warm_now) override;
  void warm_thread_halt(int tid, Cycle warm_now) override;

  // RegisterFileIO.
  u64 read_reg(int tid, isa::RegId reg) override;
  void write_reg(int tid, isa::RegId reg, u64 value) override;

  void state(ckpt::Archive& ar) override;

 private:
  // banks_[tid][arch]
  std::vector<std::array<u64, isa::kNumAllocatableRegs>> banks_;
  // Hot-path counter handles (owned by stats_).
  double* c_rf_accesses_ = nullptr;
  double* c_context_loads_ = nullptr;
};

}  // namespace virec::cpu

// Software context switching (Figure 3(a) of the paper): a single
// 32-entry register file; on every context switch the previous thread's
// registers and system registers are stored to memory and the next
// thread's are loaded, one 8-byte access at a time through the dcache,
// exactly like a software trap handler would.
#pragma once

#include <array>
#include <vector>

#include "cpu/context_manager.hpp"

namespace virec::cpu {

class SoftwareManager final : public ContextManager {
 public:
  explicit SoftwareManager(const CoreEnv& env);

  DecodeAccess on_decode(int tid, const isa::Inst& inst, Cycle now) override;
  Cycle on_context_switch(int from_tid, int to_tid, int predicted_next,
                          Cycle now) override;
  void on_thread_halt(int tid, Cycle now) override;
  void warm_decode(int tid, const isa::Inst& inst, Cycle warm_now) override;
  void warm_thread_halt(int tid, Cycle warm_now) override;

  // RegisterFileIO: only the resident thread has live values; all other
  // threads' values live in the backing region.
  u64 read_reg(int tid, isa::RegId reg) override;
  void write_reg(int tid, isa::RegId reg, u64 value) override;

  void state(ckpt::Archive& ar) override;

 private:
  /// Store the resident context to memory (one store per register).
  Cycle save_context(int tid, Cycle now);
  /// Load @p tid's context from memory into the RF.
  Cycle load_context(int tid, Cycle now);
  /// Functional save_context: store the RF and warm its dcache lines.
  void warm_save(int tid, Cycle warm_now);
  /// Warm the dcache lines a context save or load touches.
  void warm_footprint(int tid, bool is_write, Cycle warm_now);

  int resident_tid_ = -1;
  RegValues rf_{};
  // Hot-path counter handles (owned by stats_).
  double* c_rf_accesses_ = nullptr;
  double* c_context_saves_ = nullptr;
  double* c_context_loads_ = nullptr;
};

}  // namespace virec::cpu

// Simplified out-of-order comparator core (the Neoverse-N1-class
// anchor in Figure 1 / Table 1 of the paper).
//
// Trace-driven dataflow timing: instructions execute functionally in
// program order while their dispatch/issue/complete/commit times are
// derived from operand readiness and resource limits (fetch width, ROB
// occupancy, LQ/SQ entries, dcache ports and MSHRs via the cache
// model). Branches are assumed predicted (the paper's workloads are
// loop kernels with near-perfect prediction); memory-level parallelism
// — the property the paper's comparison actually exercises — is limited
// by the LQ, the MSHRs and DRAM bank contention.
#pragma once

#include <array>

#include "common/cycle_account.hpp"
#include "common/stats.hpp"
#include "isa/semantics.hpp"
#include "kasm/program.hpp"
#include "mem/memory_system.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::cpu {

struct OooCoreConfig {
  u32 width = 8;        // fetch/dispatch/commit width
  u32 rob_entries = 224;
  u32 lq_entries = 113;
  u32 sq_entries = 120;
  u32 mispredict_penalty = 12;
  u64 max_instructions = 2'000'000'000ull;
};

/// Plain array register file for the OoO model (no context switching).
class ArrayRegFile final : public isa::RegisterFileIO {
 public:
  u64 read_reg(int tid, isa::RegId reg) override {
    (void)tid;
    return regs_[reg];
  }
  void write_reg(int tid, isa::RegId reg, u64 value) override {
    (void)tid;
    regs_[reg] = value;
  }
  std::array<u64, isa::kNumAllocatableRegs>& regs() { return regs_; }

 private:
  std::array<u64, isa::kNumAllocatableRegs> regs_{};
};

class OooCore {
 public:
  OooCore(const OooCoreConfig& config, mem::MemorySystem& ms, u32 core_id,
          const kasm::Program& program);

  /// Run the program (single thread) to its halt; returns total cycles.
  Cycle run(u64 entry_pc = 0);

  u64 instructions() const { return instructions_; }
  Cycle cycles() const { return last_commit_; }
  double ipc() const {
    return last_commit_ == 0 ? 0.0
                             : static_cast<double>(instructions_) /
                                   static_cast<double>(last_commit_);
  }
  ArrayRegFile& regfile() { return rf_; }
  const StatSet& stats() const { return stats_; }

  /// Coarse commit-gap cycle accounting (closes against cycles() by
  /// construction; see run() for the attribution rules).
  const CycleAccount& cycle_account() const { return acct_; }

  /// Attach the lockstep oracle (nullptr detaches). Both core models
  /// support checked execution, so either can be validated in place.
  void set_check(check::CheckContext* check) { check_ = check; }

 private:
  OooCoreConfig config_;
  mem::MemorySystem& ms_;
  u32 core_id_;
  const kasm::Program& program_;
  ArrayRegFile rf_;
  u64 instructions_ = 0;
  Cycle last_commit_ = 0;
  StatSet stats_;
  CycleAccount acct_;
  // Counter handles (owned by stats_).
  double* c_load_hits_ = nullptr;
  double* c_load_misses_ = nullptr;
  double* c_ret_redirects_ = nullptr;
  check::CheckContext* check_ = nullptr;
};

}  // namespace virec::cpu

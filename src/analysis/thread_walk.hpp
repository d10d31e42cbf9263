// Functional single-thread walk shared by the offline analyses
// (register-usage profile, interleaved policy traces): one workload
// thread runs on the ISA interpreter, with no timing, from its initial
// memory and register context until it halts.
#pragma once

#include <stdexcept>
#include <string>

#include "cpu/ooo_core.hpp"  // ArrayRegFile
#include "isa/semantics.hpp"
#include "workloads/workload.hpp"

namespace virec::analysis {

/// Run thread @p tid of @p total_threads through @p program (built from
/// @p workload and @p params) until it halts, calling on_inst(pc, inst)
/// once per executed instruction, before it executes. Throws
/// std::runtime_error instead of executing more than
/// @p max_instructions instructions.
template <typename OnInst>
void walk_thread(const workloads::Workload& workload,
                 const workloads::WorkloadParams& params,
                 const kasm::Program& program, u32 tid, u32 total_threads,
                 u64 max_instructions, OnInst&& on_inst) {
  mem::SparseMemory memory;
  workload.init_memory(memory, params, total_threads);
  const workloads::RegContext init =
      workload.thread_regs(params, tid, total_threads);
  cpu::ArrayRegFile rf;
  for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    rf.write_reg(0, static_cast<isa::RegId>(r), init[r]);
  }
  u64 pc = 0;
  u8 nzcv = 0;
  for (u64 executed = 0;; ++executed) {
    if (executed >= max_instructions) {
      throw std::runtime_error(
          "analysis: thread " + std::to_string(tid) + " of " +
          workload.name() + " exceeded the instruction cap of " +
          std::to_string(max_instructions));
    }
    const isa::Inst& inst = program.at(pc);
    on_inst(pc, inst);
    const isa::ExecResult res = isa::execute(inst, pc, 0, rf, memory, nzcv);
    if (res.halted) return;
    pc = res.next_pc;
  }
}

}  // namespace virec::analysis

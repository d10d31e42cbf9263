#include "analysis/reg_usage.hpp"

#include <algorithm>
#include <vector>

#include "analysis/thread_walk.hpp"

namespace virec::analysis {

RegUsageReport profile_registers(const workloads::Workload& workload,
                                 const workloads::WorkloadParams& params,
                                 u64 max_instructions) {
  const kasm::Program program = workload.program(params);
  program.validate();

  std::vector<u64> exec_count(program.size(), 0);
  RegUsageReport report;
  walk_thread(workload, params, program, /*tid=*/0, /*total_threads=*/1,
              max_instructions, [&](u64 pc, const isa::Inst& inst) {
                ++exec_count[pc];
                ++report.instructions;
                const isa::RegList regs = isa::all_regs(inst);
                for (u32 i = 0; i < regs.count; ++i) {
                  ++report.access_counts[regs.regs[i]];
                }
              });

  // Classify instructions: the innermost loop executes at least half as
  // often as the hottest instruction.
  u64 hottest = 0;
  for (u64 c : exec_count) hottest = std::max(hottest, c);
  std::array<bool, isa::kNumAllocatableRegs> total_seen{};
  std::array<bool, isa::kNumAllocatableRegs> inner_seen{};
  for (u64 i = 0; i < program.size(); ++i) {
    if (exec_count[i] == 0) continue;
    const bool inner = exec_count[i] * 2 >= hottest;
    const isa::RegList regs = isa::all_regs(program.at(i));
    for (u32 r = 0; r < regs.count; ++r) {
      total_seen[regs.regs[r]] = true;
      if (inner) inner_seen[regs.regs[r]] = true;
    }
  }
  for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
    if (total_seen[r]) ++report.total_regs;
    if (inner_seen[r]) ++report.inner_regs;
  }
  return report;
}

}  // namespace virec::analysis

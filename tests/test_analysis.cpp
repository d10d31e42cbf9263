// Analysis module tests: the register-usage profiler must agree with
// each kernel's declared active context (the Figure 2 data).
#include <gtest/gtest.h>

#include "analysis/reg_usage.hpp"

namespace virec::analysis {
namespace {

workloads::WorkloadParams tiny_params() {
  workloads::WorkloadParams params;
  params.iters_per_thread = 64;
  params.elements = 1 << 12;
  return params;
}

class RegUsageTest
    : public ::testing::TestWithParam<const workloads::Workload*> {};

TEST_P(RegUsageTest, InnerRegsMatchDeclaredActiveContext) {
  const workloads::Workload& w = *GetParam();
  const RegUsageReport report = profile_registers(w, tiny_params());
  EXPECT_EQ(report.inner_regs, w.active_regs()) << w.name();
  EXPECT_GE(report.total_regs, report.inner_regs);
  EXPECT_GT(report.instructions, 0u);
}

TEST_P(RegUsageTest, UtilisationIsWellBelowFullContext) {
  // Figure 2's observation: memory-intensive kernels use a small
  // fraction of the 31-register context in their inner loops.
  const workloads::Workload& w = *GetParam();
  const RegUsageReport report = profile_registers(w, tiny_params());
  EXPECT_LT(report.inner_fraction(), 0.5) << w.name();
}

INSTANTIATE_TEST_SUITE_P(AllKernels, RegUsageTest,
                         ::testing::ValuesIn(workloads::workload_registry()),
                         [](const auto& info) { return info.param->name(); });

TEST(RegUsage, AccessCountsConcentrateOnInnerRegs) {
  const auto& gather = workloads::find_workload("gather");
  const RegUsageReport report = profile_registers(gather, tiny_params());
  u64 inner_accesses = 0, total = 0;
  for (u64 c : report.access_counts) total += c;
  // x0..x5 carry the gather loop.
  for (int r = 0; r <= 5; ++r) inner_accesses += report.access_counts[r];
  EXPECT_GT(static_cast<double>(inner_accesses), 0.95 * static_cast<double>(total));
}

TEST(RegUsage, CapGuardsRunaways) {
  const auto& gather = workloads::find_workload("gather");
  EXPECT_THROW(profile_registers(gather, tiny_params(), 10),
               std::runtime_error);
}

}  // namespace
}  // namespace virec::analysis

// Crossbar contention tests.
#include <gtest/gtest.h>

#include "mem/crossbar.hpp"

namespace virec::mem {
namespace {

class FixedLevel final : public MemLevel {
 public:
  Cycle line_access(Addr, bool, Cycle now) override { return now + 30; }
};

TEST(Crossbar, AddsTraversalLatencyBothWays) {
  FixedLevel below;
  CrossbarConfig config{.latency = 8, .cycles_per_line = 4};
  Crossbar xbar(config, below);
  // 8 (request) + 30 (below) + 8 (response).
  EXPECT_EQ(xbar.line_access(0, false, 0), 46u);
}

TEST(Crossbar, BackToBackTransfersContend) {
  FixedLevel below;
  CrossbarConfig config{.latency = 8, .cycles_per_line = 4};
  Crossbar xbar(config, below);
  const Cycle a = xbar.line_access(0, false, 0);
  const Cycle b = xbar.line_access(64, false, 0);  // same cycle
  EXPECT_EQ(b - a, 4u);  // shifted by the link occupancy
  EXPECT_GT(xbar.stats().get("contention_cycles"), 0.0);
}

TEST(Crossbar, NoContentionWhenSpaced) {
  FixedLevel below;
  CrossbarConfig config{.latency = 8, .cycles_per_line = 4};
  Crossbar xbar(config, below);
  xbar.line_access(0, false, 0);
  xbar.line_access(64, false, 100);
  EXPECT_EQ(xbar.stats().get("contention_cycles"), 0.0);
}

TEST(Crossbar, ManyCoresSerialiseOnLink) {
  FixedLevel below;
  CrossbarConfig config{.latency = 8, .cycles_per_line = 4};
  Crossbar xbar(config, below);
  Cycle last = 0;
  for (int i = 0; i < 8; ++i) {
    last = std::max(last, xbar.line_access(i * 64, false, 0));
  }
  // 8 transfers x 4 cycles of occupancy serialise the starts.
  EXPECT_GE(last, 46u + 7 * 4);
}

}  // namespace
}  // namespace virec::mem

// DRAM timing model tests: row-buffer behaviour, bank conflicts and
// channel interleaving.
#include <gtest/gtest.h>

#include "mem/dram.hpp"

namespace virec::mem {
namespace {

DramConfig one_bank() {
  DramConfig config;
  config.channels = 1;
  config.banks_per_channel = 1;
  return config;
}

TEST(Dram, FirstAccessPaysActivate) {
  DramModel dram(one_bank());
  const DramConfig c = one_bank();
  const Cycle done = dram.line_access(0, false, 0);
  EXPECT_EQ(done, c.t_rcd + c.t_cl + c.burst_cycles);
}

TEST(Dram, RowHitIsFaster) {
  DramModel dram(one_bank());
  const DramConfig c = one_bank();
  const Cycle first = dram.line_access(0, false, 0);
  // Same row, after the bank is free again.
  const Cycle second = dram.line_access(64, false, first);
  EXPECT_EQ(second - first, c.t_cl + c.burst_cycles);
  EXPECT_EQ(dram.stats().get("row_hits"), 1.0);
}

TEST(Dram, RowConflictPaysPrecharge) {
  DramModel dram(one_bank());
  const DramConfig c = one_bank();
  const Cycle first = dram.line_access(0, false, 0);
  const Cycle second = dram.line_access(c.row_bytes * 4, false, first);
  EXPECT_EQ(second - first, c.t_rp + c.t_rcd + c.t_cl + c.burst_cycles);
  EXPECT_EQ(dram.stats().get("row_conflicts"), 1.0);
}

TEST(Dram, BusyBankDelaysRequest) {
  DramModel dram(one_bank());
  const Cycle first = dram.line_access(0, false, 0);
  // Issued while the bank is still busy: queues behind it.
  const Cycle second = dram.line_access(64, false, 1);
  EXPECT_GT(second, first);
  EXPECT_GT(dram.stats().get("bank_conflict_cycles"), 0.0);
}

TEST(Dram, ChannelsServeLinesIndependently) {
  DramConfig config;
  config.channels = 2;
  config.banks_per_channel = 1;
  DramModel dram(config);
  // Adjacent lines interleave across channels: both can start at 0.
  const Cycle a = dram.line_access(0, false, 0);
  const Cycle b = dram.line_access(64, false, 0);
  EXPECT_EQ(a, b);
}

TEST(Dram, SameChannelLinesSerialiseOnBank) {
  DramConfig config;
  config.channels = 2;
  config.banks_per_channel = 1;
  DramModel dram(config);
  const Cycle a = dram.line_access(0, false, 0);
  const Cycle b = dram.line_access(128, false, 0);  // same channel, same bank
  EXPECT_GT(b, a);
}

TEST(Dram, ManyBanksOverlap) {
  DramConfig config;
  config.channels = 1;
  config.banks_per_channel = 16;
  config.row_bytes = 2048;
  DramModel dram(config);
  // 16 requests to 16 different banks at the same instant: completion
  // spread should be limited by the shared data bus, not full
  // serialisation of activates.
  Cycle last = 0;
  for (u32 b = 0; b < 16; ++b) {
    last = std::max(last, dram.line_access(b * 64, false, 0));
  }
  DramModel serial(one_bank());
  Cycle serial_last = 0;
  for (u32 i = 0; i < 16; ++i) {
    serial_last = serial.line_access(i * config.row_bytes, false, serial_last);
  }
  EXPECT_LT(last, serial_last);
}

TEST(Dram, CountsReadsAndWrites) {
  DramModel dram(one_bank());
  dram.line_access(0, false, 0);
  dram.line_access(0, true, 1000);
  EXPECT_EQ(dram.stats().get("reads"), 1.0);
  EXPECT_EQ(dram.stats().get("writes"), 1.0);
}

TEST(Dram, RejectsZeroChannels) {
  DramConfig config;
  config.channels = 0;
  EXPECT_THROW(DramModel{config}, std::invalid_argument);
}

}  // namespace
}  // namespace virec::mem

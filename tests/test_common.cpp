// Unit tests for the common utilities (types, stats, tables, RNG,
// strict number parsing).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/parse_number.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace virec {
namespace {

TEST(Types, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Types, Log2Pow2) {
  EXPECT_EQ(log2_pow2(1), 0u);
  EXPECT_EQ(log2_pow2(2), 1u);
  EXPECT_EQ(log2_pow2(64), 6u);
  EXPECT_EQ(log2_pow2(1ull << 40), 40u);
}

TEST(Types, AlignUpDown) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
  EXPECT_EQ(align_down(63, 64), 0u);
  EXPECT_EQ(align_down(64, 64), 64u);
  EXPECT_EQ(align_down(127, 64), 64u);
}

TEST(ParseNumber, AcceptsWholeNumbersOnly) {
  EXPECT_EQ(parse_u64("--n", "0"), 0u);
  EXPECT_EQ(parse_u64("--n", "18446744073709551615"), ~u64{0});
  EXPECT_EQ(parse_u64("--n", "0x10"), 16u);
  EXPECT_EQ(parse_u32("--n", "4294967295"), 4294967295u);
  EXPECT_EQ(parse_double("--f", "0.25"), 0.25);
  EXPECT_TRUE(std::isnan(parse_double("--f", "nan")));  // range is the caller's
  for (const char* bad : {"", "8x", " 8", "-1", "+1", "18446744073709551616"}) {
    EXPECT_THROW(parse_u64("--n", bad), std::invalid_argument) << bad;
  }
  // The u32 variant must not wrap (4294967298 is not 2).
  for (const char* bad : {"4294967296", "4294967298", "8x"}) {
    EXPECT_THROW(parse_u32("--n", bad), std::invalid_argument) << bad;
  }
  for (const char* bad : {"", "0.8oops", " 1", "1e999"}) {
    EXPECT_THROW(parse_double("--f", bad), std::invalid_argument) << bad;
  }
  try {
    parse_u32("--threads", "4294967298");
    ADD_FAILURE() << "accepted an out-of-range u32";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
  }
}

TEST(Stats, IncrementAndGet) {
  StatSet stats("unit");
  EXPECT_EQ(stats.get("x"), 0.0);
  double* x = stats.counter("x");
  ++*x;
  *x += 2.5;
  EXPECT_DOUBLE_EQ(stats.get("x"), 3.5);
  EXPECT_TRUE(stats.has("x"));
  EXPECT_FALSE(stats.has("y"));
}

TEST(Stats, SetOverwrites) {
  StatSet stats;
  *stats.counter("a") += 10;
  stats.set("a", 3);
  EXPECT_DOUBLE_EQ(stats.get("a"), 3.0);
}

TEST(Stats, PrefixAppearsInAll) {
  StatSet stats("core");
  *stats.counter("cycles") += 7;
  const auto all = stats.all();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].name, "core.cycles");
  EXPECT_DOUBLE_EQ(all[0].value, 7.0);
}

TEST(Stats, InsertionOrderStable) {
  StatSet stats;
  ++*stats.counter("b");
  ++*stats.counter("a");
  ++*stats.counter("c");
  const auto all = stats.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "b");
  EXPECT_EQ(all[1].name, "a");
  EXPECT_EQ(all[2].name, "c");
}

TEST(Stats, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_pct(0.421, 1), "42.1%");
}

TEST(Rng, Deterministic) {
  Xorshift128 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xorshift128 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Xorshift128 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Xorshift128 rng(99);
  std::array<int, 8> buckets{};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.next_below(8)];
  for (int count : buckets) {
    EXPECT_GT(count, 700);
    EXPECT_LT(count, 1300);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xorshift128 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

}  // namespace
}  // namespace virec

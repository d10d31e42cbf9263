// SparseMemory functional tests.
#include <gtest/gtest.h>

#include <vector>

#include "mem/sparse_memory.hpp"

namespace virec::mem {
namespace {

TEST(SparseMemory, UnwrittenReadsZero) {
  SparseMemory memory;
  EXPECT_EQ(memory.read_u64(0x1234), 0u);
  EXPECT_EQ(memory.read(0xdeadbeef, 1), 0u);
}

TEST(SparseMemory, RoundTripAllWidths) {
  SparseMemory memory;
  memory.write(0x100, 1, 0xab);
  memory.write(0x200, 2, 0xcdef);
  memory.write(0x300, 4, 0x12345678);
  memory.write(0x400, 8, 0x1122334455667788ull);
  EXPECT_EQ(memory.read(0x100, 1), 0xabu);
  EXPECT_EQ(memory.read(0x200, 2), 0xcdefu);
  EXPECT_EQ(memory.read(0x300, 4), 0x12345678u);
  EXPECT_EQ(memory.read(0x400, 8), 0x1122334455667788ull);
}

TEST(SparseMemory, LittleEndianLayout) {
  SparseMemory memory;
  memory.write_u64(0x500, 0x0807060504030201ull);
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(memory.read(0x500 + i, 1), i + 1);
  }
}

TEST(SparseMemory, CrossPageAccess) {
  SparseMemory memory;
  const Addr addr = SparseMemory::kPageSize - 4;
  memory.write_u64(addr, 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(memory.read_u64(addr), 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(memory.page_count(), 2u);
}

TEST(SparseMemory, PartialOverwrite) {
  SparseMemory memory;
  memory.write_u64(0x600, ~u64{0});
  memory.write(0x602, 2, 0);
  EXPECT_EQ(memory.read_u64(0x600), 0xffffffff0000ffffull);
}

TEST(SparseMemory, F64RoundTrip) {
  SparseMemory memory;
  memory.write_f64(0x700, 3.14159);
  EXPECT_DOUBLE_EQ(memory.read_f64(0x700), 3.14159);
  memory.write_f64(0x708, -0.0);
  EXPECT_EQ(memory.read_u64(0x708), 0x8000000000000000ull);
}

TEST(SparseMemory, BlockRoundTrip) {
  SparseMemory memory;
  std::vector<u8> data(10000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<u8>(i * 7);
  }
  memory.write_block(0x12345, data.data(), data.size());
  std::vector<u8> out(data.size());
  memory.read_block(0x12345, out.data(), out.size());
  EXPECT_EQ(data, out);
}

TEST(SparseMemory, BlockReadOfUnwrittenIsZero) {
  SparseMemory memory;
  std::vector<u8> out(64, 0xff);
  memory.read_block(0x9999, out.data(), out.size());
  for (u8 b : out) EXPECT_EQ(b, 0);
}

TEST(SparseMemory, SparseAddressesDoNotCollide) {
  SparseMemory memory;
  memory.write_u64(0x0, 1);
  memory.write_u64(0xffff'ffff'0000ull, 2);
  EXPECT_EQ(memory.read_u64(0x0), 1u);
  EXPECT_EQ(memory.read_u64(0xffff'ffff'0000ull), 2u);
}

TEST(SparseMemory, ClearDropsEverything) {
  SparseMemory memory;
  memory.write_u64(0x10, 5);
  memory.clear();
  EXPECT_EQ(memory.read_u64(0x10), 0u);
  EXPECT_EQ(memory.page_count(), 0u);
}

TEST(SparseMemory, PageCountGrowsPerPage) {
  SparseMemory memory;
  memory.write_u64(0, 1);
  memory.write_u64(8, 2);
  EXPECT_EQ(memory.page_count(), 1u);
  memory.write_u64(SparseMemory::kPageSize, 3);
  EXPECT_EQ(memory.page_count(), 2u);
}

TEST(SparseMemory, JournalRollbackCoversEveryWritePath) {
  // Writes to the cached page would take the inline fast path; under a
  // journal they must be recorded like page misses, page-crossing
  // writes and block writes, so rollback restores every byte.
  constexpr Addr kPage = SparseMemory::kPageSize;
  SparseMemory memory;
  std::vector<u8> before(3 * kPage);
  for (std::size_t i = 0; i < before.size(); ++i) {
    before[i] = static_cast<u8>(i * 13 + 1);
  }
  memory.write_block(kPage, before.data(), before.size());
  memory.read_u64(kPage);  // leave the first page cached

  memory.journal_begin();
  memory.write_u64(kPage + 8, 0x1111111111111111ull);
  memory.write(2 * kPage - 2, 4, 0x22222222u);  // crosses a page
  const std::vector<u8> block(13, 0x33);        // odd length, crosses
  memory.write_block(3 * kPage - 5, block.data(), block.size());
  memory.write_u64(9 * kPage, 0x44);            // fresh page
  EXPECT_EQ(memory.read_u64(kPage + 8), 0x1111111111111111ull);
  memory.journal_rollback();

  std::vector<u8> after(before.size());
  memory.read_block(kPage, after.data(), after.size());
  EXPECT_EQ(after, before);
  EXPECT_EQ(memory.read_u64(9 * kPage), 0u);
  EXPECT_FALSE(memory.journal_active());

  // Discard keeps the journaled writes.
  memory.journal_begin();
  memory.write_u64(kPage, 0x55);
  memory.journal_discard();
  EXPECT_EQ(memory.read_u64(kPage), 0x55u);
}

}  // namespace
}  // namespace virec::mem

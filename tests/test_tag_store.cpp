// VRMU tag store tests: mapping maintenance, allocation/eviction and
// C-bit rollback resets.
#include <gtest/gtest.h>

#include "ckpt/serialize.hpp"
#include "core/tag_store.hpp"

namespace virec::core {
namespace {

TEST(TagStore, EmptyLookupMisses) {
  TagStore tags(8, 4, PolicyKind::kLRC);
  EXPECT_EQ(tags.lookup(0, 3), -1);
  EXPECT_EQ(tags.valid_entries(), 0u);
}

TEST(TagStore, AllocateThenLookup) {
  TagStore tags(8, 4, PolicyKind::kLRC);
  std::vector<u8> locked(8, 0);
  const int idx = tags.allocate(1, 5, locked, nullptr);
  ASSERT_GE(idx, 0);
  EXPECT_EQ(tags.lookup(1, 5), idx);
  EXPECT_EQ(tags.lookup(0, 5), -1);  // different thread, same arch reg
  EXPECT_EQ(tags.valid_entries(), 1u);
}

TEST(TagStore, SameArchDifferentThreadsCoexist) {
  TagStore tags(8, 4, PolicyKind::kLRC);
  std::vector<u8> locked(8, 0);
  const int a = tags.allocate(0, 7, locked, nullptr);
  const int b = tags.allocate(1, 7, locked, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(tags.lookup(0, 7), a);
  EXPECT_EQ(tags.lookup(1, 7), b);
}

TEST(TagStore, FullRfEvicts) {
  TagStore tags(2, 2, PolicyKind::kLRU);
  std::vector<u8> locked(2, 0);
  tags.allocate(0, 0, locked, nullptr);
  tags.allocate(0, 1, locked, nullptr);
  TagStore::Victim victim;
  const int idx = tags.allocate(0, 2, locked, &victim);
  ASSERT_GE(idx, 0);
  EXPECT_TRUE(victim.valid);
  EXPECT_EQ(victim.arch, 0);  // LRU: oldest mapping displaced
  EXPECT_EQ(tags.lookup(0, 0), -1);
  EXPECT_EQ(tags.lookup(0, 2), idx);
}

TEST(TagStore, EvictionReportsDirtyState) {
  TagStore tags(1, 1, PolicyKind::kLRU);
  std::vector<u8> locked(1, 0);
  const int idx = tags.allocate(0, 0, locked, nullptr);
  tags.mark_dirty(static_cast<u32>(idx));
  TagStore::Victim victim;
  tags.allocate(0, 1, locked, &victim);
  EXPECT_TRUE(victim.valid);
  EXPECT_TRUE(victim.dirty);
}

TEST(TagStore, AllLockedReturnsMinusOne) {
  TagStore tags(2, 1, PolicyKind::kLRU);
  std::vector<u8> locked(2, 1);
  EXPECT_EQ(tags.allocate(0, 0, locked, nullptr), -1);
}

TEST(TagStore, InvalidateDropsMapping) {
  TagStore tags(4, 1, PolicyKind::kLRC);
  std::vector<u8> locked(4, 0);
  const int idx = tags.allocate(0, 3, locked, nullptr);
  tags.invalidate(static_cast<u32>(idx));
  EXPECT_EQ(tags.lookup(0, 3), -1);
  EXPECT_EQ(tags.valid_entries(), 0u);
}

TEST(TagStore, ResetCBitOnlyIfMappingCurrent) {
  TagStore tags(2, 2, PolicyKind::kLRC);
  std::vector<u8> locked(2, 0);
  const int idx = tags.allocate(0, 4, locked, nullptr);
  ASSERT_TRUE(tags.entry(static_cast<u32>(idx)).c_bit);
  // Stale identity: wrong thread — must not reset.
  tags.reset_c_bit(static_cast<u32>(idx), 1, 4);
  EXPECT_TRUE(tags.entry(static_cast<u32>(idx)).c_bit);
  // Matching identity resets.
  tags.reset_c_bit(static_cast<u32>(idx), 0, 4);
  EXPECT_FALSE(tags.entry(static_cast<u32>(idx)).c_bit);
}

TEST(TagStore, TouchRefreshesAgeAndC) {
  TagStore tags(2, 1, PolicyKind::kLRC);
  std::vector<u8> locked(2, 0);
  const u32 idx = static_cast<u32>(tags.allocate(0, 0, locked, nullptr));
  const u32 other = static_cast<u32>(tags.allocate(0, 1, locked, nullptr));
  // Accesses to the other entry age this one.
  tags.touch(other);
  tags.touch(other);
  EXPECT_GT(tags.entry_age(idx), 0);
  tags.reset_c_bit(idx, 0, 0);
  tags.touch(idx);
  EXPECT_EQ(tags.entry_age(idx), 0);
  EXPECT_TRUE(tags.entry(idx).c_bit);
}

TEST(TagStore, ContextSwitchUpdatesTBits) {
  TagStore tags(2, 2, PolicyKind::kLRC);
  std::vector<u8> locked(2, 0);
  const int a = tags.allocate(0, 0, locked, nullptr);
  const int b = tags.allocate(1, 0, locked, nullptr);
  tags.on_context_switch(/*from=*/0, /*to=*/1);
  // T is stored lazily; entry_t materializes it.
  EXPECT_EQ(tags.entry_t(static_cast<u32>(a)), ReplacementPolicy::kMaxTBits);
  EXPECT_EQ(tags.entry_t(static_cast<u32>(b)), 0);
}

// Lazy T survives a checkpoint: saving materializes every entry's
// effective T (pending per-thread switch events and epoch decrements
// folded in), and a restored store reports bit-identical T values —
// both immediately and after further switches on both stores.
TEST(TagStore, CheckpointPreservesLazyTBits) {
  TagStore tags(8, 4, PolicyKind::kLRC);
  std::vector<u8> locked(8, 0);
  for (int tid = 0; tid < 4; ++tid) {
    tags.allocate(tid, 0, locked, nullptr);
    tags.allocate(tid, 1, locked, nullptr);
  }
  // Leave pending lazy events on several threads plus saturating
  // decrements on the bystanders.
  tags.on_context_switch(0, 1);
  tags.on_context_switch(1, 2);
  tags.on_context_switch(2, 0);
  tags.on_context_switch(0, 3);

  std::vector<u8> expected(tags.size());
  for (u32 i = 0; i < tags.size(); ++i) expected[i] = tags.entry_t(i);

  ckpt::Encoder enc;
  ckpt::Archive out(enc);
  tags.state(out);
  TagStore restored(8, 4, PolicyKind::kLRC);
  ckpt::Decoder dec(enc.bytes().data(), enc.size());
  ckpt::Archive in(dec);
  restored.state(in);

  for (u32 i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(restored.entry_t(i), expected[i]) << "entry " << i;
  }
  // Post-restore switches must age both stores identically.
  tags.on_context_switch(3, 1);
  restored.on_context_switch(3, 1);
  tags.on_context_switch(1, 2);
  restored.on_context_switch(1, 2);
  for (u32 i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(restored.entry_t(i), tags.entry_t(i)) << "entry " << i;
  }
}

TEST(TagStore, PrefersFreeEntriesOverEviction) {
  TagStore tags(4, 1, PolicyKind::kLRU);
  std::vector<u8> locked(4, 0);
  tags.allocate(0, 0, locked, nullptr);
  TagStore::Victim victim;
  tags.allocate(0, 1, locked, &victim);
  EXPECT_FALSE(victim.valid);  // free entry used, nothing displaced
}

TEST(TagStore, RejectsZeroRegisters) {
  EXPECT_THROW(TagStore(0, 1, PolicyKind::kLRC), std::invalid_argument);
}

TEST(TagStore, RemapAfterEvictionIsConsistent) {
  TagStore tags(2, 2, PolicyKind::kFIFO);
  std::vector<u8> locked(2, 0);
  tags.allocate(0, 0, locked, nullptr);
  tags.allocate(0, 1, locked, nullptr);
  // Evict (0,0), then reallocate it: both lookups must be coherent.
  tags.allocate(1, 0, locked, nullptr);
  EXPECT_EQ(tags.lookup(0, 0), -1);
  const int back = tags.allocate(0, 0, locked, nullptr);
  EXPECT_EQ(tags.lookup(0, 0), back);
  EXPECT_EQ(tags.valid_entries(), 2u);
}

}  // namespace
}  // namespace virec::core

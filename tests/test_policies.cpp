// Replacement policy tests, including the Figure 5 / Figure 6 scenarios
// from the paper (PLRU thrashing vs MRT-PLRU thread targeting vs LRC
// commit-bit differentiation).
#include <gtest/gtest.h>

#include <array>

#include "common/rng.hpp"
#include "core/replacement_policy.hpp"

namespace virec::core {
namespace {

std::vector<RfEntry> make_entries(u32 n) {
  std::vector<RfEntry> entries(n);
  return entries;
}

std::vector<u8> no_locks(u32 n) { return std::vector<u8>(n, 0); }

void insert(ReplacementPolicy& policy, std::vector<RfEntry>& entries, u32 idx,
            u8 tid, u8 arch) {
  policy.on_insert(entries, idx, tid, arch);
}

TEST(PolicyNames, RoundTrip) {
  for (PolicyKind kind : all_policies()) {
    EXPECT_EQ(parse_policy(policy_name(kind)), kind);
  }
  EXPECT_THROW(parse_policy("bogus"), std::invalid_argument);
}

TEST(PolicyNames, AllSevenPresent) { EXPECT_EQ(all_policies().size(), 7u); }

TEST(Plru, EvictsOldestAge) {
  ReplacementPolicy plru(PolicyKind::kPLRU);
  auto entries = make_entries(3);
  for (u32 i = 0; i < 3; ++i) insert(plru, entries, i, 0, static_cast<u8>(i));
  // Touch 1 and 2 repeatedly; 0 ages out.
  for (int round = 0; round < 4; ++round) {
    plru.on_access(entries, 1);
    plru.on_access(entries, 2);
  }
  EXPECT_EQ(plru.pick_victim(entries, no_locks(3)), 0);
}

TEST(Plru, AgeSaturatesAtMax) {
  ReplacementPolicy plru(PolicyKind::kPLRU);
  auto entries = make_entries(3);
  insert(plru, entries, 0, 0, 0);
  insert(plru, entries, 1, 0, 1);
  insert(plru, entries, 2, 0, 2);
  // Every access to entry 2 ages the other two.
  for (int i = 0; i < 100; ++i) plru.on_access(entries, 2);
  EXPECT_EQ(plru.age_of(entries[0]), ReplacementPolicy::kMaxAge);
  EXPECT_EQ(plru.age_of(entries[1]), ReplacementPolicy::kMaxAge);
}

TEST(Plru, IgnoresThreads) {
  // Figure 5(b): PLRU evicts the upcoming thread's old registers even
  // though they are needed soon.
  ReplacementPolicy plru(PolicyKind::kPLRU);
  auto entries = make_entries(4);
  insert(plru, entries, 0, 0, 2);  // blue thread x2 (old)
  insert(plru, entries, 1, 0, 4);  // blue thread x4 (old)
  insert(plru, entries, 2, 1, 5);  // red thread x5 (fresh)
  insert(plru, entries, 3, 1, 6);  // red thread x6 (fresh)
  // Red thread executes for a while: blue entries age.
  for (int i = 0; i < 5; ++i) {
    plru.on_access(entries, 2);
    plru.on_access(entries, 3);
  }
  plru.on_context_switch(/*from_tid=*/1, /*to_tid=*/0);
  // Even though thread 0 runs next, PLRU victimises its aged registers.
  const int victim = plru.pick_victim(entries, no_locks(4));
  EXPECT_EQ(entries[static_cast<u32>(victim)].tid, 0);
}

TEST(MrtPlru, TargetsMostRecentlySuspendedThread) {
  // Figure 5(c): MRT-PLRU evicts from the thread that just suspended.
  ReplacementPolicy mrt(PolicyKind::kMrtPLRU);
  auto entries = make_entries(4);
  insert(mrt, entries, 0, 0, 2);
  insert(mrt, entries, 1, 0, 4);
  insert(mrt, entries, 2, 1, 5);
  insert(mrt, entries, 3, 1, 6);
  for (int i = 0; i < 5; ++i) mrt.on_access(entries, 2);
  mrt.on_context_switch(/*from_tid=*/1, /*to_tid=*/0);
  const int victim = mrt.pick_victim(entries, no_locks(4));
  // Thread 1 just suspended (runs furthest in the future): its entries
  // must be victimised despite their fresh ages.
  EXPECT_EQ(entries[static_cast<u32>(victim)].tid, 1);
}

TEST(TBits, SwitchSetsFromToMaxAndDecrementsOthers) {
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(3);
  insert(lrc, entries, 0, 0, 1);
  insert(lrc, entries, 1, 1, 1);
  insert(lrc, entries, 2, 2, 1);
  lrc.set_t(entries[2], 3);
  lrc.on_context_switch(/*from_tid=*/0, /*to_tid=*/1);
  EXPECT_EQ(lrc.t_of(entries[0]), ReplacementPolicy::kMaxTBits);
  EXPECT_EQ(lrc.t_of(entries[1]), 0);  // incoming thread forced to zero
  EXPECT_EQ(lrc.t_of(entries[2]), 2);  // decremented
}

TEST(TBits, DecrementSaturatesAtZero) {
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(2);
  insert(lrc, entries, 0, 2, 1);
  insert(lrc, entries, 1, 3, 1);
  for (int i = 0; i < 10; ++i) lrc.on_context_switch(0, 1);
  EXPECT_EQ(lrc.t_of(entries[0]), 0);
  EXPECT_EQ(lrc.t_of(entries[1]), 0);
}

TEST(Lrc, CommitBitBreaksTies) {
  // Figure 6: within the suspended thread, committed registers are
  // evicted before flushed (to-be-replayed) ones.
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(3);
  insert(lrc, entries, 0, 1, 0);  // x0: committed
  insert(lrc, entries, 1, 1, 2);  // x2: in flight, flushed
  insert(lrc, entries, 2, 1, 5);  // x5: in flight, flushed
  // All same thread, saturated ages alike.
  for (RfEntry& e : entries) e.age = ReplacementPolicy::kMaxAge;
  // Rollback resets C of the flushed ones.
  ReplacementPolicy::on_flush_reset(entries[1]);
  ReplacementPolicy::on_flush_reset(entries[2]);
  lrc.on_context_switch(/*from_tid=*/1, /*to_tid=*/0);
  const int victim = lrc.pick_victim(entries, no_locks(3));
  EXPECT_EQ(victim, 0);  // the committed register goes first
}

TEST(Lrc, SpeculativeCommitSetOnAccess) {
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(1);
  insert(lrc, entries, 0, 0, 3);
  ReplacementPolicy::on_flush_reset(entries[0]);
  EXPECT_FALSE(entries[0].c_bit);
  lrc.on_access(entries, 0);
  EXPECT_TRUE(entries[0].c_bit);
}

TEST(Lrc, ThreadFieldDominatesCommitField) {
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(2);
  insert(lrc, entries, 0, 0, 1);  // current thread, committed
  insert(lrc, entries, 1, 1, 1);  // suspended thread, flushed
  lrc.set_t(entries[0], 0);
  entries[0].c_bit = true;
  lrc.set_t(entries[1], ReplacementPolicy::kMaxTBits);
  entries[1].c_bit = false;
  // Suspended-thread entry must still be preferred (T is most
  // significant in the priority word).
  EXPECT_EQ(lrc.pick_victim(entries, no_locks(2)), 1);
}

TEST(Lru, PerfectTimestampOrder) {
  ReplacementPolicy lru(PolicyKind::kLRU);
  auto entries = make_entries(3);
  for (u32 i = 0; i < 3; ++i) insert(lru, entries, i, 0, static_cast<u8>(i));
  lru.on_access(entries, 0);  // 0 is now newest
  EXPECT_EQ(lru.pick_victim(entries, no_locks(3)), 1);
}

TEST(Lru, DistinguishesBeyondAgeSaturation) {
  // Perfect LRU keeps ordering that PLRU's 3-bit ages lose.
  ReplacementPolicy lru(PolicyKind::kLRU);
  ReplacementPolicy plru(PolicyKind::kPLRU);
  auto e_lru = make_entries(3);
  auto e_plru = make_entries(3);
  for (u32 i = 0; i < 3; ++i) {
    insert(lru, e_lru, i, 0, static_cast<u8>(i));
    insert(plru, e_plru, i, 0, static_cast<u8>(i));
  }
  // Long time passes, spent on entry 2; 0 and 1 saturate in PLRU.
  for (int i = 0; i < 20; ++i) {
    lru.on_access(e_lru, 2);
    plru.on_access(e_plru, 2);
  }
  EXPECT_EQ(plru.age_of(e_plru[0]), plru.age_of(e_plru[1]));  // PLRU ties
  EXPECT_EQ(lru.pick_victim(e_lru, no_locks(3)), 0);  // LRU still can
}

TEST(MrtLru, ThreadThenTimestamp) {
  ReplacementPolicy mrtlru(PolicyKind::kMrtLRU);
  auto entries = make_entries(4);
  insert(mrtlru, entries, 0, 0, 0);
  insert(mrtlru, entries, 1, 0, 1);
  insert(mrtlru, entries, 2, 1, 0);
  insert(mrtlru, entries, 3, 1, 1);
  mrtlru.on_access(entries, 2);  // thread1/x0 refreshed
  mrtlru.on_context_switch(/*from_tid=*/1, /*to_tid=*/0);
  // Victim from thread 1 (max T); among those, oldest timestamp = idx 3.
  EXPECT_EQ(mrtlru.pick_victim(entries, no_locks(4)), 3);
}

TEST(Fifo, EvictsInInsertionOrder) {
  ReplacementPolicy fifo(PolicyKind::kFIFO);
  auto entries = make_entries(3);
  for (u32 i = 0; i < 3; ++i) insert(fifo, entries, i, 0, static_cast<u8>(i));
  // Touching does not matter for FIFO.
  fifo.on_access(entries, 0);
  EXPECT_EQ(fifo.pick_victim(entries, no_locks(3)), 0);
}

TEST(Random, OnlyPicksValidUnlocked) {
  ReplacementPolicy random(PolicyKind::kRandom, /*seed=*/7);
  auto entries = make_entries(4);
  insert(random, entries, 1, 0, 1);
  insert(random, entries, 3, 0, 3);
  std::vector<u8> locked(4, 0);
  locked[3] = 1;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(random.pick_victim(entries, locked), 1);
  }
}

TEST(AllPolicies, RespectLocks) {
  for (PolicyKind kind : all_policies()) {
    ReplacementPolicy policy(kind);
    auto entries = make_entries(2);
    insert(policy, entries, 0, 0, 0);
    insert(policy, entries, 1, 0, 1);
    std::vector<u8> locked(2, 0);
    locked[0] = 1;
    EXPECT_EQ(policy.pick_victim(entries, locked), 1) << policy_name(kind);
    locked[1] = 1;
    EXPECT_EQ(policy.pick_victim(entries, locked), -1) << policy_name(kind);
  }
}

TEST(AllPolicies, SkipInvalidEntries) {
  for (PolicyKind kind : all_policies()) {
    ReplacementPolicy policy(kind);
    auto entries = make_entries(3);
    insert(policy, entries, 1, 0, 1);  // only index 1 is valid
    EXPECT_EQ(policy.pick_victim(entries, no_locks(3)), 1)
        << policy_name(kind);
  }
}

TEST(AllPolicies, EmptyRfHasNoVictim) {
  for (PolicyKind kind : all_policies()) {
    ReplacementPolicy policy(kind);
    auto entries = make_entries(4);
    EXPECT_EQ(policy.pick_victim(entries, no_locks(4)), -1)
        << policy_name(kind);
  }
}

TEST(TBits, LazyMatchesEagerReference) {
  // The O(1) epoch-mark realisation of on_context_switch must be
  // bit-exact with the eager per-entry walk: from-thread entries go to
  // kMaxTBits, to-thread entries to 0 (from wins when from == to),
  // everything else decrements saturating at zero.
  ReplacementPolicy lrc(PolicyKind::kLRC);
  constexpr u32 kEntries = 16;
  constexpr u8 kThreads = 4;
  auto entries = make_entries(kEntries);
  std::array<u8, kEntries> eager{};
  u64 rng = 0x9e3779b97f4a7c15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int op = 0; op < 2000; ++op) {
    if (next() % 4 == 0) {
      const u32 idx = static_cast<u32>(next() % kEntries);
      const u8 tid = static_cast<u8>(next() % kThreads);
      lrc.on_insert(entries, idx, tid, static_cast<isa::RegId>(next() % 31));
      eager[idx] = 0;
    } else {
      const int from = static_cast<int>(next() % kThreads);
      const int to = static_cast<int>(next() % kThreads);
      lrc.on_context_switch(from, to);
      for (u32 i = 0; i < kEntries; ++i) {
        if (!entries[i].valid) continue;
        if (entries[i].tid == from) {
          eager[i] = ReplacementPolicy::kMaxTBits;
        } else if (entries[i].tid == to) {
          eager[i] = 0;
        } else if (eager[i] > 0) {
          --eager[i];
        }
      }
    }
    for (u32 i = 0; i < kEntries; ++i) {
      if (!entries[i].valid) continue;
      ASSERT_EQ(lrc.t_of(entries[i]), eager[i])
          << "entry " << i << " after op " << op;
    }
  }
}

// Reference victim selection: the generic scan pick_victim replaced —
// every valid, unlocked entry ranked by one priority switch, highest
// wins, ties to the lowest index — with Random drawing uniformly from
// the candidates through a mirror of the policy's RNG.
u64 reference_priority(const ReplacementPolicy& policy, const RfEntry& entry) {
  const u64 inv_use = ~entry.last_use;
  const u64 inv_seq = ~entry.insert_seq;
  switch (policy.kind()) {
    case PolicyKind::kPLRU:
      return policy.age_of(entry);
    case PolicyKind::kLRU:
      return inv_use;
    case PolicyKind::kFIFO:
      return inv_seq;
    case PolicyKind::kRandom:
      return 0;
    case PolicyKind::kMrtPLRU:
      return (u64{policy.t_of(entry)} << 3) | policy.age_of(entry);
    case PolicyKind::kMrtLRU:
      return (u64{policy.t_of(entry)} << 58) |
             (inv_use & ((u64{1} << 58) - 1));
    case PolicyKind::kLRC:
      return (u64{policy.t_of(entry)} << 4) | (u64{entry.c_bit} << 3) |
             policy.age_of(entry);
  }
  return 0;
}

int reference_victim(const ReplacementPolicy& policy,
                     const std::vector<RfEntry>& entries,
                     const std::vector<u8>& locked, Xorshift128& rng) {
  if (policy.kind() == PolicyKind::kRandom) {
    std::vector<u32> candidates;
    for (u32 i = 0; i < entries.size(); ++i) {
      if (entries[i].valid && !locked[i]) candidates.push_back(i);
    }
    if (candidates.empty()) return -1;
    return static_cast<int>(candidates[rng.next_below(candidates.size())]);
  }
  int best = -1;
  u64 best_priority = 0;
  for (u32 i = 0; i < entries.size(); ++i) {
    if (!entries[i].valid || locked[i]) continue;
    const u64 p = reference_priority(policy, entries[i]);
    if (best < 0 || p > best_priority) {
      best = static_cast<int>(i);
      best_priority = p;
    }
  }
  return best;
}

TEST(AllPolicies, VictimMatchesGenericScanOnRandomStates) {
  // Random tag-store states: valid bits, tids, C bits, lazy ages and T
  // marks, switch events, locks, and deliberate ties (small timestamp
  // and sequence ranges, saturated ages and T values).
  constexpr u64 kSeed = 0x5eedf00d;
  for (PolicyKind kind : all_policies()) {
    SCOPED_TRACE(policy_name(kind));
    ReplacementPolicy policy(kind, kSeed);
    Xorshift128 mirror(kSeed);
    Xorshift128 rng(0xd1ff ^ static_cast<u64>(kind));
    for (int trial = 0; trial < 3000; ++trial) {
      const u32 n = 1 + static_cast<u32>(rng.next_below(64));
      auto entries = make_entries(n);
      std::vector<u8> locked(n, 0);
      for (int s = static_cast<int>(rng.next_below(12)); s > 0; --s) {
        policy.on_context_switch(static_cast<int>(rng.next_below(9)) - 1,
                                 static_cast<int>(rng.next_below(9)) - 1);
      }
      for (u32 i = 0; i < n; ++i) {
        if (rng.next_below(8) == 0) continue;  // stays invalid
        policy.on_insert(entries, i, static_cast<u8>(rng.next_below(8)),
                         static_cast<isa::RegId>(rng.next_below(31)));
        RfEntry& e = entries[i];
        e.c_bit = rng.next_below(2) != 0;
        e.age = static_cast<u8>(rng.next_below(8));
        e.age_mark = policy.age_tick_now() - rng.next_below(
                                                 policy.age_tick_now() + 1);
        if (rng.next_below(2) != 0) {
          policy.set_t(e, static_cast<u8>(rng.next_below(8)));
        }
        e.t_mark -= rng.next_below(e.t_mark + 1);
        e.last_use = rng.next_below(2 * n);
        e.insert_seq = rng.next_below(2 * n);
        locked[i] = rng.next_below(6) == 0;
      }
      for (int a = static_cast<int>(rng.next_below(2 * n)); a > 0; --a) {
        const u32 idx = static_cast<u32>(rng.next_below(n));
        if (entries[idx].valid) policy.on_access(entries, idx);
      }
      for (int s = static_cast<int>(rng.next_below(4)); s > 0; --s) {
        policy.on_context_switch(static_cast<int>(rng.next_below(9)) - 1,
                                 static_cast<int>(rng.next_below(9)) - 1);
      }
      const int want = reference_victim(policy, entries, locked, mirror);
      ASSERT_EQ(policy.pick_victim(entries, locked), want)
          << "trial " << trial << ", " << n << " entries";
    }
  }
}

TEST(Insert, ResetsAllPolicyState) {
  ReplacementPolicy lrc(PolicyKind::kLRC);
  auto entries = make_entries(1);
  insert(lrc, entries, 0, 0, 5);
  entries[0].age = 5;
  lrc.set_t(entries[0], 3);
  entries[0].dirty = true;
  lrc.on_insert(entries, 0, 2, 7);
  EXPECT_EQ(entries[0].tid, 2);
  EXPECT_EQ(entries[0].arch, 7);
  EXPECT_EQ(entries[0].age, 0);
  EXPECT_EQ(lrc.t_of(entries[0]), 0);
  EXPECT_FALSE(entries[0].dirty);
  EXPECT_TRUE(entries[0].c_bit);
}

}  // namespace
}  // namespace virec::core

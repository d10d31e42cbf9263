// Cache model tests: hits/misses, LRU, MSHR coalescing and limits,
// write-back, ViReC register-line pinning and bypass behaviour.
#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace virec::mem {
namespace {

/// Fixed-latency backing level that records accesses.
class FakeBacking final : public MemLevel {
 public:
  explicit FakeBacking(u32 latency) : latency_(latency) {}
  Cycle line_access(Addr line_addr, bool is_write, Cycle now) override {
    ++accesses;
    if (is_write) ++writes;
    last_addr = line_addr;
    return now + latency_;
  }
  u32 accesses = 0;
  u32 writes = 0;
  Addr last_addr = 0;

 private:
  u32 latency_;
};

CacheConfig small_config() {
  CacheConfig config;
  config.name = "test";
  config.size_bytes = 1024;  // 4 sets x 4 ways
  config.assoc = 4;
  config.hit_latency = 2;
  config.mshrs = 4;
  return config;
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : backing(100), cache(small_config(), backing) {}
  FakeBacking backing;
  Cache cache;
};

TEST_F(CacheTest, ColdMissGoesToBacking) {
  const CacheAccess acc = cache.access(0x1000, false, 0);
  EXPECT_FALSE(acc.hit);
  EXPECT_EQ(backing.accesses, 1u);
  EXPECT_GE(acc.done, 100u);
}

TEST_F(CacheTest, SecondAccessHits) {
  const CacheAccess miss = cache.access(0x1000, false, 0);
  const CacheAccess hit = cache.access(0x1008, false, miss.done);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.done, miss.done + 2);
  EXPECT_EQ(backing.accesses, 1u);
}

TEST_F(CacheTest, HitUnderMissCoalesces) {
  const CacheAccess miss = cache.access(0x1000, false, 0);
  // Access the same line while the fill is in flight.
  const CacheAccess coalesced = cache.access(0x1010, false, 5);
  EXPECT_FALSE(coalesced.hit);
  EXPECT_EQ(coalesced.done, miss.done);
  EXPECT_EQ(backing.accesses, 1u);
  EXPECT_EQ(cache.stats().get("coalesced_misses"), 1.0);
}

TEST_F(CacheTest, EvictsLruWay) {
  // 4-way set: fill 4 lines mapping to set 0, touch the first again,
  // then insert a 5th: the least-recently-touched should go.
  const u32 set_stride = cache.num_sets() * kLineBytes;
  Cycle t = 0;
  for (u32 i = 0; i < 4; ++i) {
    t = cache.access(i * set_stride, false, t).done + 1;
  }
  t = cache.access(0, false, t).done + 1;  // refresh line 0
  ASSERT_TRUE(cache.probe(1 * set_stride));
  t = cache.access(4 * set_stride, false, t).done + 1;  // evict
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(1 * set_stride));  // line 1 was LRU
}

TEST_F(CacheTest, DirtyEvictionWritesBack) {
  const u32 set_stride = cache.num_sets() * kLineBytes;
  Cycle t = cache.access(0, true, 0).done + 1;  // dirty line in set 0
  for (u32 i = 1; i <= 4; ++i) {
    t = cache.access(i * set_stride, false, t).done + 1;
  }
  EXPECT_FALSE(cache.probe(0));
  EXPECT_GE(backing.writes, 1u);
  EXPECT_GE(cache.stats().get("writebacks"), 1.0);
}

TEST_F(CacheTest, MshrLimitStallsFifthMiss) {
  // 4 MSHRs: 5 concurrent misses to distinct sets; the 5th waits.
  Cycle done4 = 0;
  for (u32 i = 0; i < 4; ++i) {
    done4 = std::max(done4, cache.access(i * kLineBytes, false, 0).done);
  }
  const CacheAccess fifth =
      cache.access(4 * kLineBytes * 16, false, 4);  // while all busy
  EXPECT_TRUE(fifth.mshr_stall);
  EXPECT_GT(fifth.done, done4);
  EXPECT_GT(cache.stats().get("mshr_stall_cycles"), 0.0);
}

TEST_F(CacheTest, PortSerialisesAccesses) {
  cache.access(0x0, false, 0);
  cache.access(0x40, false, 0);  // same cycle: port busy
  EXPECT_GT(cache.stats().get("port_wait_cycles"), 0.0);
}

TEST_F(CacheTest, RegisterReadPinsLine) {
  const CacheAccess fill = cache.access(0x2000, false, 0, /*reg_region=*/true);
  EXPECT_EQ(cache.pinned_lines(), 1u);
  // A register write (spill) unpins.
  cache.access(0x2000, true, fill.done + 1, /*reg_region=*/true);
  EXPECT_EQ(cache.pinned_lines(), 0u);
}

TEST_F(CacheTest, PinCounterSaturatesAtSeven) {
  Cycle t = 0;
  for (int i = 0; i < 20; ++i) {
    t = cache.access(0x2000, false, t, true).done + 1;
  }
  EXPECT_EQ(cache.pinned_lines(), 1u);
  // 7 writes bring the saturated counter back to zero.
  for (int i = 0; i < 7; ++i) {
    t = cache.access(0x2000, true, t, true).done + 1;
  }
  EXPECT_EQ(cache.pinned_lines(), 0u);
}

TEST_F(CacheTest, PinnedLinesAreNotEvicted) {
  const u32 set_stride = cache.num_sets() * kLineBytes;
  Cycle t = cache.access(0, false, 0, /*reg_region=*/true).done + 1;
  ASSERT_EQ(cache.pinned_lines(), 1u);
  for (u32 i = 1; i <= 8; ++i) {
    t = cache.access(i * set_stride, false, t).done + 1;
  }
  EXPECT_TRUE(cache.probe(0));  // survived heavy set pressure
}

TEST_F(CacheTest, AllWaysPinnedBypasses) {
  Cycle t = 0;
  const u32 set_stride = cache.num_sets() * kLineBytes;
  for (u32 i = 0; i < 4; ++i) {
    t = cache.access(i * set_stride, false, t, /*reg_region=*/true).done + 1;
  }
  ASSERT_EQ(cache.pinned_lines(), 4u);
  const u32 before = backing.accesses;
  const CacheAccess acc = cache.access(4 * set_stride, false, t);
  EXPECT_FALSE(acc.hit);
  EXPECT_EQ(backing.accesses, before + 1);
  EXPECT_EQ(cache.stats().get("bypasses"), 1.0);
  // Bypassed line was not allocated.
  EXPECT_FALSE(cache.probe(4 * set_stride));
}

TEST_F(CacheTest, MidFillLinesAreNotEvicted) {
  CacheConfig config = small_config();
  config.mshrs = 8;  // plenty, so the 5th miss issues while fills pend
  Cache c(config, backing);
  const u32 set_stride = c.num_sets() * kLineBytes;
  // Start 4 fills into set 0 at t=0 (all pending until ~100).
  for (u32 i = 0; i < 4; ++i) {
    c.access(i * set_stride, false, 0);
  }
  // A 5th miss while all four are mid-fill must bypass, not evict.
  const CacheAccess acc = c.access(4 * set_stride, false, 10);
  EXPECT_FALSE(acc.hit);
  EXPECT_GE(c.stats().get("bypasses"), 1.0);
}

TEST_F(CacheTest, LineInsertedAtFillResponseTime) {
  // A line filled for a blocked thread must look *recently used* at its
  // arrival time, so it is not immediately LRU when the thread resumes.
  const u32 set_stride = cache.num_sets() * kLineBytes;
  const CacheAccess first = cache.access(0, false, 0);
  Cycle t = first.done + 1;
  // Touch three other ways AFTER the fill arrived.
  for (u32 i = 1; i < 4; ++i) {
    t = cache.access(i * set_stride, false, t).done + 1;
  }
  // Line 0 must still be resident: its LRU stamp is its *arrival* time
  // (close to the other lines'), not its issue time (cycle 0, which
  // would make it trivially the eviction victim).
  EXPECT_TRUE(cache.probe(0));
}

TEST_F(CacheTest, WriteMissAllocatesDirtyLine) {
  const CacheAccess acc = cache.access(0x3000, true, 0);
  EXPECT_FALSE(acc.hit);
  const u32 set_stride = cache.num_sets() * kLineBytes;
  Cycle t = acc.done + 1;
  for (u32 i = 1; i <= 4; ++i) {
    t = cache.access(0x3000 + i * set_stride, false, t).done + 1;
  }
  EXPECT_GE(backing.writes, 1u);  // the allocated dirty line wrote back
}

TEST(CachePrefetch, StridePrefetcherFillsAhead) {
  FakeBacking backing(50);
  CacheConfig config = small_config();
  config.size_bytes = 8 * 1024;
  config.stride_prefetch = true;
  config.prefetch_degree = 4;
  Cache cache(config, backing);
  // Two misses with the same line stride train the prefetcher; the
  // third access should find its line prefetched (pending or present).
  Cycle t = cache.access(0x0, false, 0).done;
  t = cache.access(0x40, false, t).done;
  t = cache.access(0x80, false, t).done;
  EXPECT_GT(cache.stats().get("prefetches"), 0.0);
  const Cycle before = t + 200;
  const CacheAccess acc = cache.access(0xc0, false, before);
  EXPECT_TRUE(acc.hit);
}

TEST(CacheConfigValidation, RejectsNonPow2Sets) {
  FakeBacking backing(10);
  CacheConfig config;
  config.size_bytes = 24 * 64;  // 24 lines / 4 ways = 6 sets
  config.assoc = 4;
  EXPECT_THROW(Cache(config, backing), std::invalid_argument);
}

TEST(CacheArbiter, RegisterRequestsYieldToProgram) {
  FakeBacking backing(10);
  Cache cache(small_config(), backing);
  // Warm two lines.
  Cycle t = cache.access(0x100, false, 0).done;
  t = cache.access(0x2000, false, t, true).done;
  const Cycle now = t + 10;
  // Program access and register access the same cycle: program gets the
  // port immediately, register access waits.
  const CacheAccess prog = cache.access(0x100, false, now);
  const CacheAccess reg = cache.access(0x2000, false, now, true);
  EXPECT_TRUE(prog.hit);
  EXPECT_TRUE(reg.hit);
  EXPECT_GT(reg.done, prog.done);
}

}  // namespace
}  // namespace virec::mem

// Set-associative write-back cache with MSHRs, used for both icaches
// and dcaches (and the OoO comparator's L2, where an optional stride
// prefetcher can be enabled).
//
// ViReC extensions (Section 5.3 of the paper):
//  * every line carries a register/data bit and a 3-bit pin counter;
//  * accesses flagged as register-region reads increment the pin
//    counter (a register became live in the RF) and register-region
//    writes decrement it (the register was evicted from the RF);
//  * pinned lines (pin > 0) are never chosen as victims, shrinking the
//    cache capacity available to program data;
//  * the access result distinguishes data misses (which signal the CSL
//    to context switch) from register-region misses (which stall the
//    pipeline until the fill returns).
#pragma once

#include <unordered_map>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/mem_level.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::mem {

struct CacheConfig {
  const char* name = "cache";
  u32 size_bytes = 8 * 1024;
  u32 assoc = 4;
  u32 hit_latency = 2;
  u32 mshrs = 24;
  /// Enable a simple stride prefetcher (used by the OoO L2).
  bool stride_prefetch = false;
  u32 prefetch_degree = 8;
};

struct CacheAccess {
  /// Data present when the access completes its hit pipeline. A miss or
  /// a hit-under-miss coalesce (data still in flight) reports false.
  bool hit = false;
  /// Cycle at which the loaded data is available / the write retires.
  Cycle done = 0;
  /// The access had to wait for a free MSHR.
  bool mshr_stall = false;
};

class Cache final : public MemLevel {
 public:
  Cache(const CacheConfig& config, MemLevel& below);

  /// Demand access (sub-line granularity; must not cross a 64 B line).
  /// @p reg_region marks backing-store traffic for registers: it
  /// drives the pin counters and is excluded from context-switch miss
  /// signalling by the caller.
  CacheAccess access(Addr addr, bool is_write, Cycle now,
                     bool reg_region = false);

  /// MemLevel interface for an upper cache level.
  Cycle line_access(Addr line_addr, bool is_write, Cycle now) override;

  /// Functional warm-up access (tiered fast-forward tier): mirrors the
  /// tag/LRU/dirty/pin effects of access() without touching ports,
  /// MSHRs or demand statistics. Fills complete instantly (the data
  /// already lives in functional memory); misses propagate as
  /// warm_line() to the level below so lower tags and DRAM rows warm
  /// too. @p warm_now must be monotonic with the detailed clock so
  /// recency stays ordered across tier switches. Returns whether the
  /// line was already present.
  bool warm_access(Addr addr, bool is_write, Cycle warm_now,
                   bool reg_region = false);

  void warm_line(Addr line_addr, bool is_write, Cycle warm_now) override {
    warm_access(line_addr, is_write, warm_now, /*reg_region=*/false);
  }

  /// True if @p addr currently hits (tags only, no state change).
  bool probe(Addr addr) const;

  /// Reserve the line holding @p addr for a blocked CGMT thread: the
  /// miss response is held for its requester until consumed (the line
  /// is exempted from eviction). Returns false if the line is absent
  /// (e.g. the miss bypassed the cache).
  bool reserve_line(Addr addr);
  /// Release a reservation taken with reserve_line.
  void release_line(Addr addr);

  /// Number of currently pinned (register) lines.
  u32 pinned_lines() const;

  /// Misses still in flight at @p now (busy MSHRs). Cheap enough for
  /// periodic sampling.
  u32 outstanding_misses(Cycle now) const;

  u32 num_sets() const { return num_sets_; }
  u32 assoc() const { return config_.assoc; }

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  /// Attach the hard-invariant context (nullptr detaches): MSHR
  /// accounting is audited on every access.
  void set_check(const check::CheckContext* check) { check_ = check; }

  /// Test hook: mark one MSHR as claimed-but-never-released so the
  /// leak invariant fires on the next miss.
  void leak_mshr_for_test() { mshr_until_[0] = kNeverCycle; }

  /// Snapshot fields: all tag/MSHR/port/prefetcher state plus the stat
  /// set. Loading checks that the saved geometry matches this cache's
  /// configuration and throws ckpt::CkptError otherwise.
  void state(ckpt::Archive& ar);

 private:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    bool dirty = false;
    bool reg_line = false;
    u8 pin = 0;             // 3-bit saturating pin counter
    Cycle pending_until = 0;  // fill in flight until this cycle
    Cycle lru = 0;          // cycle of last touch (fill: response time)
  };

  Line* find_line(Addr line_addr);
  const Line* find_line(Addr line_addr) const;
  /// Pick a victim way in @p set at time @p now; returns nullptr if
  /// every line is pinned or mid-fill (caller must bypass).
  Line* pick_victim(u32 set, Cycle now);
  /// Block until an MSHR is free; returns adjusted start time.
  Cycle acquire_mshr(Cycle start, bool& stalled);
  void maybe_prefetch(Addr line_addr, Cycle now);

  CacheConfig config_;
  MemLevel& below_;
  u32 num_sets_;
  u32 set_shift_ = 0;  // log2(num_sets_), precomputed for the hot path
  std::vector<Line> lines_;  // num_sets * assoc
  std::vector<Cycle> mshr_until_;
  // Port arbiter (Section 5.3): LSQ/program accesses always win the
  // port; register (backing-store) requests wait for both cursors.
  Cycle port_next_free_ = 0;      // program-priority cursor
  Cycle reg_port_next_free_ = 0;  // register-request cursor
  // Stride prefetcher state.
  u64 last_miss_line_ = 0;
  i64 last_stride_ = 0;
  StatSet stats_;
  Histogram* hist_miss_cycles_ = nullptr;  // owned by stats_
  // Hot-path counter handles (owned by stats_; see StatSet::counter).
  double* c_reads_ = nullptr;
  double* c_writes_ = nullptr;
  double* c_hits_ = nullptr;
  double* c_misses_ = nullptr;
  double* c_coalesced_ = nullptr;
  double* c_reg_region_misses_ = nullptr;
  double* c_port_wait_cycles_ = nullptr;
  double* c_miss_latency_ = nullptr;
  double* c_mshr_stall_cycles_ = nullptr;
  double* c_writebacks_ = nullptr;
  double* c_bypasses_ = nullptr;
  double* c_prefetches_ = nullptr;
  double* c_warm_hits_ = nullptr;
  double* c_warm_misses_ = nullptr;
  const check::CheckContext* check_ = nullptr;
};

}  // namespace virec::mem

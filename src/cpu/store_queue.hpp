// Post-commit store queue. Committed stores drain to the dcache in the
// background through its single write port; the pipeline only stalls
// when all entries are occupied (5 in the paper's configurations).
#pragma once

#include <vector>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::cpu {

class StoreQueue {
 public:
  StoreQueue(u32 capacity, mem::Cache& dcache);

  /// Attach the hard-invariant context (nullptr detaches).
  void set_check(const check::CheckContext* check) { check_ = check; }

  /// Test hook: grow the entry vector past capacity so the occupancy
  /// invariant fires on the next push (simulates a lost-dealloc bug).
  void overfill_for_test(Cycle until) {
    completion_.assign(capacity_ + 1, until);
  }

  /// Accept a store at @p now, issuing its dcache access immediately.
  /// Returns false when the queue is full (the caller must stall).
  bool push(Addr addr, Cycle now, bool reg_region = false);

  /// Entries still in flight at @p now.
  u32 occupancy(Cycle now) const;

  bool empty(Cycle now) const { return occupancy(now) == 0; }

  /// Completion time of the last store accepted (0 if none).
  Cycle last_completion() const { return last_completion_; }

  /// Earliest in-flight completion strictly after @p now — the next
  /// cycle at which occupancy drops (kNeverCycle if the queue is
  /// quiescent). Event-skip input: between @p now and this cycle the
  /// queue's observable state cannot change on its own.
  Cycle next_event_cycle(Cycle now) const {
    Cycle next = kNeverCycle;
    for (const Cycle c : completion_) {
      if (c > now && c < next) next = c;
    }
    return next;
  }

  /// Snapshot fields: the in-flight completion times. completion_ grows
  /// on demand up to capacity_, so only that bound is checked.
  void state(ckpt::Archive& ar) {
    ar.seq(completion_, capacity_, "store queue entries",
           [&ar](Cycle& c) { ar(c); });
    ar(last_completion_);
  }

 private:
  u32 capacity_;
  mem::Cache& dcache_;
  std::vector<Cycle> completion_;
  Cycle last_completion_ = 0;
  const check::CheckContext* check_ = nullptr;
};

}  // namespace virec::cpu

// The VRMU rollback queue (Section 5.1): a FIFO with one entry per
// in-flight instruction, recording which physical registers it touched
// and whether it is a memory operation.
//
//  * decode pushes an entry;
//  * commit pops the oldest entry (its registers keep C = 1);
//  * a context-switch flush compacts all remaining entries into a
//    one-hot vector and resets the C bits of those registers, marking
//    them "will be replayed soon -- retain".
//
// Only a test reads the memory-op flag (through oldest_is_mem()); the
// CSL switch mask comes from the BSI's fill state. The flag stays
// because it is part of the snapshot layout.
#pragma once

#include <array>
#include <deque>

#include "core/tag_store.hpp"

namespace virec::core {

class RollbackQueue {
 public:
  explicit RollbackQueue(u32 depth);

  struct Entry {
    u32 count = 0;
    std::array<u16, 4> phys{};
    std::array<u8, 4> tid{};
    std::array<isa::RegId, 4> arch{};
    bool is_mem = false;
  };

  /// Push a decoded instruction's register set. The queue depth equals
  /// the processor backend capacity, so overflow indicates a pipeline
  /// modelling bug; it throws.
  void push(const Entry& entry);

  /// Commit the oldest in-flight instruction.
  void pop_oldest();

  /// Context-switch flush: reset C bits of every queued register whose
  /// mapping is still current, then clear the queue.
  void flush_to(TagStore& tags);

  /// Wrong-path discard (branch misprediction, post-halt fetch): drop
  /// entries without touching C bits.
  void clear() { fifo_.clear(); }

  /// Is the oldest in-flight instruction a memory op?
  bool oldest_is_mem() const { return !fifo_.empty() && fifo_.front().is_mem; }

  u32 size() const { return static_cast<u32>(fifo_.size()); }
  bool empty() const { return fifo_.empty(); }
  u32 depth() const { return depth_; }

  /// Snapshot fields: the in-flight entries, oldest first. Loading
  /// checks each entry's registers against @p tags, the store they
  /// index at flush.
  void state(ckpt::Archive& ar, const TagStore& tags) {
    ar.seq(fifo_, depth_, "rollback queue depth", [&](Entry& e) {
      ar.index(e.count, e.phys.size() + 1, "rollback entry count");
      for (u16& p : e.phys) ar.index(p, tags.size(), "rollback entry phys");
      for (u8& t : e.tid) ar.index(t, tags.threads(), "rollback entry tid");
      for (isa::RegId& a : e.arch) {
        ar.index(a, isa::kNumArchRegs, "rollback entry arch");
      }
      ar(e.is_mem);
    });
  }

 private:
  u32 depth_;
  std::deque<Entry> fifo_;
};

}  // namespace virec::core

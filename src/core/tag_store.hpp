// The VRMU tag store (Figure 8): a fully-associative CAM that maps
// (thread, architectural register) pairs to physical register file
// indices and owns the replacement state of every entry.
#pragma once

#include <vector>

#include "core/replacement_policy.hpp"

namespace virec::check {
class CheckContext;
}  // namespace virec::check

namespace virec::core {

class TagStore {
 public:
  TagStore(u32 num_phys_regs, u32 num_threads, PolicyKind policy,
           u64 seed = 0x5eedf00d);

  /// Physical index holding (tid, arch), or -1.
  int lookup(int tid, isa::RegId arch) const;

  /// Record a decode access to @p idx (policy A/C/timestamps).
  void touch(u32 idx) { policy_.on_access(entries_, idx); }

  struct Victim {
    bool valid = false;  ///< an existing mapping was displaced
    u8 tid = 0;
    isa::RegId arch = 0;
    bool dirty = false;
  };

  /// Install a mapping for (tid, arch), evicting if the RF is full.
  /// Entries flagged in @p locked are exempt from eviction. Returns the
  /// physical index, or -1 when every entry is locked.
  int allocate(int tid, isa::RegId arch, const std::vector<u8>& locked,
               Victim* victim);

  /// Drop the mapping in entry @p idx (thread halt).
  void invalidate(u32 idx);

  void mark_dirty(u32 idx) { entries_[idx].dirty = true; }
  void clear_dirty(u32 idx) { entries_[idx].dirty = false; }

  /// T-bit update on a context switch (O(1); ReplacementPolicy::t_of
  /// materializes per-entry values on access).
  void on_context_switch(int from_tid, int to_tid) {
    policy_.on_context_switch(from_tid, to_tid);
  }

  /// Effective T value of entry @p idx (lazy T materialization).
  u8 entry_t(u32 idx) const { return policy_.t_of(entries_[idx]); }

  /// Effective age of entry @p idx (lazy aging materialization).
  u8 entry_age(u32 idx) const { return policy_.age_of(entries_[idx]); }

  /// Rollback-queue compaction: reset the C bit of entry @p idx if it
  /// still maps (tid, arch); stale (remapped) indices are ignored.
  void reset_c_bit(u32 idx, int tid, isa::RegId arch);

  const RfEntry& entry(u32 idx) const { return entries_[idx]; }
  const std::vector<RfEntry>& entries() const { return entries_; }
  u32 size() const { return static_cast<u32>(entries_.size()); }
  u32 threads() const {
    return static_cast<u32>(map_.size() / isa::kNumArchRegs);
  }
  u32 valid_entries() const;
  PolicyKind policy_kind() const { return policy_.kind(); }

  /// Snapshot fields: every entry, the (tid, arch) -> phys map and the
  /// policy counters. Loading checks the sizes and that every tag and
  /// map slot indexes this store.
  void state(ckpt::Archive& ar);

  /// Hard invariants (VIREC_CHECK through @p check, no-op when null or
  /// disabled): the CAM and the direct map must agree bidirectionally —
  /// every valid entry is mapped at its (tid, arch) slot and every
  /// mapped slot points at a valid entry with the matching tag — and no
  /// two valid entries may carry the same (tid, arch).
  void audit(const check::CheckContext* check) const;

  /// Fault injection for the negative self-tests: swap the (tid, arch)
  /// tags of the first two valid entries WITHOUT fixing the map — the
  /// CAM-aliasing corruption audit() and the oracle must both catch.
  /// Returns false if fewer than two entries are valid.
  bool corrupt_swap_tags_for_test();

 private:
  std::vector<RfEntry> entries_;
  // Direct map for O(1) lookup: (tid * 32 + arch) -> phys idx or -1.
  std::vector<i16> map_;
  ReplacementPolicy policy_;
  // Number of valid entries; lets allocate() skip the free-entry scan
  // once the RF is full (valid_entries() recounts independently).
  u32 valid_count_ = 0;
};

}  // namespace virec::core

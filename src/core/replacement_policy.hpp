// Register-cache replacement policies (Section 4 of the paper).
//
// Every physical register entry carries the replacement state the
// paper's tag store holds: a 3-bit thread-recency field (T), a 1-bit
// commit flag (C), a 3-bit pseudo-LRU age (A), plus perfect-LRU
// timestamps and FIFO sequence numbers for the non-pseudo baseline
// variants. The policy ranks eviction candidates by a retention
// priority word; the entry with the *highest* priority is evicted:
//
//   PLRU      A
//   LRU       oldest perfect timestamp
//   FIFO      oldest insertion
//   Random    uniform
//   MRT-PLRU  (T << 3) | A
//   MRT-LRU   T, then oldest perfect timestamp
//   LRC       (T << 4) | (C << 3) | A        <- the paper's contribution
#pragma once

#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/inst.hpp"

namespace virec::core {

enum class PolicyKind {
  kPLRU,
  kLRU,
  kFIFO,
  kRandom,
  kMrtPLRU,
  kMrtLRU,
  kLRC,
};

const char* policy_name(PolicyKind kind);
/// Parse "lrc", "mrt-plru", ... Throws std::invalid_argument.
PolicyKind parse_policy(const std::string& name);
/// All policies, in the order Figure 12 reports them.
std::vector<PolicyKind> all_policies();

/// One physical register file entry's tag-store state.
///
/// The 3-bit age is stored lazily: `age` is a base value and
/// `age_mark` records the policy's global access tick when that base
/// was written; the effective age is
/// `min(kMaxAge, age + (age_tick - age_mark))` (ReplacementPolicy::
/// age_of). This turns the "every access ages all other entries" rule
/// into an O(1) tick increment instead of an O(entries) sweep per
/// operand — bit-exact with the eager form, since saturating
/// increments commute with the capped distance.
struct RfEntry {
  bool valid = false;
  u8 tid = 0;
  isa::RegId arch = 0;
  bool dirty = false;
  // Replacement policy state.
  u8 t_bits = 0;       ///< lazy T base; read through ReplacementPolicy::t_of
  u8 age = 0;          ///< 3-bit saturating pseudo-LRU age (lazy base)
  bool c_bit = false;  ///< last accessing instruction committed
  u64 last_use = 0;    ///< perfect-LRU timestamp
  u64 insert_seq = 0;  ///< FIFO insertion order
  u64 age_mark = 0;    ///< global access tick when `age` was written
  u64 t_mark = 0;      ///< global switch epoch when `t_bits` was written
};

class ReplacementPolicy {
 public:
  static constexpr u8 kMaxAge = 7;     // 3-bit A field
  static constexpr u8 kMaxTBits = 7;   // 3-bit T field

  explicit ReplacementPolicy(PolicyKind kind, u64 seed = 0x5eedf00d);

  PolicyKind kind() const { return kind_; }

  /// Entry @p idx was accessed by a decoding instruction. Resets its
  /// age, stamps perfect-LRU time and speculatively sets the C bit
  /// (Section 5.1: C is set on access and rolled back on flush).
  void on_access(std::vector<RfEntry>& entries, u32 idx);

  /// New mapping installed in entry @p idx.
  void on_insert(std::vector<RfEntry>& entries, u32 idx, u8 tid,
                 isa::RegId arch);

  /// Context switch: previous thread's registers get T = max, all
  /// others decrement saturating at zero; the incoming thread's
  /// registers are forced to zero. Realized lazily in O(1) — the same
  /// trick as the aging tick: the global switch epoch advances and a
  /// per-thread event record captures the forced value, so t_of()
  /// reads each entry's T as the forced base minus the number of
  /// switches since, without walking the register file.
  void on_context_switch(int from_tid, int to_tid);

  /// Rollback-queue compaction reset of a flushed register's C bit.
  static void on_flush_reset(RfEntry& entry) { entry.c_bit = false; }

  /// Effective (materialized) 3-bit age of an entry under lazy aging:
  /// the base value plus the number of accesses since it was written,
  /// saturating at kMaxAge.
  u8 age_of(const RfEntry& entry) const {
    const u64 aged = entry.age + (age_tick_ - entry.age_mark);
    return aged > kMaxAge ? kMaxAge : static_cast<u8>(aged);
  }

  /// Current global access tick, for rebasing age_mark after a
  /// checkpoint restore (the tick itself is deliberately not
  /// serialized: only tick-minus-mark distances are observable, so a
  /// restore rebases every mark to whatever the live tick is).
  u64 age_tick_now() const { return age_tick_; }

  /// Effective (materialized) 3-bit thread-recency field under lazy
  /// T updates: the most recent of (a) the entry's stored base and
  /// (b) the last switch event that forced this entry's thread (from:
  /// kMaxTBits, to: 0), decremented once per context switch since,
  /// saturating at zero. Bit-exact with the eager per-entry walk.
  u8 t_of(const RfEntry& entry) const {
    u64 base = entry.t_bits;
    u64 mark = entry.t_mark;
    const ThreadSwitchEvent& ev = switch_ev_[entry.tid];
    if (ev.epoch > mark) {
      base = ev.base;
      mark = ev.epoch;
    }
    const u64 dec = switch_epoch_ - mark;
    return base > dec ? static_cast<u8>(base - dec) : 0;
  }

  /// Current global switch epoch, for rebasing t_mark after a restore
  /// (not serialized, same reasoning as age_tick_now).
  u64 switch_epoch_now() const { return switch_epoch_; }

  /// Store an explicit T value into @p entry at the current epoch
  /// (tests and checkpoint restore; regular state flows through
  /// on_insert / on_context_switch).
  void set_t(RfEntry& entry, u8 t) const {
    entry.t_bits = t;
    entry.t_mark = switch_epoch_;
  }

  /// Pick the victim among valid entries whose index is not in
  /// @p locked (bool per entry). Returns -1 if none is evictable.
  int pick_victim(const std::vector<RfEntry>& entries,
                  const std::vector<u8>& locked);

  /// Snapshot fields: the RNG engine and LRU/FIFO counters (the
  /// per-entry state lives in the tag store's RfEntry records).
  void state(ckpt::Archive& ar) {
    u64 s0 = rng_.state0();
    u64 s1 = rng_.state1();
    ar(s0, s1, tick_, seq_);
    if (!ar.loading()) return;
    rng_.set_state(s0, s1);
    // Snapshots carry materialized T values that the tag store rebases
    // onto the live epoch; stale per-thread switch events would
    // override those marks, so drop them.
    switch_ev_.assign(switch_ev_.size(), ThreadSwitchEvent{});
  }

 private:
  /// Last context-switch event that explicitly forced a thread's
  /// entries (from: kMaxTBits, to: 0). epoch 0 = never.
  struct ThreadSwitchEvent {
    u64 epoch = 0;
    u8 base = 0;
  };

  PolicyKind kind_;
  Xorshift128 rng_;
  u64 tick_ = 0;
  u64 seq_ = 0;
  u64 age_tick_ = 0;  ///< global access counter backing lazy aging
  u64 switch_epoch_ = 0;  ///< global switch counter backing lazy T bits
  // Indexed by RfEntry::tid (u8), so 256 slots cover every tag.
  std::vector<ThreadSwitchEvent> switch_ev_ =
      std::vector<ThreadSwitchEvent>(256);
};

}  // namespace virec::core

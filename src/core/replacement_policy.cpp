#include "core/replacement_policy.hpp"

#include <stdexcept>

namespace virec::core {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kPLRU: return "plru";
    case PolicyKind::kLRU: return "lru";
    case PolicyKind::kFIFO: return "fifo";
    case PolicyKind::kRandom: return "random";
    case PolicyKind::kMrtPLRU: return "mrt-plru";
    case PolicyKind::kMrtLRU: return "mrt-lru";
    case PolicyKind::kLRC: return "lrc";
  }
  return "?";
}

PolicyKind parse_policy(const std::string& name) {
  for (PolicyKind kind : all_policies()) {
    if (name == policy_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown policy '" + name + "'");
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::kPLRU,    PolicyKind::kLRU,    PolicyKind::kFIFO,
          PolicyKind::kRandom,  PolicyKind::kMrtPLRU, PolicyKind::kMrtLRU,
          PolicyKind::kLRC};
}

ReplacementPolicy::ReplacementPolicy(PolicyKind kind, u64 seed)
    : kind_(kind), rng_(seed) {}

void ReplacementPolicy::on_access(std::vector<RfEntry>& entries, u32 idx) {
  // Every access ages all other entries (saturating 3-bit counters):
  // entries not touched for a handful of accesses all reach the
  // maximum age — the "fuzzing of reuse distances" of Section 4.2 that
  // the commit bit disambiguates. Realized lazily: the global tick
  // advances once per access, and age_of() reads each entry's age as
  // the capped distance to its last reset, so the per-access cost is
  // O(1) instead of a sweep over the whole register file.
  ++age_tick_;
  RfEntry& entry = entries[idx];
  entry.age = 0;
  entry.age_mark = age_tick_;
  entry.last_use = ++tick_;
  entry.c_bit = true;  // speculative; rollback clears it on flush
}

void ReplacementPolicy::on_insert(std::vector<RfEntry>& entries, u32 idx,
                                  u8 tid, isa::RegId arch) {
  RfEntry& entry = entries[idx];
  entry.valid = true;
  entry.tid = tid;
  entry.arch = arch;
  entry.dirty = false;
  entry.t_bits = 0;
  entry.t_mark = switch_epoch_;
  entry.age = 0;
  entry.age_mark = age_tick_;
  entry.c_bit = true;
  entry.last_use = ++tick_;
  entry.insert_seq = ++seq_;
}

void ReplacementPolicy::on_context_switch(int from_tid, int to_tid) {
  // O(1) lazy form of: from's entries get T = kMaxTBits, to's get 0,
  // everyone else decrements saturating at zero. The from event is
  // recorded first so from == to resolves to kMaxTBits, matching the
  // eager walk's if/else ordering.
  ++switch_epoch_;
  if (from_tid >= 0 && from_tid < static_cast<int>(switch_ev_.size())) {
    switch_ev_[static_cast<std::size_t>(from_tid)] = {switch_epoch_,
                                                      kMaxTBits};
  }
  if (to_tid >= 0 && to_tid != from_tid &&
      to_tid < static_cast<int>(switch_ev_.size())) {
    switch_ev_[static_cast<std::size_t>(to_tid)] = {switch_epoch_, 0};
  }
}

namespace {

/// Highest-priority valid, unlocked entry; ties go to the lowest index.
/// @p ceiling is the largest value @p priority can return: an entry
/// that reaches it ends the scan, since later entries can at best tie
/// and a tie keeps the earlier index.
template <typename Priority>
int scan_victim(const std::vector<RfEntry>& entries,
                const std::vector<u8>& locked, u64 ceiling,
                Priority priority) {
  int best = -1;
  u64 best_priority = 0;
  for (u32 i = 0; i < entries.size(); ++i) {
    if (!entries[i].valid || locked[i]) continue;
    const u64 p = priority(entries[i]);
    if (best < 0 || p > best_priority) {
      best = static_cast<int>(i);
      best_priority = p;
      if (p == ceiling) break;
    }
  }
  return best;
}

}  // namespace

int ReplacementPolicy::pick_victim(const std::vector<RfEntry>& entries,
                                   const std::vector<u8>& locked) {
  // One scan per policy, so the kind switch runs once per call instead
  // of once per entry. Saturated pseudo-LRU fields are common, so those
  // scans usually stop early. LRU, FIFO and MRT-LRU rank by perfect
  // timestamps (inverted: older is larger) and scan to the end.
  constexpr u64 kNoCeiling = ~u64{0};
  switch (kind_) {
    case PolicyKind::kPLRU:
      return scan_victim(entries, locked, kMaxAge,
                         [this](const RfEntry& e) { return age_of(e); });
    case PolicyKind::kLRU:
      return scan_victim(entries, locked, kNoCeiling,
                         [](const RfEntry& e) { return ~e.last_use; });
    case PolicyKind::kFIFO:
      return scan_victim(entries, locked, kNoCeiling,
                         [](const RfEntry& e) { return ~e.insert_seq; });
    case PolicyKind::kMrtPLRU:
      return scan_victim(entries, locked, (u64{kMaxTBits} << 3) | kMaxAge,
                         [this](const RfEntry& e) {
                           return (u64{t_of(e)} << 3) | age_of(e);
                         });
    case PolicyKind::kMrtLRU:
      return scan_victim(
          entries, locked, kNoCeiling, [this](const RfEntry& e) {
            return (u64{t_of(e)} << 58) |
                   (~e.last_use & ((u64{1} << 58) - 1));
          });
    case PolicyKind::kLRC:
      return scan_victim(entries, locked,
                         (u64{kMaxTBits} << 4) | (u64{1} << 3) | kMaxAge,
                         [this](const RfEntry& e) {
                           return (u64{t_of(e)} << 4) |
                                  (u64{e.c_bit} << 3) | age_of(e);
                         });
    case PolicyKind::kRandom:
      break;
  }
  std::vector<u32> candidates;
  for (u32 i = 0; i < entries.size(); ++i) {
    if (entries[i].valid && !locked[i]) candidates.push_back(i);
  }
  if (candidates.empty()) return -1;
  return static_cast<int>(candidates[rng_.next_below(candidates.size())]);
}

}  // namespace virec::core

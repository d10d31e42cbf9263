#include "core/tag_store.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.hpp"

namespace virec::core {

TagStore::TagStore(u32 num_phys_regs, u32 num_threads, PolicyKind policy,
                   u64 seed)
    : entries_(num_phys_regs),
      map_(static_cast<std::size_t>(num_threads) * isa::kNumArchRegs, -1),
      policy_(policy, seed) {
  if (num_phys_regs == 0 || num_phys_regs > 4096) {
    throw std::invalid_argument("TagStore: bad physical register count");
  }
}

int TagStore::lookup(int tid, isa::RegId arch) const {
  return map_[static_cast<std::size_t>(tid) * isa::kNumArchRegs + arch];
}

int TagStore::allocate(int tid, isa::RegId arch,
                       const std::vector<u8>& locked, Victim* victim) {
  if (victim != nullptr) *victim = Victim{};
  // Prefer a free entry; skip the scan entirely when the RF is full
  // (the steady state of every long run).
  if (valid_count_ < entries_.size()) {
    for (u32 i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].valid && !locked[i]) {
        policy_.on_insert(entries_, i, static_cast<u8>(tid), arch);
        ++valid_count_;
        map_[static_cast<std::size_t>(tid) * isa::kNumArchRegs + arch] =
            static_cast<i16>(i);
        return static_cast<int>(i);
      }
    }
  }
  const int idx = policy_.pick_victim(entries_, locked);
  if (idx < 0) return -1;
  RfEntry& entry = entries_[static_cast<u32>(idx)];
  if (victim != nullptr) {
    victim->valid = true;
    victim->tid = entry.tid;
    victim->arch = entry.arch;
    victim->dirty = entry.dirty;
  }
  map_[static_cast<std::size_t>(entry.tid) * isa::kNumArchRegs + entry.arch] =
      -1;
  policy_.on_insert(entries_, static_cast<u32>(idx), static_cast<u8>(tid),
                    arch);
  map_[static_cast<std::size_t>(tid) * isa::kNumArchRegs + arch] =
      static_cast<i16>(idx);
  return idx;
}

void TagStore::invalidate(u32 idx) {
  RfEntry& entry = entries_[idx];
  if (!entry.valid) return;
  map_[static_cast<std::size_t>(entry.tid) * isa::kNumArchRegs + entry.arch] =
      -1;
  entry = RfEntry{};
  --valid_count_;
}

void TagStore::reset_c_bit(u32 idx, int tid, isa::RegId arch) {
  RfEntry& entry = entries_[idx];
  if (entry.valid && static_cast<int>(entry.tid) == tid &&
      entry.arch == arch) {
    ReplacementPolicy::on_flush_reset(entry);
  }
}

u32 TagStore::valid_entries() const {
  u32 count = 0;
  for (const RfEntry& e : entries_) {
    if (e.valid) ++count;
  }
  return count;
}

void TagStore::audit(const check::CheckContext* check) const {
  if (check == nullptr || !check->enabled()) return;
  // Forward direction: every valid entry must be mapped at its slot.
  for (u32 i = 0; i < entries_.size(); ++i) {
    const RfEntry& e = entries_[i];
    if (!e.valid) continue;
    const std::size_t slot =
        static_cast<std::size_t>(e.tid) * isa::kNumArchRegs + e.arch;
    VIREC_CHECK(check, slot < map_.size(),
                "tag store entry " + std::to_string(i) +
                    " carries out-of-range tag (tid " + std::to_string(e.tid) +
                    ", x" + std::to_string(e.arch) + ")");
    VIREC_CHECK(check, map_[slot] == static_cast<i16>(i),
                "tag store entry " + std::to_string(i) + " tagged (tid " +
                    std::to_string(e.tid) + ", x" + std::to_string(e.arch) +
                    ") but map slot points at " + std::to_string(map_[slot]) +
                    " — duplicate or stale mapping");
  }
  // Reverse direction: every mapped slot must name a matching entry.
  for (std::size_t slot = 0; slot < map_.size(); ++slot) {
    const i16 m = map_[slot];
    if (m < 0) continue;
    const auto tid = static_cast<u8>(slot / isa::kNumArchRegs);
    const auto arch = static_cast<isa::RegId>(slot % isa::kNumArchRegs);
    VIREC_CHECK(check, static_cast<std::size_t>(m) < entries_.size(),
                "tag store map slot (tid " + std::to_string(tid) + ", x" +
                    std::to_string(arch) + ") points past the RF");
    const RfEntry& e = entries_[static_cast<u32>(m)];
    VIREC_CHECK(check, e.valid && e.tid == tid && e.arch == arch,
                "tag store map slot (tid " + std::to_string(tid) + ", x" +
                    std::to_string(arch) + ") points at entry " +
                    std::to_string(m) + " which is " +
                    (e.valid ? "tagged (tid " + std::to_string(e.tid) +
                                   ", x" + std::to_string(e.arch) + ")"
                             : "free"));
  }
}

bool TagStore::corrupt_swap_tags_for_test() {
  int first = -1;
  for (u32 i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) continue;
    if (first < 0) {
      first = static_cast<int>(i);
      continue;
    }
    RfEntry& a = entries_[static_cast<u32>(first)];
    RfEntry& b = entries_[i];
    std::swap(a.tid, b.tid);
    std::swap(a.arch, b.arch);
    return true;
  }
  return false;
}

void TagStore::state(ckpt::Archive& ar) {
  ar.length(entries_.size(), "tag store entries");
  for (RfEntry& e : entries_) {
    // The lazy T and age fields travel materialized, the format of the
    // eager representation; loading stores them as bases and rebases
    // their marks below.
    u8 t = e.valid ? policy_.t_of(e) : 0;
    u8 age = e.valid ? policy_.age_of(e) : 0;
    ar(e.valid);
    ar.index(e.tid, threads(), "tag store tid");
    ar.index(e.arch, isa::kNumArchRegs, "tag store arch");
    ar(e.dirty, t, age, e.c_bit, e.last_use, e.insert_seq);
    if (ar.loading()) {
      e.t_bits = t;
      e.age = age;
    }
  }
  ar.length(map_.size(), "tag store map");
  for (i16& m : map_) ar.index(m, entries_.size(), "tag store map slot");
  policy_.state(ar);
  if (!ar.loading()) return;
  // Rebase every entry's lazy marks on the live ticks (which are not
  // serialized) and rebuild the valid-entry count.
  valid_count_ = 0;
  for (RfEntry& e : entries_) {
    e.age_mark = policy_.age_tick_now();
    e.t_mark = policy_.switch_epoch_now();
    if (e.valid) ++valid_count_;
  }
}

}  // namespace virec::core

// Functional (value-carrying) memory for the simulated system. Backing
// storage is a sparse map of 4 KiB pages so workloads can scatter data
// across a 64-bit physical address space without allocating it all.
//
// This is the *functional* half of the memory system; timing lives in
// mem/cache.hpp, mem/dram.hpp and mem/crossbar.hpp.
#pragma once

#include <bit>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/types.hpp"

namespace virec::mem {

// The inline read/write paths and the block context moves of the
// context managers copy host integers straight into simulated memory,
// which stores little-endian values.
static_assert(std::endian::native == std::endian::little,
              "SparseMemory requires a little-endian host");

class SparseMemory {
 public:
  static constexpr u64 kPageSize = 4096;

  SparseMemory() = default;
  // Copies must not inherit the one-entry page cache: the raw pointer
  // would alias the *source's* page map, so a later write through the
  // copy would silently mutate the original. The check subsystem clones
  // functional memory for its shadow state, so this matters.
  SparseMemory(const SparseMemory& other) : pages_(other.pages_) {}
  SparseMemory& operator=(const SparseMemory& other) {
    if (this != &other) {
      pages_ = other.pages_;
      drop_cache();
    }
    return *this;
  }

  /// Snapshot fields: every touched page (sorted by page number, so the
  /// snapshot bytes are deterministic). Loading replaces all contents.
  void state(ckpt::Archive& ar);

  /// Read @p size (1/2/4/8) bytes at @p addr, little-endian, zero if
  /// the page was never written. Inline when the access lies inside
  /// the cached page: one memcpy of the host's little-endian bytes.
  u64 read(Addr addr, u32 size) const {
    const u64 off = addr % kPageSize;
    if (addr / kPageSize != cached_page_no_ || off + size > kPageSize) {
      return read_slow(addr, size);
    }
    u64 value = 0;
    std::memcpy(&value, cached_page_->data() + off, size);
    return value;
  }

  /// Write the low @p size bytes of @p value at @p addr. Inline when the
  /// access lies inside the cached page and no journal is recording.
  void write(Addr addr, u32 size, u64 value) {
    const u64 off = addr % kPageSize;
    if (journaling_ || addr / kPageSize != cached_page_no_ ||
        off + size > kPageSize) {
      write_slow(addr, size, value);
      return;
    }
    std::memcpy(cached_page_->data() + off, &value, size);
  }

  u64 read_u64(Addr addr) const { return read(addr, 8); }
  void write_u64(Addr addr, u64 v) { write(addr, 8, v); }
  double read_f64(Addr addr) const;
  void write_f64(Addr addr, double v);

  /// Bulk copy helpers used by workload initialisation and checkers.
  void write_block(Addr addr, const void* src, std::size_t bytes);
  void read_block(Addr addr, void* dst, std::size_t bytes) const;

  /// Number of distinct touched pages (test/diagnostic aid).
  std::size_t page_count() const { return pages_.size(); }

  /// Drop all contents.
  void clear() {
    pages_.clear();
    drop_cache();
  }

  // --- Undo journal (tiered probe-and-revert; sim::TieredRunner) ---
  //
  // While active, every write() records the bytes it overwrites so
  // journal_rollback() can restore the pre-journal contents exactly
  // (entries are replayed in reverse, so overlapping writes unwind
  // correctly).

  /// Start recording undo entries. Must not already be active.
  void journal_begin();
  /// Undo every journaled write (newest first) and stop recording.
  void journal_rollback();
  /// Stop recording and keep the written state.
  void journal_discard();
  bool journal_active() const { return journaling_; }

 private:
  using Page = std::vector<u8>;

  void drop_cache() {
    cached_page_no_ = ~u64{0};
    cached_page_ = nullptr;
  }
  const Page* find_page(Addr addr) const;
  Page& touch_page(Addr addr);
  /// Page misses, page-crossing accesses and journaled writes.
  u64 read_slow(Addr addr, u32 size) const;
  void write_slow(Addr addr, u32 size, u64 value);

  struct JournalEntry {
    Addr addr;
    u32 size;
    u64 old_value;
  };

  std::unordered_map<u64, Page> pages_;
  bool journaling_ = false;
  std::vector<JournalEntry> journal_;
  // One-entry page cache so sequential/streaming access skips the
  // unordered_map probe. unordered_map never moves mapped values on
  // insert, so the pointer stays valid until clear().
  mutable u64 cached_page_no_ = ~u64{0};
  mutable Page* cached_page_ = nullptr;
};

}  // namespace virec::mem

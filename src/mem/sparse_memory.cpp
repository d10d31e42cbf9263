#include "mem/sparse_memory.hpp"

#include <algorithm>
#include <stdexcept>

namespace virec::mem {

void SparseMemory::state(ckpt::Archive& ar) {
  // One direction each: pages are saved in sorted order, and loading
  // rebuilds the map from whatever order the snapshot holds.
  std::vector<u64> page_nos;
  if (!ar.loading()) {
    page_nos.reserve(pages_.size());
    for (const auto& [no, page] : pages_) page_nos.push_back(no);
    std::sort(page_nos.begin(), page_nos.end());
  } else {
    clear();
  }
  u64 n = page_nos.size();
  ar(n);
  for (u64 i = 0; i < n; ++i) {
    u64 no = ar.loading() ? 0 : page_nos[i];
    ar(no);
    Page& page = pages_[no];
    page.resize(kPageSize);
    ar.bytes(page.data(), kPageSize);
  }
}

const SparseMemory::Page* SparseMemory::find_page(Addr addr) const {
  const u64 page_no = addr / kPageSize;
  if (page_no == cached_page_no_) return cached_page_;
  auto it = pages_.find(page_no);
  if (it == pages_.end()) return nullptr;
  cached_page_no_ = page_no;
  cached_page_ = const_cast<Page*>(&it->second);
  return &it->second;
}

SparseMemory::Page& SparseMemory::touch_page(Addr addr) {
  const u64 page_no = addr / kPageSize;
  if (page_no == cached_page_no_) return *cached_page_;
  Page& page = pages_[page_no];
  if (page.empty()) page.assign(kPageSize, 0);
  cached_page_no_ = page_no;
  cached_page_ = &page;
  return page;
}

u64 SparseMemory::read_slow(Addr addr, u32 size) const {
  const u64 off = addr % kPageSize;
  if (off + size <= kPageSize) {
    // Whole access inside one page: resolve it once.
    const Page* page = find_page(addr);
    if (page == nullptr) return 0;
    const u8* p = page->data() + off;
    u64 value = 0;
    for (u32 i = 0; i < size; ++i) value |= u64{p[i]} << (8 * i);
    return value;
  }
  u64 value = 0;
  for (u32 i = 0; i < size; ++i) {
    const Addr byte_addr = addr + i;
    const Page* page = find_page(byte_addr);
    const u64 byte = page ? (*page)[byte_addr % kPageSize] : 0;
    value |= byte << (8 * i);
  }
  return value;
}

void SparseMemory::journal_begin() {
  if (journaling_) {
    throw std::logic_error("SparseMemory: journal already active");
  }
  journaling_ = true;
  journal_.clear();
}

void SparseMemory::journal_rollback() {
  journaling_ = false;
  for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
    write(it->addr, it->size, it->old_value);
  }
  journal_.clear();
}

void SparseMemory::journal_discard() {
  journaling_ = false;
  journal_.clear();
}

void SparseMemory::write_slow(Addr addr, u32 size, u64 value) {
  if (journaling_) journal_.push_back({addr, size, read(addr, size)});
  const u64 off = addr % kPageSize;
  if (off + size <= kPageSize) {
    u8* p = touch_page(addr).data() + off;
    for (u32 i = 0; i < size; ++i) p[i] = static_cast<u8>(value >> (8 * i));
    return;
  }
  for (u32 i = 0; i < size; ++i) {
    const Addr byte_addr = addr + i;
    touch_page(byte_addr)[byte_addr % kPageSize] =
        static_cast<u8>(value >> (8 * i));
  }
}

double SparseMemory::read_f64(Addr addr) const {
  const u64 bits = read_u64(addr);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void SparseMemory::write_f64(Addr addr, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof bits);
  write_u64(addr, bits);
}

void SparseMemory::write_block(Addr addr, const void* src, std::size_t bytes) {
  if (journaling_) {
    // Journaled writes of up to 8 bytes each, so rollback stays exact
    // and a register context costs one journal entry per register.
    const u8* q = static_cast<const u8*>(src);
    for (std::size_t done = 0; done < bytes; done += 8) {
      const u32 n = static_cast<u32>(std::min<std::size_t>(8, bytes - done));
      u64 value = 0;
      std::memcpy(&value, q + done, n);
      write_slow(addr + done, n, value);
    }
    return;
  }
  const u8* p = static_cast<const u8*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const Addr a = addr + done;
    Page& page = touch_page(a);
    const std::size_t off = a % kPageSize;
    const std::size_t chunk = std::min(bytes - done, kPageSize - off);
    std::memcpy(page.data() + off, p + done, chunk);
    done += chunk;
  }
}

void SparseMemory::read_block(Addr addr, void* dst, std::size_t bytes) const {
  u8* p = static_cast<u8*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const Addr a = addr + done;
    const Page* page = find_page(a);
    const std::size_t off = a % kPageSize;
    const std::size_t chunk = std::min(bytes - done, kPageSize - off);
    if (page) {
      std::memcpy(p + done, page->data() + off, chunk);
    } else {
      std::memset(p + done, 0, chunk);
    }
    done += chunk;
  }
}

}  // namespace virec::mem

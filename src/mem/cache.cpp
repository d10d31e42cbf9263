#include "mem/cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "check/check.hpp"

namespace virec::mem {

Cache::Cache(const CacheConfig& config, MemLevel& below)
    : config_(config), below_(below), stats_(config.name) {
  if (config_.size_bytes % (kLineBytes * config_.assoc) != 0) {
    throw std::invalid_argument("Cache: size not divisible by assoc*line");
  }
  num_sets_ = config_.size_bytes / (kLineBytes * config_.assoc);
  if (!is_pow2(num_sets_)) {
    throw std::invalid_argument("Cache: number of sets must be a power of 2");
  }
  set_shift_ = log2_pow2(num_sets_);
  lines_.resize(static_cast<std::size_t>(num_sets_) * config_.assoc);
  mshr_until_.assign(config_.mshrs, 0);
  c_reads_ = stats_.counter("reads", "read accesses presented to this cache");
  c_writes_ = stats_.counter("writes",
                             "write accesses presented to this cache");
  c_hits_ = stats_.counter("hits",
                           "demand accesses served from a present line");
  c_misses_ = stats_.counter("misses",
                             "demand accesses that went to the next level");
  c_coalesced_ = stats_.counter(
      "coalesced_misses", "misses merged into an already in-flight MSHR");
  c_reg_region_misses_ = stats_.counter(
      "reg_region_misses", "misses to the register backing-store region");
  c_port_wait_cycles_ = stats_.counter(
      "port_wait_cycles", "cycles accesses waited for a free cache port");
  c_miss_latency_ = stats_.counter(
      "miss_latency", "summed fill latency over all demand misses");
  c_mshr_stall_cycles_ = stats_.counter(
      "mshr_stall_cycles", "cycles accesses stalled with all MSHRs busy");
  c_writebacks_ = stats_.counter("writebacks",
                                 "dirty lines written back on eviction");
  c_bypasses_ = stats_.counter("bypasses",
                               "accesses that bypassed allocation");
  c_prefetches_ = stats_.counter("prefetches",
                                 "prefetch fills issued into this cache");
  c_warm_hits_ = stats_.counter(
      "warm_hits", "functional warm-tier accesses that found the line");
  c_warm_misses_ = stats_.counter(
      "warm_misses", "functional warm-tier accesses that filled or bypassed");
  hist_miss_cycles_ = stats_.histogram(
      "miss_cycles", "per-miss latency from access to data return");
}

Cache::Line* Cache::find_line(Addr line_addr) {
  const u64 line_no = line_addr / kLineBytes;
  const u32 set = static_cast<u32>(line_no & (num_sets_ - 1));
  const u64 tag = line_no >> set_shift_;
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
  for (u32 w = 0; w < config_.assoc; ++w) {
    if (base[w].valid && base[w].tag == tag) return &base[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find_line(Addr line_addr) const {
  return const_cast<Cache*>(this)->find_line(line_addr);
}

bool Cache::probe(Addr addr) const { return find_line(line_of(addr)) != nullptr; }

bool Cache::reserve_line(Addr addr) {
  Line* line = find_line(line_of(addr));
  if (line == nullptr) return false;
  if (line->pin < 7) ++line->pin;
  return true;
}

void Cache::release_line(Addr addr) {
  Line* line = find_line(line_of(addr));
  if (line != nullptr && line->pin > 0) --line->pin;
}

u32 Cache::outstanding_misses(Cycle now) const {
  u32 count = 0;
  for (const Cycle until : mshr_until_) {
    if (until > now) ++count;
  }
  return count;
}

u32 Cache::pinned_lines() const {
  u32 count = 0;
  for (const Line& line : lines_) {
    if (line.valid && line.pin > 0) ++count;
  }
  return count;
}

Cache::Line* Cache::pick_victim(u32 set, Cycle now) {
  Line* base = &lines_[static_cast<std::size_t>(set) * config_.assoc];
  Line* victim = nullptr;
  for (u32 w = 0; w < config_.assoc; ++w) {
    Line& line = base[w];
    if (!line.valid) return &line;
    if (line.pin > 0 || line.pending_until > now) continue;
    if (victim == nullptr || line.lru < victim->lru) victim = &line;
  }
  return victim;
}

Cycle Cache::acquire_mshr(Cycle start, bool& stalled) {
  // Find a free MSHR; if all are busy, wait for the earliest to retire.
  Cycle* best = &mshr_until_[0];
  for (Cycle& until : mshr_until_) {
    if (until <= start) {
      until = kNeverCycle;  // claimed; caller fills in the real time
      stalled = false;
      return start;
    }
    if (until < *best) best = &until;
  }
  stalled = true;
  const Cycle freed = *best;
  *best = kNeverCycle;
  *c_mshr_stall_cycles_ += double(freed - start);
  return freed;
}

void Cache::maybe_prefetch(Addr line_addr, Cycle now) {
  if (!config_.stride_prefetch) return;
  const u64 line_no = line_addr / kLineBytes;
  const i64 stride = static_cast<i64>(line_no) -
                     static_cast<i64>(last_miss_line_);
  if (stride != 0 && stride == last_stride_) {
    for (u32 d = 1; d <= config_.prefetch_degree; ++d) {
      const Addr pf_addr =
          static_cast<Addr>(static_cast<i64>(line_no) + stride * d) *
          kLineBytes;
      if (find_line(pf_addr) != nullptr) continue;
      const u64 pf_line_no = pf_addr / kLineBytes;
      const u32 set = static_cast<u32>(pf_line_no & (num_sets_ - 1));
      Line* victim = pick_victim(set, now);
      if (victim == nullptr) break;
      if (victim->valid && victim->dirty) {
        const Addr wb = ((victim->tag << set_shift_) |
                         (pf_line_no & (num_sets_ - 1))) *
                        kLineBytes;
        below_.line_access(wb, /*is_write=*/true, now);
      }
      const Cycle done = below_.line_access(pf_addr, false, now);
      victim->valid = true;
      victim->dirty = false;
      victim->reg_line = false;
      victim->pin = 0;
      victim->tag = pf_line_no >> set_shift_;
      victim->pending_until = done;
      victim->lru = done;  // inserted at fill response (MRU on arrival)
      ++*c_prefetches_;
    }
  }
  last_stride_ = stride;
  last_miss_line_ = line_no;
}

CacheAccess Cache::access(Addr addr, bool is_write, Cycle now,
                          bool reg_region) {
  CacheAccess result;
  // One access per cycle through the port. The arbiter always gives
  // LSQ/program requests priority; register-region (backing store)
  // requests yield to them.
  Cycle start;
  if (reg_region) {
    start = std::max(now, std::max(port_next_free_, reg_port_next_free_));
    reg_port_next_free_ = start + 1;
  } else {
    start = std::max(now, port_next_free_);
    port_next_free_ = start + 1;
  }
  if (start > now) *c_port_wait_cycles_ += double(start - now);
  ++*(is_write ? c_writes_ : c_reads_);

  const Addr laddr = line_of(addr);
  Line* line = find_line(laddr);

  auto touch_reg_bits = [&](Line& l) {
    if (!reg_region) return;
    l.reg_line = true;
    if (is_write) {
      if (l.pin > 0) --l.pin;
    } else {
      if (l.pin < 7) ++l.pin;
    }
  };

  if (line != nullptr && line->pending_until <= start) {
    // Plain hit.
    result.hit = true;
    result.done = start + config_.hit_latency;
    line->lru = start;
    if (is_write) line->dirty = true;
    touch_reg_bits(*line);
    ++*c_hits_;
    return result;
  }

  if (line != nullptr) {
    // Hit-under-miss: the line is being filled; coalesce.
    result.hit = false;
    result.done = std::max(line->pending_until,
                           static_cast<Cycle>(start + config_.hit_latency));
    line->lru = result.done;
    if (is_write) line->dirty = true;
    touch_reg_bits(*line);
    ++*c_coalesced_;
    return result;
  }

  // Miss.
  ++*c_misses_;
  if (reg_region) ++*c_reg_region_misses_;
  if (check_ != nullptr) {
    // A sentinel still present here means a previous miss claimed an
    // MSHR and never released it — a slot leaked forever.
    for (const Cycle until : mshr_until_) {
      VIREC_CHECK(check_, until != kNeverCycle,
                  std::string(config_.name) +
                      ": MSHR claimed but never released (leak)");
    }
  }
  maybe_prefetch(laddr, start);

  bool mshr_stalled = false;
  const Cycle issue = acquire_mshr(start + config_.hit_latency, mshr_stalled);
  result.mshr_stall = mshr_stalled;

  const u64 line_no = laddr / kLineBytes;
  const u32 set = static_cast<u32>(line_no & (num_sets_ - 1));
  Line* victim = pick_victim(set, issue);

  Cycle done;
  if (victim == nullptr) {
    // Every way pinned or mid-fill: bypass the cache entirely.
    done = below_.line_access(laddr, is_write, issue);
    ++*c_bypasses_;
  } else {
    if (victim->valid && victim->dirty) {
      const Addr wb = ((victim->tag << set_shift_) |
                       (line_no & (num_sets_ - 1))) *
                      kLineBytes;
      below_.line_access(wb, /*is_write=*/true, issue);
      ++*c_writebacks_;
    }
    done = below_.line_access(laddr, false, issue);
    victim->valid = true;
    victim->dirty = is_write;
    victim->reg_line = false;
    victim->pin = 0;
    victim->tag = line_no >> set_shift_;
    victim->pending_until = done;
    victim->lru = done;  // inserted at fill response (MRU on arrival)
    touch_reg_bits(*victim);
  }

  // Release the claimed MSHR at completion time.
  bool released = false;
  for (Cycle& until : mshr_until_) {
    if (until == kNeverCycle) {
      until = done;
      released = true;
      break;
    }
  }
  VIREC_CHECK(check_, released,
              std::string(config_.name) +
                  ": no claimed MSHR to release after miss");
  VIREC_CHECK(check_, done >= now,
              std::string(config_.name) + ": miss completes at cycle " +
                  std::to_string(done) + ", before issue cycle " +
                  std::to_string(now));

  result.hit = false;
  result.done = done;
  *c_miss_latency_ += double(done - start);
  hist_miss_cycles_->record(double(done - start));
  return result;
}

Cycle Cache::line_access(Addr line_addr, bool is_write, Cycle now) {
  return access(line_addr, is_write, now, /*reg_region=*/false).done;
}

bool Cache::warm_access(Addr addr, bool is_write, Cycle warm_now,
                        bool reg_region) {
  const Addr laddr = line_of(addr);
  Line* line = find_line(laddr);

  auto touch_reg_bits = [&](Line& l) {
    if (!reg_region) return;
    l.reg_line = true;
    if (is_write) {
      if (l.pin > 0) --l.pin;
    } else {
      if (l.pin < 7) ++l.pin;
    }
  };

  if (line != nullptr) {
    // Present (possibly still mid-fill from before the tier cut —
    // functionally the data is in memory either way): refresh recency.
    line->lru = warm_now;
    if (is_write) line->dirty = true;
    touch_reg_bits(*line);
    ++*c_warm_hits_;
    return true;
  }

  ++*c_warm_misses_;
  const u64 line_no = laddr / kLineBytes;
  const u32 set = static_cast<u32>(line_no & (num_sets_ - 1));
  Line* victim = pick_victim(set, warm_now);
  if (victim == nullptr) {
    // Every way pinned or mid-fill: the detailed model would bypass.
    below_.warm_line(laddr, is_write, warm_now);
    return false;
  }
  if (victim->valid && victim->dirty) {
    // The writeback itself is a functional no-op (the cache holds tags
    // only; SparseMemory already has the data), but it would touch the
    // level below, so warm that.
    const Addr wb = ((victim->tag << set_shift_) |
                     (line_no & (num_sets_ - 1))) *
                    kLineBytes;
    below_.warm_line(wb, /*is_write=*/true, warm_now);
  }
  below_.warm_line(laddr, /*is_write=*/false, warm_now);
  victim->valid = true;
  victim->dirty = is_write;
  victim->reg_line = false;
  victim->pin = 0;
  victim->tag = line_no >> set_shift_;
  victim->pending_until = warm_now;  // fill completes instantly
  // The detailed model inserts at fill *completion* (lru = done), so a
  // just-filled line outranks lines merely hit around the same time —
  // which is what lets streaming fills push out frequently-hit lines.
  // Reproduce that geometry: stamp warm fills ahead of the warm clock
  // by the cache's own observed mean miss latency (0 until a detailed
  // stretch has measured one).
  const Cycle fill_bias =
      *c_misses_ > 0.0 ? static_cast<Cycle>(*c_miss_latency_ / *c_misses_)
                       : 0;
  victim->lru = warm_now + fill_bias;
  touch_reg_bits(*victim);
  return false;
}

void Cache::state(ckpt::Archive& ar) {
  ar.length(lines_.size(), "cache lines");
  for (Line& l : lines_) {
    ar(l.tag, l.valid, l.dirty, l.reg_line, l.pin, l.pending_until, l.lru);
  }
  ar.vec(mshr_until_, "cache MSHRs");
  ar(port_next_free_, reg_port_next_free_, last_miss_line_, last_stride_);
  stats_.state(ar);
}

}  // namespace virec::mem

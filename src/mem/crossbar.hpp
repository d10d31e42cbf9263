// System crossbar between near-memory processors and the memory
// controller. Adds a fixed traversal latency plus shared-link occupancy
// so concurrent processors contend for bandwidth (Figure 11).
#pragma once

#include "ckpt/serialize.hpp"
#include "common/stats.hpp"
#include "mem/mem_level.hpp"

namespace virec::mem {

struct CrossbarConfig {
  u32 latency = 8;          // one-way traversal, cycles
  u32 cycles_per_line = 4;  // shared-link occupancy per 64 B transfer
};

class Crossbar final : public MemLevel {
 public:
  Crossbar(const CrossbarConfig& config, MemLevel& below);

  Cycle line_access(Addr line_addr, bool is_write, Cycle now) override;

  /// The crossbar keeps no persistent state besides the link cursor;
  /// warm accesses pass straight through to the memory controller.
  void warm_line(Addr line_addr, bool is_write, Cycle warm_now) override {
    below_.warm_line(line_addr, is_write, warm_now);
  }

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  /// Snapshot fields: link occupancy plus the stat set.
  void state(ckpt::Archive& ar);

 private:
  CrossbarConfig config_;
  MemLevel& below_;
  Cycle link_next_free_ = 0;
  StatSet stats_;
  Distribution* dist_link_wait_ = nullptr;  // owned by stats_
  // Hot-path counter handles (owned by stats_).
  double* c_transfers_ = nullptr;
  double* c_contention_cycles_ = nullptr;
};

}  // namespace virec::mem

// DDR5-flavoured DRAM timing model.
//
// The model resolves the completion time of each 64 B line access when
// it is issued: bank state (open row, busy-until), per-channel data-bus
// occupancy and bank conflicts all push completion later, which is how
// multi-processor contention (Figure 11) arises.
#pragma once

#include <vector>

#include "ckpt/serialize.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/mem_level.hpp"

namespace virec::mem {

struct DramConfig {
  u32 channels = 2;
  u32 banks_per_channel = 16;  // one rank
  u32 row_bytes = 2048;
  // Timing parameters in core cycles (1 GHz core clock => 1 cycle/ns),
  // matching the paper's DDR5_6400 tRP-tCL-tRCD of 14-14-14.
  u32 t_rp = 14;
  u32 t_rcd = 14;
  u32 t_cl = 14;
  u32 burst_cycles = 2;  // 64 B on a 6400 MT/s channel
};

class DramModel final : public MemLevel {
 public:
  explicit DramModel(const DramConfig& config);

  /// Completion time of a line access issued at @p now.
  Cycle line_access(Addr line_addr, bool is_write, Cycle now) override;

  /// Functional warm-up: track the row-activation effect of the access
  /// (open_row) without advancing bank/bus busy cursors or stats.
  void warm_line(Addr line_addr, bool is_write, Cycle warm_now) override;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  /// Snapshot fields: bank/bus timing state plus the stat set. Loading
  /// checks the bank/channel counts against this model's config.
  void state(ckpt::Archive& ar);

 private:
  struct Bank {
    Cycle next_free = 0;
    u64 open_row = ~u64{0};
  };

  DramConfig config_;
  std::vector<Bank> banks_;          // channels * banks_per_channel
  std::vector<Cycle> bus_next_free_;  // per channel
  StatSet stats_;
  Distribution* dist_latency_ = nullptr;  // owned by stats_
  // Hot-path counter handles (owned by stats_).
  double* c_reads_ = nullptr;
  double* c_writes_ = nullptr;
  double* c_row_hits_ = nullptr;
  double* c_row_empty_ = nullptr;
  double* c_row_conflicts_ = nullptr;
  double* c_bank_conflict_cycles_ = nullptr;
  double* c_total_latency_ = nullptr;
};

}  // namespace virec::mem

#include "mem/dram.hpp"

#include <algorithm>
#include <stdexcept>

namespace virec::mem {

DramModel::DramModel(const DramConfig& config)
    : config_(config),
      banks_(config.channels * config.banks_per_channel),
      bus_next_free_(config.channels),
      stats_("dram") {
  if (config_.channels == 0 || config_.banks_per_channel == 0) {
    throw std::invalid_argument("DramModel: need >=1 channel and bank");
  }
  c_reads_ = stats_.counter("reads", "DRAM read requests serviced");
  c_writes_ = stats_.counter("writes", "DRAM write requests serviced");
  c_row_hits_ = stats_.counter("row_hits",
                               "accesses to the currently open row");
  c_row_empty_ = stats_.counter("row_empty",
                                "accesses that found the bank's row closed");
  c_row_conflicts_ = stats_.counter(
      "row_conflicts", "accesses that had to close a different open row");
  c_bank_conflict_cycles_ = stats_.counter(
      "bank_conflict_cycles", "cycles requests queued behind a busy bank");
  c_total_latency_ = stats_.counter(
      "total_latency", "summed DRAM service latency over all requests");
  dist_latency_ = stats_.distribution(
      "access_latency", "per-access cycles from issue to data return");
}

Cycle DramModel::line_access(Addr line_addr, bool is_write, Cycle now) {
  // Line-interleaved channel mapping, then bank bits.
  const u64 line = line_addr / kLineBytes;
  const u32 channel = static_cast<u32>(line % config_.channels);
  const u32 bank_idx =
      static_cast<u32>((line / config_.channels) % config_.banks_per_channel);
  Bank& bank = banks_[channel * config_.banks_per_channel + bank_idx];
  const u64 row = line_addr / config_.row_bytes;

  const Cycle start = std::max(now, bank.next_free);
  if (start > now) *c_bank_conflict_cycles_ += double(start - now);

  u32 access_latency;
  if (bank.open_row == row) {
    access_latency = config_.t_cl;
    ++*c_row_hits_;
  } else if (bank.open_row == ~u64{0}) {
    access_latency = config_.t_rcd + config_.t_cl;
    ++*c_row_empty_;
  } else {
    access_latency = config_.t_rp + config_.t_rcd + config_.t_cl;
    ++*c_row_conflicts_;
  }
  bank.open_row = row;

  const Cycle data_ready = start + access_latency;
  Cycle& bus = bus_next_free_[channel];
  const Cycle burst_start = std::max(data_ready, bus);
  const Cycle done = burst_start + config_.burst_cycles;
  bus = done;
  // The bank is busy until its data has been moved.
  bank.next_free = done;

  ++*(is_write ? c_writes_ : c_reads_);
  *c_total_latency_ += double(done - now);
  dist_latency_->record(double(done - now));
  return done;
}

void DramModel::warm_line(Addr line_addr, bool /*is_write*/,
                          Cycle /*warm_now*/) {
  const u64 line = line_addr / kLineBytes;
  const u32 channel = static_cast<u32>(line % config_.channels);
  const u32 bank_idx =
      static_cast<u32>((line / config_.channels) % config_.banks_per_channel);
  banks_[channel * config_.banks_per_channel + bank_idx].open_row =
      line_addr / config_.row_bytes;
}

void DramModel::state(ckpt::Archive& ar) {
  ar.length(banks_.size(), "dram banks");
  for (Bank& b : banks_) ar(b.next_free, b.open_row);
  ar.vec(bus_next_free_, "dram channels");
  stats_.state(ar);
}

}  // namespace virec::mem

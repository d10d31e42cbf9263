#include "mem/crossbar.hpp"

#include <algorithm>

namespace virec::mem {

Crossbar::Crossbar(const CrossbarConfig& config, MemLevel& below)
    : config_(config), below_(below), stats_("xbar") {
  c_transfers_ = stats_.counter("transfers",
                                "line transfers carried by the crossbar");
  c_contention_cycles_ = stats_.counter(
      "contention_cycles", "cycles transfers waited for a busy output port");
  dist_link_wait_ = stats_.distribution(
      "link_wait", "per-transfer cycles spent waiting for the shared link");
}

Cycle Crossbar::line_access(Addr line_addr, bool is_write, Cycle now) {
  const Cycle start = std::max(now, link_next_free_);
  if (start > now) *c_contention_cycles_ += double(start - now);
  link_next_free_ = start + config_.cycles_per_line;
  ++*c_transfers_;
  dist_link_wait_->record(double(start - now));
  const Cycle done =
      below_.line_access(line_addr, is_write, start + config_.latency);
  // Response traverses the crossbar again.
  return done + config_.latency;
}

void Crossbar::state(ckpt::Archive& ar) {
  ar(link_next_free_);
  stats_.state(ar);
}

}  // namespace virec::mem

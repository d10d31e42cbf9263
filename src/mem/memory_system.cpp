#include "mem/memory_system.hpp"

namespace virec::mem {

MemorySystem::MemorySystem(const MemSystemConfig& config) : config_(config) {
  dram_ = std::make_unique<DramModel>(config_.dram);
  crossbar_ = std::make_unique<Crossbar>(config_.xbar, *dram_);
  MemLevel* below = crossbar_.get();
  if (config_.has_l2) {
    l2_ = std::make_unique<Cache>(config_.l2, *crossbar_);
    below = l2_.get();
  }
  for (u32 c = 0; c < config_.num_cores; ++c) {
    icaches_.push_back(std::make_unique<Cache>(config_.icache, *below));
    dcaches_.push_back(std::make_unique<Cache>(config_.dcache, *below));
  }
}

void MemorySystem::state(ckpt::Sections& sections) {
  sections("mem.functional", functional_);
  sections("mem.dram", *dram_);
  sections("mem.xbar", *crossbar_);
  if (l2_) sections("mem.l2", *l2_);
  for (u32 c = 0; c < config_.num_cores; ++c) {
    sections("mem.icache" + std::to_string(c), *icaches_[c]);
    sections("mem.dcache" + std::to_string(c), *dcaches_[c]);
  }
}

}  // namespace virec::mem

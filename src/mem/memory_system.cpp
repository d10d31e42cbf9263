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

void MemorySystem::reset_timing() {
  dram_->reset();
  crossbar_->reset();
  if (l2_) l2_->reset();
  for (auto& c : icaches_) c->reset();
  for (auto& c : dcaches_) c->reset();
}

void MemorySystem::save_state(ckpt::CheckpointWriter& writer) const {
  functional_.save_state(writer.section("mem.functional"));
  dram_->save_state(writer.section("mem.dram"));
  crossbar_->save_state(writer.section("mem.xbar"));
  if (l2_) l2_->save_state(writer.section("mem.l2"));
  for (u32 c = 0; c < config_.num_cores; ++c) {
    icaches_[c]->save_state(writer.section("mem.icache" + std::to_string(c)));
    dcaches_[c]->save_state(writer.section("mem.dcache" + std::to_string(c)));
  }
}

void MemorySystem::restore_state(ckpt::CheckpointReader& reader) {
  auto restore = [&reader](const std::string& name, auto& component) {
    ckpt::Decoder dec = reader.section(name);
    component.restore_state(dec);
    dec.finish();
  };
  restore("mem.functional", functional_);
  restore("mem.dram", *dram_);
  restore("mem.xbar", *crossbar_);
  if (l2_) restore("mem.l2", *l2_);
  for (u32 c = 0; c < config_.num_cores; ++c) {
    restore("mem.icache" + std::to_string(c), *icaches_[c]);
    restore("mem.dcache" + std::to_string(c), *dcaches_[c]);
  }
}

}  // namespace virec::mem

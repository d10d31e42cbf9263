#include "cpu/context_manager.hpp"

namespace virec::cpu {

ContextManager::ContextManager(const CoreEnv& env, const char* stat_prefix)
    : env_(env), stats_(stat_prefix) {}

u64 ContextManager::backing_read(int tid, isa::RegId reg) const {
  return env_.ms->memory().read_u64(
      env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), reg));
}

void ContextManager::backing_write(int tid, isa::RegId reg, u64 value) {
  env_.ms->memory().write_u64(
      env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), reg), value);
}

void ContextManager::backing_read_all(int tid, RegValues& values) const {
  env_.ms->memory().read_block(
      env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), 0),
      values.data(), sizeof values);
}

void ContextManager::backing_write_all(int tid, const RegValues& values) {
  env_.ms->memory().write_block(
      env_.ms->reg_addr(env_.core_id, static_cast<u32>(tid), 0),
      values.data(), sizeof values);
}

}  // namespace virec::cpu

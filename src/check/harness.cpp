#include "check/harness.hpp"

#include <memory>

#include "check/check.hpp"
#include "check/progen.hpp"
#include "core/virec_manager.hpp"
#include "cpu/cgmt_core.hpp"
#include "mem/memory_system.hpp"

namespace virec::check {

namespace {

// One checked single-core system, assembled by hand (the harness sits
// below sim::System in the layering so the fuzzer stays lightweight).
struct Rig {
  mem::MemorySystem ms;
  std::unique_ptr<cpu::ContextManager> manager;
  cpu::CgmtCore core;
  CheckContext check;

  Rig(const kasm::Program& program, const HarnessSpec& spec)
      : ms(mem::MemSystemConfig{}),
        manager(sim::make_context_manager(
            spec.scheme,
            core::ViReCConfig{.num_phys_regs = spec.phys_regs,
                              .policy = spec.policy},
            cpu::CoreEnv{.core_id = 0, .num_threads = spec.threads,
                         .ms = &ms})),
        core(core_config(spec),
             cpu::CoreEnv{.core_id = 0, .num_threads = spec.threads,
                          .ms = &ms},
             *manager, program),
        check(program, ms, 1, spec.threads) {
    seed_arena(ms.memory());
    for (u32 t = 0; t < spec.threads; ++t) {
      ms.memory().write_u64(ms.reg_addr(0, t, kArenaBaseReg), kArenaBase);
    }
    core.set_check(&check);
    manager->set_check(&check);
    ms.icache(0).set_check(&check);
    ms.dcache(0).set_check(&check);
    for (u32 t = 0; t < spec.threads; ++t) {
      core.start_thread(static_cast<int>(t));
    }
  }

  static cpu::CgmtCoreConfig core_config(const HarnessSpec& spec) {
    cpu::CgmtCoreConfig cc;
    cc.num_threads = spec.threads;
    cc.skip = !spec.no_skip;
    return cc;
  }
};

}  // namespace

HarnessResult run_checked(const kasm::Program& program,
                          const HarnessSpec& spec) {
  HarnessResult result;
  Rig rig(program, spec);
  const Cycle limit = cpu::watchdog_limit(spec.max_cycles);
  try {
    rig.core.run_until(limit, limit);
    if (rig.core.cycle() > spec.max_cycles) {
      result.timed_out = true;
      result.message =
          "timed out after " + std::to_string(spec.max_cycles) + " cycles";
    }
    result.ok = !result.timed_out;
  } catch (const CheckError& e) {
    result.ok = false;
    result.message = e.what();
  }
  result.cycles = rig.core.cycle();
  result.instructions = rig.core.instructions();
  result.commits_checked = rig.check.commits_checked();
  return result;
}

bool tag_bug_detected(const kasm::Program& program, const HarnessSpec& spec) {
  HarnessSpec vspec = spec;
  vspec.scheme = sim::Scheme::kViReC;
  Rig rig(program, vspec);
  auto* manager = dynamic_cast<core::ViReCManager*>(rig.manager.get());
  if (manager == nullptr) return false;
  bool corrupted = false;
  try {
    while (!rig.core.done()) {
      rig.core.step();
      // Let the RF warm up, then swap two entries' (tid, arch) tags
      // without fixing the reverse map — the CAM-aliasing bug class.
      if (!corrupted && rig.check.commits_checked() >= 32) {
        corrupted = manager->tag_store_for_test().corrupt_swap_tags_for_test();
      }
      if (rig.core.cycle() > vspec.max_cycles) return false;
    }
  } catch (const CheckError&) {
    return corrupted;
  }
  return false;
}

}  // namespace virec::check

#include "cpu/ooo_core.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "check/check.hpp"

namespace virec::cpu {

OooCore::OooCore(const OooCoreConfig& config, mem::MemorySystem& ms,
                 u32 core_id, const kasm::Program& program)
    : config_(config),
      ms_(ms),
      core_id_(core_id),
      program_(program),
      stats_("ooo"),
      acct_(stats_, /*num_threads=*/1) {
  program_.validate();
  stats_.describe("cycles", "total simulated cycles (time of the last commit)");
  stats_.describe("instructions", "instructions committed by this core");
  c_load_hits_ =
      stats_.counter("load_hits", "loads that hit in the data cache");
  c_load_misses_ =
      stats_.counter("load_misses", "loads that missed in the data cache");
  c_ret_redirects_ = stats_.counter(
      "ret_redirects", "late front-end redirects through the link register");
}

Cycle OooCore::run(u64 entry_pc) {
  // Coarse cycle accounting for the comparator: the commit stream is
  // monotone, so every cycle up to the final commit is attributed by
  // walking commit-time advances — one commit cycle per advance, the
  // remaining gap charged to the committing instruction's dominant
  // cause (dcache-missing load -> mem_data, otherwise pipeline; cycles
  // before the first commit -> frontend_wait). Sums to cycles() by
  // construction. No per-stall precision is attempted here; the CGMT
  // core carries the exact, invariant-checked stack.
  const double acct_base = acct_.total();
  // Per-architectural-register availability time (renaming assumed to
  // always find a free physical register: the 384-entry file of the N1
  // configuration never limits these kernels).
  std::array<Cycle, isa::kNumArchRegs> reg_ready{};
  Cycle flags_ready = 0;

  // Ring buffers of commit/complete times for structural resources.
  std::vector<Cycle> rob(config_.rob_entries, 0);
  std::vector<Cycle> lq(config_.lq_entries, 0);
  std::vector<Cycle> sq(config_.sq_entries, 0);
  u64 rob_head = 0, lq_head = 0, sq_head = 0;

  u64 pc = entry_pc;
  u8 nzcv = 0;
  u64 fetched = 0;       // for fetch-width modelling
  Cycle fetch_cycle = 0;
  Cycle prev_commit = 0;
  u64 commit_slot = 0;   // commits per cycle limiter
  Cycle redirect_at = 0; // front-end restart after (modelled) redirects

  instructions_ = 0;
  last_commit_ = 0;

  while (true) {
    if (instructions_ >= config_.max_instructions) {
      throw std::runtime_error("OooCore: max_instructions exceeded");
    }
    const isa::Inst inst = program_.at(pc);

    // --- Front end: width instructions per cycle, after redirects.
    if (fetched % config_.width == 0 && fetched != 0) ++fetch_cycle;
    fetch_cycle = std::max(fetch_cycle, redirect_at);
    ++fetched;

    // --- Dispatch: needs a ROB slot.
    const Cycle rob_free = rob[rob_head % config_.rob_entries];
    Cycle dispatch = std::max<Cycle>(fetch_cycle + 1, rob_free);

    // --- Operand readiness.
    Cycle ready = dispatch;
    const isa::RegList srcs = isa::src_regs(inst);
    for (u32 i = 0; i < srcs.count; ++i) {
      ready = std::max(ready, reg_ready[srcs.regs[i]]);
    }
    if (isa::reads_flags(inst.op)) ready = std::max(ready, flags_ready);

    // --- Execute.
    Cycle complete;
    bool load_missed = false;
    if (isa::is_load(inst.op)) {
      const Cycle lq_free = lq[lq_head % config_.lq_entries];
      const Cycle issue = std::max(ready + 1, lq_free);  // +1 AGU
      const Addr addr = isa::compute_mem_addr(inst, 0, rf_);
      const auto acc =
          ms_.dcache(core_id_).access(addr, /*is_write=*/false, issue);
      complete = acc.done;
      lq[lq_head % config_.lq_entries] = complete;
      ++lq_head;
      load_missed = !acc.hit;
      ++*(acc.hit ? c_load_hits_ : c_load_misses_);
    } else if (isa::is_store(inst.op)) {
      const Cycle sq_free = sq[sq_head % config_.sq_entries];
      const Cycle issue = std::max(ready + 1, sq_free);
      const Addr addr = isa::compute_mem_addr(inst, 0, rf_);
      // Stores retire post-commit; the SQ slot is held until the
      // dcache write completes.
      const auto acc =
          ms_.dcache(core_id_).access(addr, /*is_write=*/true, issue);
      sq[sq_head % config_.sq_entries] = acc.done;
      ++sq_head;
      complete = issue + 1;  // store data/address ready
    } else {
      complete = ready + isa::op_latency(inst.op);
    }

    // --- Writeback into the dependence table. For loads with base
    // writeback the address update is a 1-cycle ALU micro-op: only the
    // data register waits for memory.
    const isa::RegList dsts = isa::dst_regs(inst);
    for (u32 i = 0; i < dsts.count; ++i) {
      if (isa::is_mem(inst.op) && dsts.regs[i] == inst.rn &&
          (inst.mem_mode == isa::MemMode::kPreIndex ||
           inst.mem_mode == isa::MemMode::kPostIndex)) {
        reg_ready[dsts.regs[i]] = ready + 1;
      } else {
        reg_ready[dsts.regs[i]] = complete;
      }
    }
    if (isa::writes_flags(inst.op)) flags_ready = complete;

    // --- In-order commit, width per cycle.
    const Cycle commit_before = prev_commit;
    Cycle commit = std::max(complete, prev_commit);
    if (commit == prev_commit) {
      if (++commit_slot >= config_.width) {
        ++commit;
        commit_slot = 0;
      }
    } else {
      commit_slot = 1;
    }
    prev_commit = commit;
    if (commit > commit_before) {
      acct_.charge(CycleBucket::kCommit, 0);
      const Cycle gap = commit - commit_before;
      if (gap > 1) {
        const CycleBucket stall =
            instructions_ == 0 ? CycleBucket::kFrontendWait
            : load_missed      ? CycleBucket::kMemData
                               : CycleBucket::kPipeline;
        acct_.charge(stall, 0, static_cast<double>(gap - 1));
      }
    }
    rob[rob_head % config_.rob_entries] = commit;
    ++rob_head;
    last_commit_ = std::max(last_commit_, commit);
    ++instructions_;

    // --- Architectural execution (program order).
    if (check_ != nullptr) {
      check_->pre_commit(core_id_, 0, inst, pc, commit, rf_, nzcv);
    }
    const isa::ExecResult res =
        isa::execute(inst, pc, 0, rf_, ms_.memory(), nzcv);
    if (check_ != nullptr) {
      check_->post_commit(core_id_, 0, inst, pc, commit, rf_, nzcv, res);
    }
    if (res.halted) break;
    if (res.taken_branch && inst.op == isa::Op::kRet) {
      // Returns through the link register resolve late.
      redirect_at = complete + config_.mispredict_penalty;
      ++*c_ret_redirects_;
    }
    pc = res.next_pc;
  }
  stats_.set("cycles", static_cast<double>(last_commit_));
  stats_.set("instructions", static_cast<double>(instructions_));
  VIREC_CHECK(check_,
              acct_.total() - acct_base == static_cast<double>(last_commit_),
              "OooCore cycle accounting must close");
  return last_commit_;
}

}  // namespace virec::cpu

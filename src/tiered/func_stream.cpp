#include "tiered/func_stream.hpp"

#include <stdexcept>

#include "isa/semantics.hpp"

namespace virec::sim {

namespace {

// Record layout, one per committed instruction. Everything derivable
// from the program and the replayer's own cursor state (tid, pc,
// is_mem/is_store, the destination register list, halt) is NOT stored.
//
//   u8 flags                      (bits below)
//   [varint next_pc]              when kFlagExplicitPc
//   [u8 nzcv]                     when kFlagNzcv
//   [varint addr]                 when is_mem(inst)
//   [varint stored value]         when is_store(inst)
//   [varint dst value]...         one per dst_regs(inst) entry
//   [varint sched next_tid + 1]   when kFlagSched (0 = pool exhausted)
constexpr u8 kFlagExplicitPc = 1;  // next_pc != pc + 1
constexpr u8 kFlagNzcv = 2;        // NZCV changed
constexpr u8 kFlagSched = 4;       // scheduler switched threads
constexpr u8 kFlagTaken = 8;       // ExecResult::taken_branch

void put_varint(std::vector<u8>& out, u64 v) {
  while (v >= 0x80) {
    out.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<u8>(v));
}

// Raw-pointer variant for the replay hot loop: decode_next executes
// once per replayed instruction, so the cursor lives in a register
// instead of round-tripping through the vector each byte.
u64 get_varint(const u8*& p, const u8* end) {
  u64 v = 0;
  for (u32 shift = 0; shift < 64; shift += 7) {
    if (p >= end) {
      throw std::runtime_error("FuncStream: truncated record payload");
    }
    const u8 b = *p++;
    v |= static_cast<u64>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw std::runtime_error("FuncStream: varint longer than 64 bits");
}

/// Plain per-thread register files seeded like the offloaded contexts.
struct FlatRegFile final : isa::RegisterFileIO {
  std::vector<std::array<u64, isa::kNumAllocatableRegs>> regs;
  u64 read_reg(int tid, isa::RegId reg) override {
    return regs[static_cast<std::size_t>(tid)][reg];
  }
  void write_reg(int tid, isa::RegId reg, u64 value) override {
    regs[static_cast<std::size_t>(tid)][reg] = value;
  }
};

/// Deterministically cold tag-only LRU model of the dcache geometry.
/// Supplies the golden pass's load hit/miss schedule signal in place of
/// the live dcache, whose warm state is point-specific (probes, pin
/// bits) and must not leak into a shared stream.
class TagLruModel {
 public:
  TagLruModel(u32 num_sets, u32 assoc)
      : num_sets_(num_sets),
        assoc_(assoc),
        tags_(static_cast<std::size_t>(num_sets) * assoc, 0),
        valid_(static_cast<std::size_t>(num_sets) * assoc, 0) ,
        lru_(static_cast<std::size_t>(num_sets) * assoc, 0) {
    while ((u32{1} << shift_) < num_sets_) ++shift_;
  }

  bool access(Addr addr) {
    const u64 line = addr / mem::kLineBytes;
    const u32 set = static_cast<u32>(line & (num_sets_ - 1));
    const u64 tag = line >> shift_;
    const std::size_t base = static_cast<std::size_t>(set) * assoc_;
    for (u32 w = 0; w < assoc_; ++w) {
      if (valid_[base + w] && tags_[base + w] == tag) {
        lru_[base + w] = ++tick_;
        return true;
      }
    }
    std::size_t victim = base;
    for (u32 w = 0; w < assoc_; ++w) {
      if (!valid_[base + w]) {
        victim = base + w;
        break;
      }
      if (lru_[base + w] < lru_[victim]) victim = base + w;
    }
    valid_[victim] = 1;
    tags_[victim] = tag;
    lru_[victim] = ++tick_;
    return false;
  }

 private:
  u32 num_sets_;
  u32 assoc_;
  u32 shift_ = 0;
  u64 tick_ = 0;
  std::vector<u64> tags_;
  std::vector<u8> valid_;
  std::vector<u64> lru_;
};

// The functional schedule, defined here once: the golden pass records
// it and the replayer follows the recording. The running thread keeps
// the core until a switch-on-miss demand-load miss (decided by the cold
// TagLruModel) or kRotationPeriod instructions in a row, so hit-heavy
// stretches still interleave; a halt hands over to the next live
// thread.
constexpr u64 kRotationPeriod = 128;

/// First live thread after @p after in cyclic tid order (after < 0
/// starts at tid 0), skipping @p exclude; -1 if none.
int next_live_thread(const std::vector<u8>& halted, u32 n, int after,
                     int exclude) {
  const u32 base = after < 0 ? n - 1 : static_cast<u32>(after);
  for (u32 s = 1; s <= n; ++s) {
    const int tid = static_cast<int>((base + s) % n);
    if (tid == after || tid == exclude) continue;
    if (!halted[static_cast<std::size_t>(tid)]) return tid;
  }
  return -1;
}

/// True when @p stream can drive a system of @p num_threads threads:
/// the thread counts agree and the first scheduled thread exists.
bool stream_fits(const FuncStream& stream, u32 num_threads) {
  return stream.num_threads == num_threads && stream.start_tid >= 0 &&
         stream.start_tid < static_cast<i64>(num_threads);
}

}  // namespace

std::shared_ptr<const FuncStream> build_func_stream(System& system) {
  if (system.config().num_cores != 1) {
    throw std::invalid_argument(
        "build_func_stream: single-core systems only");
  }
  const u32 total = system.total_threads();
  FlatRegFile rf;
  rf.regs.resize(total);
  std::vector<u8> nzcv(total, 0);
  for (u32 gtid = 0; gtid < total; ++gtid) {
    const workloads::RegContext regs =
        system.workload().thread_regs(system.params(), gtid, total);
    for (u32 r = 0; r < isa::kNumAllocatableRegs; ++r) {
      rf.regs[gtid][r] = regs[r];
    }
  }
  // Clone of the live memory (includes the offloaded context images),
  // so replay against the real system starts from the same bytes the
  // oracle's shadow captures.
  mem::SparseMemory memory = system.memory_system().memory();
  const kasm::Program& program = system.program();
  mem::MemorySystem& ms = system.memory_system();
  TagLruModel model(ms.dcache(0).num_sets(), ms.dcache(0).assoc());
  const u64 cap = system.config().core.max_cycles;

  auto stream = std::make_shared<FuncStream>();
  stream->num_threads = total;

  std::vector<u64> pcs(total, 0);
  std::vector<u8> halted(total, 0);
  u32 live = total;
  int cur = next_live_thread(halted, total, -1, -1);
  stream->start_tid = cur;
  u64 run_length = 0;
  u64 n = 0;
  std::vector<u8>& out = stream->records;

  while (live > 0) {
    if (cur < 0) {
      cur = next_live_thread(halted, total, -1, -1);
      run_length = 0;
      if (cur < 0) break;
    }
    const int tid = cur;
    const u64 pc = pcs[static_cast<std::size_t>(tid)];
    const isa::Inst& inst = program.at(pc);
    const bool mem_op = isa::is_mem(inst.op);
    const bool store_op = isa::is_store(inst.op);
    bool load_miss = false;
    Addr addr = 0;
    if (mem_op) {
      addr = isa::compute_mem_addr(inst, tid, rf);
      if (!ms.in_reg_region(addr)) {
        const bool hit = model.access(addr);
        load_miss = !hit && !store_op;
      }
    }
    u8& flags_ref = nzcv[static_cast<std::size_t>(tid)];
    const u8 nzcv_before = flags_ref;
    const isa::ExecResult res =
        isa::execute(inst, pc, tid, rf, memory, flags_ref);
    if (++n > cap) {
      throw std::runtime_error(
          "build_func_stream: golden pass exceeded the max_cycles "
          "instruction budget");
    }
    pcs[static_cast<std::size_t>(tid)] = res.next_pc;
    ++run_length;

    // Scheduler transition.
    int sched_next = -2;  // -2 = no event
    if (res.halted) {
      halted[static_cast<std::size_t>(tid)] = 1;
      --live;
      sched_next = next_live_thread(halted, total, tid, -1);
      cur = sched_next;
      run_length = 0;
    } else {
      const bool rotate = load_miss || run_length >= kRotationPeriod;
      if (rotate && live > 1) {
        const int next = next_live_thread(halted, total, tid, -1);
        if (next >= 0 && next != tid) {
          sched_next = next;
          cur = next;
          run_length = 0;
        }
      }
    }

    u8 flags = 0;
    if (res.next_pc != pc + 1) flags |= kFlagExplicitPc;
    if (flags_ref != nzcv_before) flags |= kFlagNzcv;
    if (res.halted || sched_next != -2) flags |= kFlagSched;
    if (res.taken_branch) flags |= kFlagTaken;
    out.push_back(flags);
    if (flags & kFlagExplicitPc) put_varint(out, res.next_pc);
    if (flags & kFlagNzcv) out.push_back(flags_ref);
    if (mem_op) put_varint(out, addr);
    if (store_op) put_varint(out, memory.read(addr, isa::mem_size(inst.op)));
    const isa::RegList dsts = isa::dst_regs(inst);
    for (u32 i = 0; i < dsts.count; ++i) {
      put_varint(out, rf.read_reg(tid, dsts.regs[i]));
    }
    if (flags & kFlagSched) {
      put_varint(out, static_cast<u64>(sched_next + 1));  // 0 = exhausted
    }
  }
  stream->n_total = n;
  stream->records.shrink_to_fit();
  return stream;
}

// --- FuncStreamReplayer ---

struct FuncStreamReplayer::Decoded {
  const PcInfo* info = nullptr;
  u64 next_pc = 0;
  u8 nzcv = 0;
  bool nzcv_changed = false;
  bool taken = false;
  bool has_sched = false;
  int sched_next = -1;
  Addr addr = 0;
  u64 store_value = 0;
  std::array<u64, 4> dst_vals{};
};

FuncStreamReplayer::FuncStreamReplayer(
    std::shared_ptr<const FuncStream> stream, const kasm::Program& program,
    u32 num_threads)
    : stream_(std::move(stream)), program_(&program) {
  // Checked before anything is sized by the stream's own fields.
  if (!stream_fits(*stream_, num_threads) || program.empty()) {
    throw std::runtime_error(
        "FuncStream: stream of " + std::to_string(stream_->num_threads) +
        " threads starting at thread " + std::to_string(stream_->start_tid) +
        " does not fit " + std::to_string(num_threads) + " threads running " +
        std::to_string(program.size()) + " instructions");
  }
  cur_tid_ = stream_->start_tid;
  pcs_.assign(num_threads, 0);
  halted_.assign(num_threads, 0);
  live_ = num_threads;
  pc_info_.resize(program.size());
  for (u64 pc = 0; pc < program.size(); ++pc) {
    const isa::Inst& inst = program.at(pc);
    PcInfo& info = pc_info_[pc];
    info.mem_op = isa::is_mem(inst.op);
    info.store_op = isa::is_store(inst.op);
    info.halt = isa::is_halt(inst.op);
    info.size = isa::mem_size(inst.op);
    info.dsts = isa::dst_regs(inst);
  }
}

int FuncStreamReplayer::pick_next(int after, int exclude) const {
  return next_live_thread(halted_, stream_->num_threads, after, exclude);
}

FuncStreamReplayer::Decoded FuncStreamReplayer::decode_next(
    const isa::Inst*& inst, u64& pc) {
  if (cur_tid_ < 0) cur_tid_ = pick_next(-1, -1);
  if (cur_tid_ < 0) {
    throw std::runtime_error("FuncStream: record with no live thread");
  }
  const std::vector<u8>& bytes = stream_->records;
  const u8* p = bytes.data() + byte_;
  const u8* const end = bytes.data() + bytes.size();
  if (p >= end) {
    throw std::runtime_error("FuncStream: cursor past end of records");
  }
  // Every stored PC passed the successor check below (or is 0), so the
  // table lookup is in range.
  pc = pcs_[static_cast<std::size_t>(cur_tid_)];
  inst = &program_->at(pc);
  Decoded d;
  d.info = &pc_info_[pc];
  const PcInfo& info = *d.info;
  const u8 flags = *p++;
  d.taken = (flags & kFlagTaken) != 0;
  d.next_pc = (flags & kFlagExplicitPc) ? get_varint(p, end) : pc + 1;
  if (d.next_pc >= pc_info_.size()) {
    throw std::runtime_error("FuncStream: successor PC " +
                             std::to_string(d.next_pc) +
                             " outside the program");
  }
  d.nzcv_changed = (flags & kFlagNzcv) != 0;
  if (d.nzcv_changed) {
    if (p >= end) {
      throw std::runtime_error("FuncStream: truncated record payload");
    }
    d.nzcv = *p++;
  }
  if (info.mem_op) d.addr = get_varint(p, end);
  if (info.store_op) d.store_value = get_varint(p, end);
  for (u32 i = 0; i < info.dsts.count; ++i) {
    d.dst_vals[i] = get_varint(p, end);
  }
  d.has_sched = (flags & kFlagSched) != 0;
  if (d.has_sched) {
    // The golden pass records -1 (pool exhausted) only at a halt, and
    // otherwise names another live thread.
    const u64 next = get_varint(p, end);
    const bool fits =
        next == 0 ? info.halt
                  : next <= stream_->num_threads &&
                        static_cast<int>(next - 1) != cur_tid_ &&
                        !halted_[static_cast<std::size_t>(next - 1)];
    if (!fits) {
      throw std::runtime_error(
          "FuncStream: scheduler target " +
          (next == 0 ? std::string("-1") : std::to_string(next - 1)) +
          " is not another live thread");
    }
    d.sched_next = static_cast<int>(next) - 1;
  }
  byte_ = static_cast<std::size_t>(p - bytes.data());
  return d;
}

Cycle FuncStreamReplayer::advance(u64 target, cpu::CgmtCore& core,
                                  cpu::ContextManager& rcm,
                                  mem::MemorySystem& ms,
                                  check::CheckContext* check,
                                  Cycle warm_clock, u64 cpi_scale) {
  if (cpi_scale == 0) cpi_scale = 1;
  if (target > stream_->n_total) target = stream_->n_total;
  mem::Cache& icache = ms.icache(0);
  mem::Cache& dcache = ms.dcache(0);
  while (pos_ < target) {
    const isa::Inst* inst = nullptr;
    u64 pc = 0;
    const Decoded d = decode_next(inst, pc);
    const int tid = cur_tid_;
    if (!core.thread_launched(tid)) {
      rcm.warm_thread_start(tid, warm_clock);
      core.mark_thread_launched(tid);
    }
    icache.warm_access(mem::MemorySystem::code_addr(pc), /*is_write=*/false,
                       warm_clock);
    rcm.warm_decode(tid, *inst, warm_clock);
    const PcInfo& info = *d.info;
    if (info.mem_op) {
      dcache.warm_access(d.addr, info.store_op, warm_clock,
                         ms.in_reg_region(d.addr));
    }
    u8& nzcv = core.nzcv_ref(tid);
    if (check != nullptr) {
      check->pre_commit(/*core=*/0, tid, *inst, pc, warm_clock, rcm, nzcv);
    }
    // Apply the recorded architectural deltas in commit order: memory
    // write-back, destination registers (through the scheme's canonical
    // write path, so residency/dirty state evolves like live
    // execution), then flags.
    if (info.store_op) ms.memory().write(d.addr, info.size, d.store_value);
    for (u32 i = 0; i < info.dsts.count; ++i) {
      rcm.write_reg(tid, info.dsts.regs[i], d.dst_vals[i]);
    }
    if (d.nzcv_changed) nzcv = d.nzcv;
    const isa::ExecResult res{d.next_pc, d.taken, info.halt};
    if (check != nullptr) {
      check->post_commit(/*core=*/0, tid, *inst, pc, warm_clock, rcm, nzcv,
                         res);
    }
    core.set_thread_pc(tid, d.next_pc);
    pcs_[static_cast<std::size_t>(tid)] = d.next_pc;
    warm_clock += cpi_scale;
    ++pos_;
    if (info.halt) {
      rcm.warm_thread_halt(tid, warm_clock);
      core.halt_thread_functional(tid);
      halted_[static_cast<std::size_t>(tid)] = 1;
      --live_;
      if (d.sched_next >= 0) {
        rcm.warm_context_switch(tid, d.sched_next,
                                pick_next(d.sched_next, tid), warm_clock);
      }
      cur_tid_ = d.sched_next;
    } else if (d.has_sched) {
      rcm.warm_context_switch(tid, d.sched_next,
                              pick_next(d.sched_next, tid), warm_clock);
      cur_tid_ = d.sched_next;
    }
  }
  return warm_clock;
}

// --- StreamCache ---

StreamCache& StreamCache::instance() {
  static StreamCache cache;
  return cache;
}

std::shared_ptr<const FuncStream> StreamCache::acquire(u64 key,
                                                      System& system) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    auto it = streams_.find(key);
    if (it != streams_.end()) {
      ++stats_.mem_hits;
      return it->second;
    }
    if (building_.find(key) == building_.end()) break;
    cv_.wait(lk);
  }
  building_.insert(key);
  lk.unlock();
  std::shared_ptr<const FuncStream> stream;
  try {
    stream = build_func_stream(system);
  } catch (...) {
    lk.lock();
    building_.erase(key);
    cv_.notify_all();
    throw;
  }
  lk.lock();
  building_.erase(key);
  streams_[key] = stream;
  ++stats_.built;
  cv_.notify_all();
  return stream;
}

StreamCache::Stats StreamCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void StreamCache::reset_for_test() {
  std::lock_guard<std::mutex> lk(mu_);
  streams_.clear();
  building_.clear();
  stats_ = Stats{};
}

}  // namespace virec::sim

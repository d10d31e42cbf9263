// The NMP ISA: a small AArch64-flavoured 64-bit instruction set used by
// the simulated near-memory cores. It is deliberately close to the
// subset of AArch64 that memory-intensive kernels compile to (loads and
// stores with register/immediate addressing and pre/post-index
// writeback, ALU ops, compare + conditional branches), so the register
// access patterns the paper studies are reproduced faithfully.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace virec::isa {

/// Architectural register identifier: x0..x30 are general purpose,
/// index 31 is xzr (reads as zero, writes discarded).
using RegId = u8;
inline constexpr RegId kZeroReg = 31;
inline constexpr RegId kNoReg = 0xff;
inline constexpr int kNumArchRegs = 32;  // x0..x30 + xzr
inline constexpr int kNumAllocatableRegs = 31;  // excludes xzr

enum class Op : u8 {
  kNop,
  // ALU, register operands: rd = rn OP rm.
  kAdd,
  kSub,
  kMul,
  kUdiv,
  kSdiv,
  kAnd,
  kOrr,
  kEor,
  kLsl,
  kLsr,
  kAsr,
  // ALU, immediate: rd = rn OP imm.
  kAddImm,
  kSubImm,
  kAndImm,
  kOrrImm,
  kEorImm,
  kLslImm,
  kLsrImm,
  kAsrImm,
  // Moves.
  kMov,     // rd = rm
  kMovImm,  // rd = imm (64-bit immediate, assembler sugar over movz/movk)
  kMovk,    // rd[imm2*16 +: 16] = imm (keep others)
  kMvn,     // rd = ~rm
  // Multiply-add: rd = ra + rn*rm.
  kMadd,
  // Floating point on the unified register file; register contents are
  // interpreted as IEEE-754 double bit patterns.
  kFadd,
  kFsub,
  kFmul,
  kFdiv,
  kFmadd,  // rd = ra + rn*rm
  kScvtf,  // rd = (double)(i64)rn
  kFcvtzs, // rd = (i64)(double)rn
  // Compare: sets NZCV from rn - (rm|imm).
  kCmp,
  kCmpImm,
  // Branches. Targets are absolute instruction indices.
  kB,
  kBcond,
  kCbz,
  kCbnz,
  kBl,
  kRet,
  // Memory. Loads/stores of 1/2/4/8 bytes; W-suffixed 4-byte forms
  // zero-extend, kLdrsw sign-extends.
  kLdr,
  kLdrw,
  kLdrsw,
  kLdrh,
  kLdrb,
  kStr,
  kStrw,
  kStrh,
  kStrb,
  // Control. kHalt stays last: snapshot loading bounds opcodes by it.
  kHalt,
};

/// Condition codes for kBcond (subset of AArch64, signed + unsigned).
enum class Cond : u8 { kEq, kNe, kLt, kLe, kGt, kGe, kLo, kLs, kHi, kHs, kAl };

/// Addressing mode for memory ops.
enum class MemMode : u8 {
  kOffset,    // [rn, #imm]
  kPreIndex,  // [rn, #imm]!   (rn += imm before access)
  kPostIndex, // [rn], #imm    (rn += imm after access)
  kRegOffset, // [rn, rm, lsl #shift]
};

/// One decoded instruction. Fixed-size POD; the pipeline copies these
/// freely through its stage latches.
struct Inst {
  Op op = Op::kNop;
  RegId rd = kNoReg;  // destination (loads: loaded reg; stores: stored reg)
  RegId rn = kNoReg;  // first source / base register
  RegId rm = kNoReg;  // second source / index register
  RegId ra = kNoReg;  // third source (madd/fmadd accumulator)
  Cond cond = Cond::kAl;
  MemMode mem_mode = MemMode::kOffset;
  u8 shift = 0;    // register-offset shift amount
  u8 imm2 = 0;     // movk 16-bit lane selector
  i64 imm = 0;     // immediate operand / memory displacement
  i64 target = -1; // branch target (absolute instruction index)

  bool operator==(const Inst&) const = default;
};

/// Instruction classification queries. The ones every decoded or
/// replayed instruction asks are inline; the rest live in inst.cpp.
inline bool is_load(Op op) {
  return op == Op::kLdr || op == Op::kLdrw || op == Op::kLdrsw ||
         op == Op::kLdrh || op == Op::kLdrb;
}
inline bool is_store(Op op) {
  return op == Op::kStr || op == Op::kStrw || op == Op::kStrh ||
         op == Op::kStrb;
}
inline bool is_mem(Op op) { return is_load(op) || is_store(op); }
bool is_branch(Op op);
bool is_cond_branch(Op op);
bool writes_flags(Op op);
bool reads_flags(Op op);
bool is_fp(Op op);
inline bool is_halt(Op op) { return op == Op::kHalt; }

/// Access size in bytes for memory ops (0 for non-memory).
inline u32 mem_size(Op op) {
  switch (op) {
    case Op::kLdr:
    case Op::kStr:
      return 8;
    case Op::kLdrw:
    case Op::kLdrsw:
    case Op::kStrw:
      return 4;
    case Op::kLdrh:
    case Op::kStrh:
      return 2;
    case Op::kLdrb:
    case Op::kStrb:
      return 1;
    default:
      return 0;
  }
}

/// Fixed execute latency in cycles for non-memory ops (memory ops take
/// the dcache-determined latency instead).
inline u32 op_latency(Op op) {
  switch (op) {
    case Op::kMul:
    case Op::kMadd:
      return 3;
    case Op::kUdiv:
    case Op::kSdiv:
      return 12;
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kScvtf:
    case Op::kFcvtzs:
      return 4;
    case Op::kFmadd:
      return 5;
    case Op::kFdiv:
      return 15;
    default:
      return 1;
  }
}

/// Small fixed-capacity register list used for source/destination
/// queries; at most 4 registers ever participate in one instruction.
struct RegList {
  std::array<RegId, 4> regs{};
  u32 count = 0;
  void push(RegId r) {
    if (r != kNoReg && r != kZeroReg) regs[count++] = r;
  }
};

/// Architectural registers read by @p inst (excluding xzr).
inline RegList src_regs(const Inst& inst) {
  RegList out;
  switch (inst.op) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kB:
    case Op::kBcond:
    case Op::kBl:
    case Op::kMovImm:
      break;
    case Op::kRet:
      out.push(inst.rn == kNoReg ? RegId{30} : inst.rn);
      break;
    case Op::kCbz:
    case Op::kCbnz:
    case Op::kCmpImm:
    case Op::kScvtf:
    case Op::kFcvtzs:
    case Op::kAddImm:
    case Op::kSubImm:
    case Op::kAndImm:
    case Op::kOrrImm:
    case Op::kEorImm:
    case Op::kLslImm:
    case Op::kLsrImm:
    case Op::kAsrImm:
      out.push(inst.rn);
      break;
    case Op::kMov:
    case Op::kMvn:
      out.push(inst.rm);
      break;
    case Op::kMovk:
      out.push(inst.rd);  // read-modify-write of the destination
      break;
    case Op::kMadd:
    case Op::kFmadd:
      out.push(inst.rn);
      out.push(inst.rm);
      out.push(inst.ra);
      break;
    case Op::kLdr:
    case Op::kLdrw:
    case Op::kLdrsw:
    case Op::kLdrh:
    case Op::kLdrb:
      out.push(inst.rn);
      if (inst.mem_mode == MemMode::kRegOffset) out.push(inst.rm);
      break;
    case Op::kStr:
    case Op::kStrw:
    case Op::kStrh:
    case Op::kStrb:
      out.push(inst.rd);  // value to store
      out.push(inst.rn);
      if (inst.mem_mode == MemMode::kRegOffset) out.push(inst.rm);
      break;
    default:
      // Two-source register ops (ALU, FP arithmetic, cmp).
      out.push(inst.rn);
      out.push(inst.rm);
      break;
  }
  return out;
}

/// Architectural registers written by @p inst (excluding xzr). Includes
/// the base register for pre/post-index addressing.
inline RegList dst_regs(const Inst& inst) {
  RegList out;
  switch (inst.op) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kB:
    case Op::kBcond:
    case Op::kCbz:
    case Op::kCbnz:
    case Op::kRet:
    case Op::kCmp:
    case Op::kCmpImm:
    case Op::kStr:
    case Op::kStrw:
    case Op::kStrh:
    case Op::kStrb:
      break;
    case Op::kBl:
      out.push(RegId{30});
      break;
    default:
      out.push(inst.rd);
      break;
  }
  if (is_mem(inst.op) && (inst.mem_mode == MemMode::kPreIndex ||
                          inst.mem_mode == MemMode::kPostIndex)) {
    out.push(inst.rn);  // base register writeback
  }
  return out;
}

/// Union of src and dst registers, deduplicated.
inline RegList all_regs(const Inst& inst) {
  const RegList s = src_regs(inst);
  const RegList d = dst_regs(inst);
  RegList out;
  auto push_unique = [&out](RegId reg) {
    for (u32 j = 0; j < out.count; ++j) {
      if (out.regs[j] == reg) return;
    }
    out.push(reg);
  };
  for (u32 i = 0; i < s.count; ++i) push_unique(s.regs[i]);
  for (u32 i = 0; i < d.count; ++i) push_unique(d.regs[i]);
  return out;
}

const char* op_name(Op op);
const char* cond_name(Cond cond);

}  // namespace virec::isa

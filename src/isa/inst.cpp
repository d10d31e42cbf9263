#include "isa/inst.hpp"

namespace virec::isa {

bool is_branch(Op op) {
  switch (op) {
    case Op::kB:
    case Op::kBcond:
    case Op::kCbz:
    case Op::kCbnz:
    case Op::kBl:
    case Op::kRet:
      return true;
    default:
      return false;
  }
}

bool is_cond_branch(Op op) {
  return op == Op::kBcond || op == Op::kCbz || op == Op::kCbnz;
}

bool writes_flags(Op op) { return op == Op::kCmp || op == Op::kCmpImm; }

bool reads_flags(Op op) { return op == Op::kBcond; }

bool is_fp(Op op) {
  switch (op) {
    case Op::kFadd:
    case Op::kFsub:
    case Op::kFmul:
    case Op::kFdiv:
    case Op::kFmadd:
    case Op::kScvtf:
    case Op::kFcvtzs:
      return true;
    default:
      return false;
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kUdiv: return "udiv";
    case Op::kSdiv: return "sdiv";
    case Op::kAnd: return "and";
    case Op::kOrr: return "orr";
    case Op::kEor: return "eor";
    case Op::kLsl: return "lsl";
    case Op::kLsr: return "lsr";
    case Op::kAsr: return "asr";
    case Op::kAddImm: return "add";
    case Op::kSubImm: return "sub";
    case Op::kAndImm: return "and";
    case Op::kOrrImm: return "orr";
    case Op::kEorImm: return "eor";
    case Op::kLslImm: return "lsl";
    case Op::kLsrImm: return "lsr";
    case Op::kAsrImm: return "asr";
    case Op::kMov: return "mov";
    case Op::kMovImm: return "mov";
    case Op::kMovk: return "movk";
    case Op::kMvn: return "mvn";
    case Op::kMadd: return "madd";
    case Op::kFadd: return "fadd";
    case Op::kFsub: return "fsub";
    case Op::kFmul: return "fmul";
    case Op::kFdiv: return "fdiv";
    case Op::kFmadd: return "fmadd";
    case Op::kScvtf: return "scvtf";
    case Op::kFcvtzs: return "fcvtzs";
    case Op::kCmp: return "cmp";
    case Op::kCmpImm: return "cmp";
    case Op::kB: return "b";
    case Op::kBcond: return "b.";
    case Op::kCbz: return "cbz";
    case Op::kCbnz: return "cbnz";
    case Op::kBl: return "bl";
    case Op::kRet: return "ret";
    case Op::kLdr: return "ldr";
    case Op::kLdrw: return "ldrw";
    case Op::kLdrsw: return "ldrsw";
    case Op::kLdrh: return "ldrh";
    case Op::kLdrb: return "ldrb";
    case Op::kStr: return "str";
    case Op::kStrw: return "strw";
    case Op::kStrh: return "strh";
    case Op::kStrb: return "strb";
    case Op::kHalt: return "halt";
  }
  return "?";
}

const char* cond_name(Cond cond) {
  switch (cond) {
    case Cond::kEq: return "eq";
    case Cond::kNe: return "ne";
    case Cond::kLt: return "lt";
    case Cond::kLe: return "le";
    case Cond::kGt: return "gt";
    case Cond::kGe: return "ge";
    case Cond::kLo: return "lo";
    case Cond::kLs: return "ls";
    case Cond::kHi: return "hi";
    case Cond::kHs: return "hs";
    case Cond::kAl: return "al";
  }
  return "?";
}

}  // namespace virec::isa

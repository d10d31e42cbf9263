#include "isa/disasm.hpp"

#include <sstream>

namespace virec::isa {

std::string reg_name(RegId reg) {
  if (reg == kZeroReg) return "xzr";
  if (reg == kNoReg) return "x?";
  std::string name = "x";
  name += std::to_string(static_cast<int>(reg));
  return name;
}

namespace {

std::string mem_operand(const Inst& inst) {
  std::ostringstream os;
  switch (inst.mem_mode) {
    case MemMode::kOffset:
      os << '[' << reg_name(inst.rn);
      if (inst.imm != 0) os << ", #" << inst.imm;
      os << ']';
      break;
    case MemMode::kPreIndex:
      os << '[' << reg_name(inst.rn) << ", #" << inst.imm << "]!";
      break;
    case MemMode::kPostIndex:
      os << '[' << reg_name(inst.rn) << "], #" << inst.imm;
      break;
    case MemMode::kRegOffset:
      os << '[' << reg_name(inst.rn) << ", " << reg_name(inst.rm);
      if (inst.shift != 0) os << ", lsl #" << static_cast<int>(inst.shift);
      os << ']';
      break;
  }
  return os.str();
}

}  // namespace

std::string disasm(const Inst& inst) {
  std::ostringstream os;
  switch (inst.op) {
    case Op::kNop:
    case Op::kHalt:
      os << op_name(inst.op);
      break;
    case Op::kRet:
      os << "ret";
      if (inst.rn != kNoReg && inst.rn != 30) os << ' ' << reg_name(inst.rn);
      break;
    case Op::kB:
    case Op::kBl:
      os << op_name(inst.op) << " @" << inst.target;
      break;
    case Op::kBcond:
      os << "b." << cond_name(inst.cond) << " @" << inst.target;
      break;
    case Op::kCbz:
    case Op::kCbnz:
      os << op_name(inst.op) << ' ' << reg_name(inst.rn) << ", @"
         << inst.target;
      break;
    case Op::kCmp:
      os << "cmp " << reg_name(inst.rn) << ", " << reg_name(inst.rm);
      break;
    case Op::kCmpImm:
      os << "cmp " << reg_name(inst.rn) << ", #" << inst.imm;
      break;
    case Op::kMov:
      os << "mov " << reg_name(inst.rd) << ", " << reg_name(inst.rm);
      break;
    case Op::kMovImm:
      os << "mov " << reg_name(inst.rd) << ", #" << inst.imm;
      break;
    case Op::kMovk:
      os << "movk " << reg_name(inst.rd) << ", #" << inst.imm << ", lsl #"
         << 16 * static_cast<int>(inst.imm2);
      break;
    case Op::kMvn:
      os << "mvn " << reg_name(inst.rd) << ", " << reg_name(inst.rm);
      break;
    case Op::kMadd:
    case Op::kFmadd:
      os << op_name(inst.op) << ' ' << reg_name(inst.rd) << ", "
         << reg_name(inst.rn) << ", " << reg_name(inst.rm) << ", "
         << reg_name(inst.ra);
      break;
    case Op::kScvtf:
    case Op::kFcvtzs:
      os << op_name(inst.op) << ' ' << reg_name(inst.rd) << ", "
         << reg_name(inst.rn);
      break;
    case Op::kAddImm:
    case Op::kSubImm:
    case Op::kAndImm:
    case Op::kOrrImm:
    case Op::kEorImm:
    case Op::kLslImm:
    case Op::kLsrImm:
    case Op::kAsrImm:
      os << op_name(inst.op) << ' ' << reg_name(inst.rd) << ", "
         << reg_name(inst.rn) << ", #" << inst.imm;
      break;
    default:
      if (is_mem(inst.op)) {
        os << op_name(inst.op) << ' ' << reg_name(inst.rd) << ", "
           << mem_operand(inst);
      } else {
        // Three-operand register ALU / FP ops.
        os << op_name(inst.op) << ' ' << reg_name(inst.rd) << ", "
           << reg_name(inst.rn) << ", " << reg_name(inst.rm);
      }
      break;
  }
  return os.str();
}

}  // namespace virec::isa

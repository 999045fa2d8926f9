#include "ucode/ucode_cp.h"

namespace vcop::ucode {

MicrocodedCoprocessor::MicrocodedCoprocessor(Program program)
    : program_(std::move(program)) {}

void MicrocodedCoprocessor::OnStart() {
  pc_ = 0;
  delay_left_ = 0;
  for (u32& r : regs_) r = 0;
}

void MicrocodedCoprocessor::Step() {
  VCOP_CHECK_MSG(pc_ < program_.size(), "microcode pc ran off the end");
  const Instruction& instr = program_.code()[pc_];
  u32 next_pc = pc_ + 1;

  switch (instr.op) {
    case Op::kLoadImm:
      regs_[instr.rd] = instr.imm;
      break;
    case Op::kMov:
      regs_[instr.rd] = regs_[instr.rs];
      break;
    case Op::kAdd:
      regs_[instr.rd] = regs_[instr.rs] + regs_[instr.rt];
      break;
    case Op::kSub:
      regs_[instr.rd] = regs_[instr.rs] - regs_[instr.rt];
      break;
    case Op::kAnd:
      regs_[instr.rd] = regs_[instr.rs] & regs_[instr.rt];
      break;
    case Op::kOr:
      regs_[instr.rd] = regs_[instr.rs] | regs_[instr.rt];
      break;
    case Op::kXor:
      regs_[instr.rd] = regs_[instr.rs] ^ regs_[instr.rt];
      break;
    case Op::kShl:
      regs_[instr.rd] = regs_[instr.rs] << (regs_[instr.rt] & 31);
      break;
    case Op::kShr:
      regs_[instr.rd] = regs_[instr.rs] >> (regs_[instr.rt] & 31);
      break;
    case Op::kMul:
      regs_[instr.rd] = regs_[instr.rs] * regs_[instr.rt];
      break;
    case Op::kAddImm:
      regs_[instr.rd] = regs_[instr.rs] + instr.imm;
      break;
    case Op::kParam:
      regs_[instr.rd] = param(instr.imm);
      break;
    case Op::kRead: {
      u32 value = 0;
      if (!TryRead(static_cast<hw::ObjectId>(instr.imm), regs_[instr.rs],
                   value)) {
        return;  // stalled on CP_TLBHIT; retry this instruction
      }
      regs_[instr.rd] = value;
      break;
    }
    case Op::kWrite:
      if (!TryWrite(static_cast<hw::ObjectId>(instr.imm), regs_[instr.rs],
                    regs_[instr.rt])) {
        return;  // stalled
      }
      break;
    case Op::kJump:
      next_pc = instr.imm;
      break;
    case Op::kBeq:
      if (regs_[instr.rs] == regs_[instr.rt]) next_pc = instr.imm;
      break;
    case Op::kBne:
      if (regs_[instr.rs] != regs_[instr.rt]) next_pc = instr.imm;
      break;
    case Op::kBlt:
      if (regs_[instr.rs] < regs_[instr.rt]) next_pc = instr.imm;
      break;
    case Op::kBge:
      if (regs_[instr.rs] >= regs_[instr.rt]) next_pc = instr.imm;
      break;
    case Op::kDelay:
      if (delay_left_ == 0) delay_left_ = instr.imm;
      if (--delay_left_ != 0) return;  // keep burning cycles here
      break;
    case Op::kHalt:
      Finish();
      return;
  }
  pc_ = next_pc;
}

hw::Bitstream MakeMicrocodeBitstream(std::string name, Program program,
                                     Frequency cp_clock,
                                     Frequency imu_clock) {
  hw::Bitstream bs;
  bs.name = std::move(name);
  // Sequencer + register file (~600 LEs) plus the microcode store.
  bs.logic_elements =
      600 + static_cast<u32>(program.size()) * 2;
  bs.size_bytes =
      40 * 1024 + static_cast<u32>(program.size()) * 8;
  bs.cp_clock = cp_clock;
  bs.imu_clock = imu_clock;
  auto shared = std::make_shared<Program>(std::move(program));
  bs.create = [shared] {
    return std::make_unique<MicrocodedCoprocessor>(*shared);
  };
  return bs;
}

}  // namespace vcop::ucode

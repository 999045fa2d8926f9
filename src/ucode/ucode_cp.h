// MicrocodedCoprocessor: executes a ucode::Program on the portable
// coprocessor interface — one instruction per core cycle, with READ and
// WRITE stalling on CP_TLBHIT exactly like a hand-written FSM.
//
// This is the library's answer to "I want a new accelerator without
// writing C++": assemble a program at runtime, wrap it in a bit-stream
// and run it through the unchanged VIM machinery.
#pragma once

#include <memory>
#include <string>

#include "base/status.h"
#include "base/units.h"
#include "hw/coprocessor.h"
#include "hw/fabric.h"
#include "ucode/isa.h"

namespace vcop::ucode {

class MicrocodedCoprocessor final : public hw::Coprocessor {
 public:
  explicit MicrocodedCoprocessor(Program program);

  std::string_view name() const override { return "ucode"; }
  u32 required_params() const override { return program_.num_params(); }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  Program program_;
  u32 pc_ = 0;
  u32 regs_[kNumRegisters] = {};
  u32 delay_left_ = 0;
};

/// Wraps `program` as a loadable bit-stream. The configuration size and
/// logic-element estimate scale with the program (a microcode store and
/// a fixed sequencer datapath).
hw::Bitstream MakeMicrocodeBitstream(std::string name, Program program,
                                     Frequency cp_clock,
                                     Frequency imu_clock);

}  // namespace vcop::ucode

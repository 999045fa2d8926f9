// Vector-addition coprocessor — the paper's running example.
//
// This is the C++ cycle-level equivalent of Figure 5's VHDL snippet:
// a three-state FSM computing C[i] = A[i] + B[i] that addresses its
// operands purely as (object, index). "No address calculation is
// necessary, nor it is necessary to know the available memory size."
#pragma once

#include <string_view>

#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class VecAddCoprocessor final : public hw::Coprocessor {
 public:
  /// Object ids agreed with the software side (Figure 6 maps A, B, C
  /// to 0, 1, 2).
  static constexpr hw::ObjectId kObjA = 0;
  static constexpr hw::ObjectId kObjB = 1;
  static constexpr hw::ObjectId kObjC = 2;

  /// Parameter layout: [0] = element count (Figure 6's FPGA_EXECUTE(SIZE)).
  static constexpr u32 kNumParams = 1;

  std::string_view name() const override { return "vecadd"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State { kReadA, kReadB, kWriteC };

  State state_ = State::kReadA;
  u32 n_ = 0;
  u32 i_ = 0;  // Figure 5's reg_i
  u32 a_ = 0;  // Figure 5's reg_a
  u32 b_ = 0;  // Figure 5's reg_b
  u32 c_ = 0;  // Figure 5's reg_c
};

}  // namespace vcop::cp

// Gather coprocessor: out[i] = in[perm[i]].
//
// Unlike the paper's two streaming kernels, gather has a data-dependent
// access pattern — §1's "other cases with more unpredictable accesses
// are much more difficult to manage" by hand, and exactly where OS-
// managed paging earns its keep. It doubles as the replacement-policy
// stressor for the ablation benches and the property tests.
#pragma once

#include <string_view>

#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class GatherCoprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjIn = 0;    // u32 elements (IN)
  static constexpr hw::ObjectId kObjOut = 1;   // u32 elements (OUT)
  static constexpr hw::ObjectId kObjPerm = 2;  // u32 indices (IN)
  static constexpr u32 kNumParams = 1;         // [0] = element count

  std::string_view name() const override { return "gather"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State { kReadPerm, kReadIn, kWriteOut };

  State state_ = State::kReadPerm;
  u32 n_ = 0;
  u32 i_ = 0;
  u32 perm_ = 0;
  u32 value_ = 0;
};

}  // namespace vcop::cp

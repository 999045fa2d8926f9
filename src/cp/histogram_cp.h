// Histogram coprocessor: bins[in[i] & mask] += 1.
//
// The hardest access pattern for the paging machinery: data-dependent
// *read-modify-write* on an INOUT object. Every increment must observe
// the bin's current value — including increments the coprocessor itself
// made before the bin's page was evicted and written back — so it
// exercises the dirty-tracking / write-back / reload chain end to end.
// Not from the paper's evaluation.
//
// Objects: 0 = input values (4-byte elements, mapped IN)
//          1 = bins (4-byte elements, mapped INOUT)
// Parameters: [0] = input element count
//             [1] = bin-index mask (bins object must have mask+1
//                   elements; mask + 1 must be a power of two)
#pragma once

#include <string_view>

#include "base/types.h"
#include "hw/coprocessor.h"

namespace vcop::cp {

class HistogramCoprocessor final : public hw::Coprocessor {
 public:
  static constexpr hw::ObjectId kObjIn = 0;
  static constexpr hw::ObjectId kObjBins = 1;
  static constexpr u32 kNumParams = 2;

  std::string_view name() const override { return "histogram"; }
  u32 required_params() const override { return kNumParams; }

 protected:
  void OnStart() override;
  void Step() override;

 private:
  enum class State { kReadValue, kReadBin, kWriteBin };

  State state_ = State::kReadValue;
  u32 n_ = 0;
  u32 i_ = 0;
  u32 mask_ = 0;
  u32 bin_index_ = 0;
  u32 count_ = 0;
};

}  // namespace vcop::cp

// Lightweight statistics accumulators shared by hardware and OS models.
#pragma once

#include <algorithm>

#include "base/types.h"

namespace vcop::sim {

/// Streaming summary of a scalar series: count / min / max / mean.
/// Used for e.g. fault-service latencies and per-access stall lengths.
class Summary {
 public:
  void Add(double v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
  }

  u64 count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

 private:
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vcop::sim

#include "base/latency_histogram.h"

#include <algorithm>
#include <cmath>

namespace vcop {

Picoseconds PercentileNearestRank(std::vector<Picoseconds> samples,
                                  double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const usize index = static_cast<usize>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(samples.size() - 1)));
  return samples[index];
}

}  // namespace vcop

// Latency percentiles shared by vcopd's fairness digests and the bench
// reporting: the exact nearest-rank percentile over a materialised
// sample vector. Deterministic, so JSON artifacts built from it are
// byte-stable.
#pragma once

#include <vector>

#include "base/types.h"
#include "base/units.h"

namespace vcop {

/// Exact nearest-rank percentile of a sample set (q in [0, 1]);
/// 0 when empty. Sorts a copy — pass by value and move when possible.
Picoseconds PercentileNearestRank(std::vector<Picoseconds> samples,
                                  double q);

}  // namespace vcop

// Latency statistics shared by vcopd's fairness digests and the bench
// reporting.
//
// Two tools, for two sample-count regimes:
//
//   * PercentileNearestRank — the exact nearest-rank percentile over a
//     materialised sample vector. Right for per-tenant digests of tens
//     to thousands of samples (ScheduleReport::per_pid(), the
//     bench_vcopd tables), where exactness matters because the values
//     are gated byte-for-byte.
//   * LatencyHistogram — a log-bucketed histogram for service-scale
//     runs (bench_service: hundreds of tenants, tens of thousands of
//     jobs), where storing every sample per tenant is wasteful and a
//     bounded relative error is fine. Buckets are log2 octaves split
//     into 8 linear sub-buckets, so any reported quantile is within
//     ~+13% of the true value; min and max are tracked exactly.
//
// Both are deterministic: identical sample streams produce identical
// digests, so JSON artifacts built from them are byte-stable.
#pragma once

#include <array>
#include <vector>

#include "base/types.h"
#include "base/units.h"

namespace vcop {

/// Exact nearest-rank percentile of a sample set (q in [0, 1]);
/// 0 when empty. Sorts a copy — pass by value and move when possible.
Picoseconds PercentileNearestRank(std::vector<Picoseconds> samples,
                                  double q);

/// Fixed-footprint log-bucketed histogram of latency samples.
class LatencyHistogram {
 public:
  /// 8 linear sub-buckets per power-of-two octave, 64 octaves: covers
  /// the whole Picoseconds range in 512 counters.
  static constexpr u32 kSubBuckets = 8;
  static constexpr u32 kBuckets = 64 * kSubBuckets;

  void Add(Picoseconds sample);
  void Merge(const LatencyHistogram& other);

  u64 count() const { return count_; }
  Picoseconds min() const { return count_ == 0 ? 0 : min_; }
  Picoseconds max() const { return max_; }
  Picoseconds mean() const;

  /// Quantile estimate (q in [0, 1]): the upper bound of the bucket
  /// holding the nearest-rank sample, clamped to the exact max. Within
  /// one sub-bucket width (~13%) of the true value by construction.
  Picoseconds Percentile(double q) const;

  Picoseconds p50() const { return Percentile(0.50); }
  Picoseconds p99() const { return Percentile(0.99); }
  Picoseconds p999() const { return Percentile(0.999); }

 private:
  static u32 BucketIndex(Picoseconds sample);
  /// Inclusive upper bound of the value range mapping to `bucket`.
  static Picoseconds BucketUpperBound(u32 bucket);

  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  unsigned __int128 sum_ = 0;
  Picoseconds min_ = 0;
  Picoseconds max_ = 0;
};

}  // namespace vcop

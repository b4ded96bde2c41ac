// Streaming statistics accumulator (min/max/mean/stddev/percentile support).
#ifndef AETHEREAL_UTIL_STATS_H
#define AETHEREAL_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aethereal {

/// Accumulates samples and answers summary queries. Keeps all samples so
/// exact percentiles are available (bench runs are bounded in size).
///
/// Samples stay in insertion order forever: phased scenarios snapshot the
/// sample count at window boundaries and later ask for exact percentiles
/// over the insertion-order range [first, last) of one phase's window, so
/// Percentile() works on a sorted *copy* (cached until the next Add).
class Stats {
 public:
  void Add(double sample);

  std::int64_t count() const { return static_cast<std::int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;
  /// Unbiased sample standard deviation (n-1 denominator; 0 for a single
  /// sample). The batch-means confidence intervals are built on this, so
  /// the population (n) estimator would bias every half-width low.
  double StdDev() const;
  /// Exact percentile by nearest-rank, p in [0, 100].
  double Percentile(double p) const;
  double Sum() const { return sum_; }

  /// Sorted copy of the insertion-order sample range [first, last) — the
  /// samples recorded between two count() snapshots; one O(n log n) sort
  /// serving any number of SortedPercentile queries.
  std::vector<double> SortedRange(std::size_t first, std::size_t last) const;

  /// Samples in insertion order (for histogram bucketing / merging).
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;  // insertion order; never reordered
  double sum_ = 0.0;
  mutable std::vector<double> sorted_;  // cached sorted copy for Percentile
  mutable bool sorted_valid_ = false;
};

/// Nearest-rank percentile of an externally sorted sample vector
/// (p in [0, 100]); the shared formula of Stats and the class-level
/// histogram merges, so every percentile in the result JSON is computed
/// identically.
double SortedPercentile(const std::vector<double>& sorted, double p);

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_STATS_H

#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace aethereal {

void Stats::Add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  sorted_valid_ = false;
}

double Stats::Min() const {
  AETHEREAL_CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::Max() const {
  AETHEREAL_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::Mean() const {
  AETHEREAL_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Stats::StdDev() const {
  AETHEREAL_CHECK(!samples_.empty());
  if (samples_.size() < 2) return 0.0;
  const double mean = Mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - mean) * (s - mean);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  AETHEREAL_CHECK(!sorted.empty());
  AETHEREAL_CHECK(p >= 0.0 && p <= 100.0);
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double Stats::Percentile(double p) const {
  AETHEREAL_CHECK(!samples_.empty());
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return SortedPercentile(sorted_, p);
}

std::vector<double> Stats::SortedRange(std::size_t first,
                                       std::size_t last) const {
  AETHEREAL_CHECK(first < last && last <= samples_.size());
  std::vector<double> window(
      samples_.begin() + static_cast<std::ptrdiff_t>(first),
      samples_.begin() + static_cast<std::ptrdiff_t>(last));
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace aethereal

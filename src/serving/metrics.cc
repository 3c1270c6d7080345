#include "serving/metrics.h"

#include <algorithm>
#include <cmath>

namespace flashinfer::serving {

double Percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  // Clamp: for p = 1.0, floating-point rounding in `idx` can push ceil() one
  // past the last order statistic.
  const size_t hi = std::min(static_cast<size_t>(std::ceil(idx)), sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double Median(const std::vector<double>& values) { return Percentile(values, 0.5); }

}  // namespace flashinfer::serving

// Histogram accumulator for serving telemetry.
//
// Histogram is log-bucketed (geometric bucket edges), the right shape for
// latency distributions whose tails span orders of magnitude: TTFT/ITL
// histograms stay a few dozen buckets whether the tail is 10 ms or 10 s, so
// CI can diff the printed form across PRs without quantile jitter. Every
// histogram shares one geometry: regular buckets from lo = 0.01 to 1e5 at
// growth 2^(1/4) (~19% relative resolution), 94 of them, plus underflow and
// overflow.
//
// A sample's bucket is the one `floor(log(v / lo) / log(growth))` names, but
// Add calls no libm function: the geometry's table holds the least double
// that formula puts in every bucket (found once by bisecting the bit
// patterns of positive doubles), and IndexOf reads a start bucket off the
// sample's top bit-pattern bits (its binary exponent and six mantissa bits)
// and steps over the rare edge above it. The edges quantiles and
// expositions print stay the formula's `lo * growth^i`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace flashinfer::obs {

/// Log-bucketed histogram: bucket i spans [lo*growth^i, lo*growth^(i+1)),
/// with explicit underflow/overflow buckets, exact min/max/sum tracking, and
/// geometric interpolation for quantiles.
class Histogram {
 public:
  /// Empty, at the shared geometry: latencies from 10 us to ~100 s in ms.
  /// (Non-explicit so structs can hold a Histogram member and still
  /// aggregate-initialize with {}.)
  Histogram();

  static Histogram FromSamples(const std::vector<double>& samples);

  /// Bucket index for value v: 0 = underflow (v < lo, negatives, NaN),
  /// 1..n = regular, n+1 = overflow (every v at or above the formula's least
  /// overflowing value, +inf included). No libm call.
  int64_t IndexOf(double v) const;

  void Add(double v) { AddAt(IndexOf(v), v); }
  /// Add(v) for a caller that already knows `index` == IndexOf(v), e.g.
  /// from another histogram of the same geometry.
  void AddAt(int64_t index, double v) {
    ++counts_[static_cast<size_t>(index)];
    if (count_++ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    sum_ += v;
  }

  /// Empties the histogram in place, keeping its geometry.
  void Clear();

  /// Folds `other` into this histogram. Exact min/max/sum/count merge
  /// exactly, so the merged sketch answers quantiles as if every sample had
  /// been Add()ed here directly.
  void MergeFrom(const Histogram& other);

  int64_t Count() const noexcept { return count_; }
  double MinValue() const noexcept { return count_ > 0 ? min_ : 0.0; }
  double MaxValue() const noexcept { return count_ > 0 ? max_ : 0.0; }
  /// Sum of the samples in the order they were added.
  double Sum() const noexcept { return sum_; }
  double Mean() const noexcept { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Quantile estimate, p in [0,1]: geometric interpolation inside the
  /// containing bucket, clamped to the exact observed min/max.
  double Quantile(double p) const;

  int64_t NumBuckets() const noexcept { return static_cast<int64_t>(counts_.size()); }
  int64_t BucketCount(int64_t i) const { return counts_[static_cast<size_t>(i)]; }
  /// Lower edge of bucket i (0 for the underflow bucket): lo*growth^(i-1),
  /// which may differ by an ulp or so from the least value IndexOf puts in
  /// bucket i.
  double BucketLowerEdge(int64_t i) const;
  double lo() const noexcept;
  double growth() const noexcept;

 private:
  struct Table;  // The geometry's bucket table, built once and shared.

  const Table* table_ = nullptr;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

}  // namespace flashinfer::obs

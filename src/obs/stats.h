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
//
// Storage: a Histogram is a pointer and its span's bounds. An empty one
// holds no heap memory; its first sample allocates one block holding the
// count, sum, min and max and the counts of a span of buckets around the
// sample's (kHeadroom on each side). A sample outside the span widens it to
// cover the sample plus kHeadroom, so a histogram holds only the buckets
// from its lowest counted one to its highest, plus headroom: a TTFT sketch
// of one sample holds 5 of the 96. Clear keeps the block, and the next
// sample re-centres the span when it falls outside, so a reused window slot
// allocates nothing. Every bucket outside the span counts zero: NumBuckets,
// BucketCount and Quantile read as a dense 96-bucket array would.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

namespace flashinfer::obs {

/// Log-bucketed histogram: bucket i spans [lo*growth^i, lo*growth^(i+1)),
/// with explicit underflow/overflow buckets, exact min/max/sum tracking, and
/// geometric interpolation for quantiles.
class Histogram {
 public:
  /// Empty, at the shared geometry: latencies from 10 us to ~100 s in ms.
  /// Holds no heap memory until its first sample.
  Histogram() noexcept = default;
  Histogram(const Histogram& other);
  Histogram(Histogram&& other) noexcept { Swap(other); }
  Histogram& operator=(const Histogram& other);
  Histogram& operator=(Histogram&& other) noexcept {
    Swap(other);
    return *this;
  }
  ~Histogram();

  /// Bucket index for value v: 0 = underflow (v < lo, negatives, NaN),
  /// 1..n = regular, n+1 = overflow (every v at or above the formula's least
  /// overflowing value, +inf included). No libm call.
  static int64_t IndexOf(double v);

  void Add(double v) { AddAt(IndexOf(v), v); }
  /// Add(v) for a caller that already knows `index` == IndexOf(v), e.g.
  /// from another histogram of the same geometry.
  void AddAt(int64_t index, double v) {
    // Also taken while no block exists: the span is then empty.
    if (static_cast<uint64_t>(index - first_) >= static_cast<uint64_t>(size_)) Widen(index);
    Block& b = *block_;
    ++b.Counts()[index - first_];
    if (b.count++ == 0) {
      b.min = b.max = v;
    } else {
      b.min = std::min(b.min, v);
      b.max = std::max(b.max, v);
    }
    b.sum += v;
  }

  /// Empties the histogram in place, keeping its block for the next sample.
  void Clear();

  /// Folds `other` into this histogram. Exact min/max/sum/count merge
  /// exactly, so the merged sketch answers quantiles as if every sample had
  /// been Add()ed here directly.
  void MergeFrom(const Histogram& other);

  int64_t Count() const noexcept { return block_ ? block_->count : 0; }
  double MinValue() const noexcept { return Count() > 0 ? block_->min : 0.0; }
  double MaxValue() const noexcept { return Count() > 0 ? block_->max : 0.0; }
  /// Sum of the samples in the order they were added.
  double Sum() const noexcept { return block_ ? block_->sum : 0.0; }
  double Mean() const noexcept {
    return Count() > 0 ? block_->sum / static_cast<double>(block_->count) : 0.0;
  }

  /// Quantile estimate, p in [0,1]: geometric interpolation inside the
  /// containing bucket, clamped to the exact observed min/max.
  double Quantile(double p) const;

  /// The geometry's bucket count, 96, however few buckets are stored.
  static int64_t NumBuckets();
  /// Samples in bucket i (0 outside the stored span).
  int64_t BucketCount(int64_t i) const {
    const int64_t k = i - first_;
    return k >= 0 && k < size_ ? block_->Counts()[k] : 0;
  }
  /// Lower edge of bucket i (0 for the underflow bucket): lo*growth^(i-1),
  /// which may differ by an ulp or so from the least value IndexOf puts in
  /// bucket i.
  static double BucketLowerEdge(int64_t i);
  static double lo();
  static double growth();

 private:
  struct Table;  // The geometry's bucket table, built once and shared.
  static const Table& Geometry();

  /// The heap block: count, sum, min and max, then the counts of buckets
  /// [first_, first_ + size_), allocated in one piece.
  struct Block {
    int64_t count = 0;
    double sum = 0.0, min = 0.0, max = 0.0;
    int64_t* Counts() noexcept { return reinterpret_cast<int64_t*>(this + 1); }
    const int64_t* Counts() const noexcept {
      return reinterpret_cast<const int64_t*>(this + 1);
    }
  };
  /// Buckets stored on each side of a sample that allocates or widens the span.
  static constexpr int64_t kHeadroom = 2;

  void Swap(Histogram& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(first_, other.first_);
    std::swap(size_, other.size_);
  }
  /// Makes the span hold bucket `index` (AddAt's slow path).
  void Widen(int64_t index);
  /// Makes the span hold buckets [lo, hi): moved in place when the histogram
  /// is empty and its block is large enough, else reallocated around the
  /// union with the counted span.
  void Cover(int64_t lo, int64_t hi);

  // The span's bounds sit beside the pointer, so AddAt finds a bucket's
  // address without first reading the block.
  Block* block_ = nullptr;  // Null until the first sample (or merge).
  int32_t first_ = 0;       // Bucket index of Counts()[0].
  int32_t size_ = 0;        // Buckets in the span; 0 without a block.
};

}  // namespace flashinfer::obs

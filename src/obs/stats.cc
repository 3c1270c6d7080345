#include "obs/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace flashinfer::obs {

namespace {

// IndexOf's start-bucket lookup is keyed by a sample's bit pattern shifted
// right by this much: its binary exponent and top six mantissa bits. One key
// spans a value ratio of at most 1 + 2^-6, so at ~19% growth a lookup steps
// over an edge for ~1 sample in 16 (64 keys per binade, 1.5k keys over the
// geometry's range).
constexpr int kKeyShift = 46;

/// The geometry every histogram shares: regular buckets from kLo up to kHi,
/// each kGrowth = 2^(1/4) times the last.
constexpr double kLo = 1e-2, kHi = 1e5, kGrowth = 1.1892071150027210667;

}  // namespace

struct Histogram::Table {
  double lo = 0.0, growth = 0.0, log_growth = 0.0;
  int64_t regular = 0;  // Regular (non-under/overflow) bucket count.
  /// least[k] (k < regular): bit pattern of the least double the formula
  /// floor(log(v / lo) / log_growth) puts in regular bucket k, so least[0] is
  /// lo's; least[regular]: the least double it sends to overflow. Positive
  /// doubles order like their bit patterns.
  std::vector<uint64_t> least;
  uint64_t first_key = 0;  // lo's key (bits >> kKeyShift).
  /// start[key - first_key]: the bucket of the least double with that key,
  /// up to least[regular]'s key (0 where that double is below lo).
  std::vector<int64_t> start;

  Table(double first_edge, double ratio, int64_t buckets)
      : lo(first_edge), growth(ratio), log_growth(std::log(ratio)), regular(buckets) {
    // The formula is monotone in v, so bucket k's least value is found by
    // bisection; comparing in double keeps an infinite quotient defined.
    const auto reaches = [&](uint64_t bits, int64_t k) {
      return std::floor(std::log(std::bit_cast<double>(bits) / lo) / log_growth) >=
             static_cast<double>(k);
    };
    const auto inf_bits = std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
    least.assign(static_cast<size_t>(regular) + 1, std::bit_cast<uint64_t>(lo));
    for (size_t k = 1; k < least.size(); ++k) {
      uint64_t below = least[k - 1], at = inf_bits;
      if (reaches(below, static_cast<int64_t>(k))) {
        least[k] = below;  // The formula skips index k - 1: that bucket holds no double.
        continue;
      }
      while (at - below > 1) {
        const uint64_t mid = below + (at - below) / 2;
        (reaches(mid, static_cast<int64_t>(k)) ? at : below) = mid;
      }
      least[k] = at;
    }
    first_key = least.front() >> kKeyShift;
    start.resize((least.back() >> kKeyShift) - first_key + 1);
    // Capped below regular: IndexOf looks up only samples under least[regular].
    int64_t k = 0;
    for (size_t i = 0; i < start.size(); ++i) {
      const uint64_t key_least = (first_key + i) << kKeyShift;
      while (k + 1 < regular && least[static_cast<size_t>(k) + 1] <= key_least) ++k;
      start[i] = k;
    }
  }
};

Histogram::Histogram() {
  static const Table kTable(
      kLo, kGrowth, static_cast<int64_t>(std::ceil(std::log(kHi / kLo) / std::log(kGrowth))));
  table_ = &kTable;
  counts_.assign(static_cast<size_t>(kTable.regular) + 2, 0);
}

Histogram Histogram::FromSamples(const std::vector<double>& samples) {
  Histogram h;
  for (double v : samples) h.Add(v);
  return h;
}

int64_t Histogram::IndexOf(double v) const {
  const Table& t = *table_;
  if (!(v >= t.lo)) return 0;  // Underflow (also catches NaN / negatives).
  const auto bits = std::bit_cast<uint64_t>(v);
  if (bits >= t.least.back()) return t.regular + 1;  // Overflow, +inf included.
  int64_t k = t.start[(bits >> kKeyShift) - t.first_key];
  while (bits >= t.least[static_cast<size_t>(k) + 1]) ++k;
  return k + 1;
}

void Histogram::Clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

double Histogram::lo() const noexcept { return table_->lo; }
double Histogram::growth() const noexcept { return table_->growth; }

double Histogram::BucketLowerEdge(int64_t i) const {
  if (i <= 0) return 0.0;
  return table_->lo * std::exp(static_cast<double>(i - 1) * table_->log_growth);
}

double Histogram::Quantile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::min(1.0, std::max(0.0, p));
  const double target = p * static_cast<double>(count_ - 1) + 1.0;
  double seen = 0.0;
  for (int64_t i = 0; i < NumBuckets(); ++i) {
    const double n = static_cast<double>(counts_[static_cast<size_t>(i)]);
    if (n == 0.0) continue;
    if (seen + n >= target) {
      // Geometric interpolation across the containing bucket's span.
      const double frac = (target - seen) / n;
      const double edge_lo = std::max(BucketLowerEdge(i), min_);
      const double edge_hi = std::min(
          i >= table_->regular + 1
              ? max_
              : table_->lo * std::exp(static_cast<double>(i) * table_->log_growth),
          max_);
      if (edge_lo <= 0.0 || edge_hi <= edge_lo) return std::min(edge_hi, max_);
      return std::min(max_, edge_lo * std::pow(edge_hi / edge_lo, frac));
    }
    seen += n;
  }
  return max_;
}

}  // namespace flashinfer::obs

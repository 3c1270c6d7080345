#include "obs/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

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

const Histogram::Table& Histogram::Geometry() {
  static const Table kTable(
      kLo, kGrowth, static_cast<int64_t>(std::ceil(std::log(kHi / kLo) / std::log(kGrowth))));
  return kTable;
}

Histogram::Histogram(const Histogram& other) : first_(other.first_), size_(other.size_) {
  if (other.block_ == nullptr) return;
  const size_t bytes = sizeof(Block) + static_cast<size_t>(size_) * sizeof(int64_t);
  block_ = static_cast<Block*>(::operator new(bytes));
  std::memcpy(static_cast<void*>(block_), other.block_, bytes);
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this != &other) *this = Histogram(other);
  return *this;
}

Histogram::~Histogram() { ::operator delete(block_); }

int64_t Histogram::NumBuckets() { return Geometry().regular + 2; }

int64_t Histogram::IndexOf(double v) {
  const Table& t = Geometry();
  if (!(v >= t.lo)) return 0;  // Underflow (also catches NaN / negatives).
  const auto bits = std::bit_cast<uint64_t>(v);
  if (bits >= t.least.back()) return t.regular + 1;  // Overflow, +inf included.
  int64_t k = t.start[(bits >> kKeyShift) - t.first_key];
  while (bits >= t.least[static_cast<size_t>(k) + 1]) ++k;
  return k + 1;
}

void Histogram::Widen(int64_t index) {
  Cover(std::max<int64_t>(0, index - kHeadroom),
        std::min(NumBuckets(), index + kHeadroom + 1));
}

void Histogram::Cover(int64_t lo, int64_t hi) {
  const bool counted = Count() > 0;
  if (block_ != nullptr && !counted && hi - lo <= size_) {
    // Empty (cleared): every count is zero, so the span moves to centre
    // [lo, hi) without reallocating.
    first_ = static_cast<int32_t>(
        std::clamp(lo - (size_ - (hi - lo)) / 2, int64_t{0}, NumBuckets() - size_));
    return;
  }
  if (counted) {
    lo = std::min<int64_t>(lo, first_);
    hi = std::max<int64_t>(hi, first_ + size_);
  }
  // A Block is followed by its counts in the same allocation.
  auto* grown =
      ::new (::operator new(sizeof(Block) + static_cast<size_t>(hi - lo) * sizeof(int64_t)))
          Block{};
  std::fill_n(grown->Counts(), hi - lo, 0);
  if (counted) {
    *grown = *block_;
    std::copy_n(block_->Counts(), size_, grown->Counts() + (first_ - lo));
  }
  ::operator delete(block_);
  block_ = grown;
  first_ = static_cast<int32_t>(lo);
  size_ = static_cast<int32_t>(hi - lo);
}

void Histogram::Clear() {
  if (block_ == nullptr) return;
  *block_ = Block{};
  std::fill_n(block_->Counts(), size_, 0);
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.Count() == 0) return;
  if (other.first_ < first_ || other.first_ + other.size_ > first_ + size_) {
    Cover(other.first_, other.first_ + other.size_);
  }
  Block& b = *block_;
  const Block& o = *other.block_;
  for (int32_t k = 0; k < other.size_; ++k) {
    b.Counts()[other.first_ - first_ + k] += o.Counts()[k];
  }
  b.min = b.count == 0 ? o.min : std::min(b.min, o.min);
  b.max = b.count == 0 ? o.max : std::max(b.max, o.max);
  b.sum += o.sum;
  b.count += o.count;
}

double Histogram::lo() { return Geometry().lo; }
double Histogram::growth() { return Geometry().growth; }

double Histogram::BucketLowerEdge(int64_t i) {
  if (i <= 0) return 0.0;
  const Table& t = Geometry();
  return t.lo * std::exp(static_cast<double>(i - 1) * t.log_growth);
}

double Histogram::Quantile(double p) const {
  if (Count() == 0) return 0.0;
  const Table& t = Geometry();
  const Block& b = *block_;
  p = std::min(1.0, std::max(0.0, p));
  const double target = p * static_cast<double>(b.count - 1) + 1.0;
  double seen = 0.0;
  // Buckets outside the span count zero, and a zero bucket is skipped.
  for (int64_t k = 0; k < size_; ++k) {
    const double n = static_cast<double>(b.Counts()[k]);
    if (n == 0.0) continue;
    if (seen + n >= target) {
      // Geometric interpolation across the containing bucket's span.
      const int64_t i = first_ + k;
      const double frac = (target - seen) / n;
      const double edge_lo = std::max(BucketLowerEdge(i), b.min);
      const double edge_hi = std::min(
          i >= t.regular + 1 ? b.max : t.lo * std::exp(static_cast<double>(i) * t.log_growth),
          b.max);
      if (edge_lo <= 0.0 || edge_hi <= edge_lo) return std::min(edge_hi, b.max);
      return std::min(b.max, edge_lo * std::pow(edge_hi / edge_lo, frac));
    }
    seen += n;
  }
  return b.max;
}

}  // namespace flashinfer::obs

#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace flashinfer {

namespace {

inline uint64_t SplitMix64(uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) noexcept {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::NextDouble() noexcept {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) noexcept { return lo + (hi - lo) * NextDouble(); }

double Rng::Normal(double mean, double stddev) noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(2.0 * M_PI * u2);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::LogNormal(double mu, double sigma) noexcept { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double lambda) noexcept {
  double u = NextDouble();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / lambda;
}

ZipfSampler::ZipfSampler(int n, double s) {
  FI_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  double weighted = 0.0;
  for (int k = 1; k <= n; ++k) {
    const double w = 1.0 / std::pow(static_cast<double>(k), s);
    total += w;
    weighted += k * w;
    cdf_[static_cast<size_t>(k - 1)] = total;
  }
  for (auto& c : cdf_) c /= total;
  mean_ = weighted / total;
}

int ZipfSampler::Sample(Rng& rng) const noexcept {
  const double u = rng.NextDouble();
  // Binary search for the first cdf entry >= u.
  size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<int>(lo) + 1;
}

std::vector<int> ZipfLengths(Rng& rng, int count, double target_mean, double s, int min_len) {
  // Sample ranks from a Zipf over a wide support, then rescale so the
  // distribution's mean lands near target_mean while keeping the heavy tail.
  const int support = 16384;
  ZipfSampler zipf(support, s);
  const double scale = target_mean / zipf.Mean();
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int rank = zipf.Sample(rng);
    int len = static_cast<int>(std::lround(rank * scale));
    if (len < min_len) len = min_len;
    out.push_back(len);
  }
  return out;
}

}  // namespace flashinfer

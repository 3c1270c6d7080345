// Deterministic random-number utilities for workload generation and tests.
//
// The engine must be reproducible across runs and platforms (the paper's
// scheduler guarantees deterministic outputs; our experiments must be
// seed-stable too), so we use a self-contained xoshiro256** implementation
// instead of std:: distributions whose sequences vary across standard
// libraries.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace flashinfer {

/// xoshiro256** PRNG with SplitMix64 seeding.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  /// Uniform 64-bit value. Inline, like UniformInt, so a draw in a token
  /// loop costs a few instructions (a constant span's modulo compiles to a
  /// multiply).
  uint64_t NextU64() noexcept {
    const uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    Advance();
    return result;
  }

  /// Advances the stream past `n` NextU64() draws without computing them:
  /// afterwards the state equals n NextU64() calls'. Every UniformInt() is
  /// one draw, so a caller can skip a known number of them and replay them
  /// later from a copy taken before the skip.
  void Discard(uint64_t n) noexcept {
    for (; n > 0; --n) Advance();
  }

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// Uniform integer in [lo, hi] inclusive: one NextU64() draw.
  int64_t UniformInt(int64_t lo, int64_t hi) noexcept {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextU64() % span);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept;

  /// Standard normal via Box-Muller.
  double Normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Log-normal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma) noexcept;

  /// Exponential with rate lambda (mean 1/lambda); used for Poisson arrivals.
  double Exponential(double lambda) noexcept;

  /// Same state: the same draws follow, Normal()'s cached value included.
  bool operator==(const Rng&) const = default;

 private:
  /// xoshiro256's state update.
  void Advance() noexcept {
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
  }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Samples from a Zipf distribution over {1..n} with exponent `s` using
/// inverse-CDF on precomputed cumulative weights. Used for the paper's
/// "skewed" sequence-length distribution (Sec. 4.2).
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);

  /// Returns a rank in [1, n]; rank 1 is the most likely.
  int Sample(Rng& rng) const noexcept;

  /// Expected value of the distribution.
  double Mean() const noexcept { return mean_; }

 private:
  std::vector<double> cdf_;
  double mean_ = 0.0;
};

/// Draws `count` sequence lengths from a Zipf-shaped distribution rescaled so
/// the empirical mean is close to `target_mean` (the paper fixes the average
/// length at 1024 for the skewed workload).
std::vector<int> ZipfLengths(Rng& rng, int count, double target_mean, double s = 1.2,
                             int min_len = 1);

}  // namespace flashinfer

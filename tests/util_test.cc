#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/float_types.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace flashinfer {
namespace {

// ---------------------------------------------------------------- float16
TEST(Half, ExactSmallIntegers) {
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(static_cast<float>(half_t(static_cast<float>(i))), static_cast<float>(i));
  }
}

TEST(Half, RoundTripPowersOfTwo) {
  for (int e = -14; e <= 15; ++e) {
    const float v = std::ldexp(1.0f, e);
    EXPECT_EQ(static_cast<float>(half_t(v)), v);
  }
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even -> 1.0.
  EXPECT_EQ(static_cast<float>(half_t(1.0f + std::ldexp(1.0f, -11))), 1.0f);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(static_cast<float>(half_t(1.0f + 3 * std::ldexp(1.0f, -11))),
            1.0f + std::ldexp(1.0f, -9));
}

TEST(Half, OverflowToInf) {
  EXPECT_TRUE(std::isinf(static_cast<float>(half_t(70000.0f))));
  EXPECT_TRUE(std::isinf(static_cast<float>(half_t(-70000.0f))));
  EXPECT_LT(static_cast<float>(half_t(-70000.0f)), 0.0f);
}

TEST(Half, MaxFinite) { EXPECT_EQ(static_cast<float>(half_t(65504.0f)), 65504.0f); }

TEST(Half, Subnormals) {
  const float tiny = std::ldexp(1.0f, -24);  // Smallest subnormal.
  EXPECT_EQ(static_cast<float>(half_t(tiny)), tiny);
  EXPECT_EQ(static_cast<float>(half_t(tiny / 4)), 0.0f);  // Underflow.
}

TEST(Half, NanPropagates) {
  EXPECT_TRUE(std::isnan(static_cast<float>(half_t(std::nanf("")))));
}

TEST(Half, RoundTripAllBitPatterns) {
  // Every finite half value must convert to float and back bit-exactly.
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = half_t::FromBits(static_cast<uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    const auto h2 = half_t(f);
    EXPECT_EQ(h2.bits, h.bits) << "bits=" << bits;
  }
}

// ---------------------------------------------------------------- bfloat16
TEST(Bf16, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = bf16_t::FromBits(static_cast<uint16_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(bf16_t(f).bits, h.bits) << "bits=" << bits;
  }
}

TEST(Bf16, KeepsFloatRange) {
  // bf16 shares float's exponent range: 3e38 stays finite (unlike fp16).
  const float v = static_cast<float>(bf16_t(3.0e38f));
  EXPECT_FALSE(std::isinf(v));
  EXPECT_NEAR(v, 3.0e38f, 3.0e38f * 0.01f);  // Within one mantissa step.
}

// ---------------------------------------------------------------- fp8
TEST(Fp8E4M3, KnownValues) {
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(1.0f)), 1.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(-2.0f)), -2.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(448.0f)), 448.0f);  // Max finite.
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(0.0625f)), 0.0625f);
}

TEST(Fp8E4M3, SaturatesInsteadOfInf) {
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(1e9f)), 448.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(-1e9f)), -448.0f);
  EXPECT_EQ(static_cast<float>(fp8_e4m3_t(std::numeric_limits<float>::infinity())), 448.0f);
}

TEST(Fp8E4M3, NanEncoding) {
  EXPECT_TRUE(std::isnan(static_cast<float>(fp8_e4m3_t(std::nanf("")))));
}

TEST(Fp8E4M3, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    const auto h = fp8_e4m3_t::FromBits(static_cast<uint8_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(fp8_e4m3_t(f).bits, h.bits) << "bits=" << bits << " f=" << f;
  }
}

TEST(Fp8E5M2, RoundTripAllBitPatterns) {
  for (uint32_t bits = 0; bits < 256; ++bits) {
    const auto h = fp8_e5m2_t::FromBits(static_cast<uint8_t>(bits));
    const float f = static_cast<float>(h);
    if (std::isnan(f)) continue;
    if (std::isinf(f)) {
      EXPECT_TRUE(std::isinf(static_cast<float>(fp8_e5m2_t(f))));
      continue;
    }
    EXPECT_EQ(fp8_e5m2_t(f).bits, h.bits) << "bits=" << bits << " f=" << f;
  }
}

TEST(Fp8E5M2, MaxFinite) {
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t(57344.0f)), 57344.0f);
  EXPECT_EQ(static_cast<float>(fp8_e5m2_t(60000.0f)), 57344.0f);  // Saturate.
}

TEST(Fp8, QuantizationErrorBounded) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.Normal(0.0, 2.0));
    const float q = static_cast<float>(fp8_e4m3_t(v));
    // e4m3 relative step is 2^-3 for normals.
    EXPECT_LE(std::fabs(q - v), std::max(std::fabs(v) * 0.0625f, 0.002f)) << v;
  }
}

TEST(DTypeTraits, BytesAndNames) {
  EXPECT_EQ(DTypeBytes(DType::kF32), 4);
  EXPECT_EQ(DTypeBytes(DType::kF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kBF16), 2);
  EXPECT_EQ(DTypeBytes(DType::kFP8_E4M3), 1);
  EXPECT_EQ(DTypeName(DType::kFP8_E4M3), "e4m3");
  static_assert(DTypeOf<half_t>::value == DType::kF16);
  static_assert(DTypeOf<fp8_e5m2_t>::value == DType::kFP8_E5M2);
  static_assert(MaxFinite(DType::kF16) == 65504.0f);
  static_assert(MaxFinite(DType::kFP8_E4M3) == 448.0f);
  static_assert(MaxFinite(DType::kFP8_E5M2) == 57344.0f);
  EXPECT_EQ(MaxFinite(DType::kBF16), std::bit_cast<float>(0x7F7F0000u));
}

// ---------------------------------------------------------------- exactness
// Independent references for every conversion: the compiler's _Float16 for
// binary16, round-to-nearest-even computed in double for bf16, and for fp8
// the nearest of the 256 codes, ties to the even code, over finite codes
// only (the saturating conversion; e5m2 keeps infinity). NaN encodes to its
// sign and the format's NaN code: 0x7E00 (binary16), the quieted top half
// (bf16), 0x7F (fp8).

uint32_t RefHalfBits(float x) {
  if (std::isnan(x)) return (std::bit_cast<uint32_t>(x) >> 16 & 0x8000u) | 0x7E00u;
  return std::bit_cast<uint16_t>(static_cast<_Float16>(x));
}

uint32_t RefBf16Bits(float x) {
  const uint32_t u = std::bit_cast<uint32_t>(x);
  if (std::isnan(x)) return (u >> 16) | 0x40u;
  const uint32_t a = u & 0x7FFFFFFFu;
  if (a == 0x7F800000u) return u >> 16;
  // The bf16 values either side of |x|; 2^128 stands in for the infinity
  // that the top binade overflows to.
  const uint32_t lo_bits = a & 0xFFFF0000u;
  const double lo = std::bit_cast<float>(lo_bits);
  const double hi = lo_bits == 0x7F7F0000u ? 0x1p128 : std::bit_cast<float>(lo_bits + 0x10000u);
  const double below = std::bit_cast<float>(a) - lo, above = hi - std::bit_cast<float>(a);
  const bool up = below > above || (below == above && ((lo_bits >> 16) & 1) != 0);
  return ((u & 0x80000000u) | (lo_bits + (up ? 0x10000u : 0u))) >> 16;
}

/// An fp8 format from its definition: every finite non-negative code's
/// value in double, ascending with the code.
class Fp8Ref {
 public:
  Fp8Ref(int exp_bits, int man_bits, bool has_inf) {
    const int bias = (1 << (exp_bits - 1)) - 1;
    const int first_non_finite = has_inf ? ((1 << exp_bits) - 1) << man_bits : 0x7F;
    inf_code_ = has_inf ? static_cast<uint32_t>(first_non_finite) : 0u;
    for (int c = 0; c < first_non_finite; ++c) {
      const int e = c >> man_bits, m = c & ((1 << man_bits) - 1);
      values_.push_back(e == 0 ? std::ldexp(m, 1 - bias - man_bits)
                               : std::ldexp((1 << man_bits) + m, e - bias - man_bits));
    }
  }

  uint32_t Encode(float x) const {
    const uint32_t sign = std::signbit(x) ? 0x80u : 0u;
    if (std::isnan(x)) return sign | 0x7Fu;
    if (std::isinf(x) && inf_code_ != 0) return sign | inf_code_;
    const double a = std::fabs(static_cast<double>(x));
    const auto it = std::lower_bound(values_.begin(), values_.end(), a);
    if (it == values_.end()) return sign | static_cast<uint32_t>(values_.size() - 1);
    auto c = static_cast<uint32_t>(it - values_.begin());
    if (*it != a) {
      const double below = a - values_[c - 1], above = *it - a;
      if (below < above || (below == above && (c - 1) % 2 == 0)) --c;
    }
    return sign | c;
  }

  float Decode(uint32_t code) const {
    const uint32_t c = code & 0x7Fu;
    const float s = (code & 0x80u) != 0 ? -1.0f : 1.0f;
    if (c < values_.size()) return s * static_cast<float>(values_[c]);
    if (c == inf_code_) return s * std::numeric_limits<float>::infinity();
    return std::numeric_limits<float>::quiet_NaN();
  }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
  uint32_t inf_code_ = 0;
};

const Fp8Ref& E4m3Ref() {
  static const Fp8Ref ref(4, 3, /*has_inf=*/false);
  return ref;
}
const Fp8Ref& E5m2Ref() {
  static const Fp8Ref ref(5, 2, /*has_inf=*/true);
  return ref;
}

/// One format under test: the library's encoder, its reference, the
/// ascending values of its finite non-negative codes, and the index of its
/// least normal code.
struct CodecCase {
  const char* name;
  uint32_t (*encode)(float);
  uint32_t (*reference)(float);
  std::vector<double> values;
  size_t first_normal;
};

std::vector<CodecCase> CodecCases() {
  std::vector<double> half, bf16;
  for (uint32_t c = 0; c < 0x7C00u; ++c) {
    half.push_back(static_cast<float>(std::bit_cast<_Float16>(static_cast<uint16_t>(c))));
  }
  for (uint32_t c = 0; c < 0x7F80u; ++c) bf16.push_back(std::bit_cast<float>(c << 16));
  return {
      {"f16", [](float x) -> uint32_t { return half_t(x).bits; }, RefHalfBits, half, 1u << 10},
      {"bf16", [](float x) -> uint32_t { return bf16_t(x).bits; }, RefBf16Bits, bf16, 1u << 7},
      {"e4m3", [](float x) -> uint32_t { return fp8_e4m3_t(x).bits; },
       [](float x) { return E4m3Ref().Encode(x); }, E4m3Ref().values(), 1u << 3},
      {"e5m2", [](float x) -> uint32_t { return fp8_e5m2_t(x).bits; },
       [](float x) { return E5m2Ref().Encode(x); }, E5m2Ref().values(), 1u << 2},
  };
}

/// Encodes every float whose magnitude bits lie in [lo, hi], in both signs,
/// and returns how many differ from the reference. Reports the first few.
int64_t Mismatches(const CodecCase& c, uint32_t lo, uint32_t hi) {
  static std::atomic<int> reported{0};
  int64_t bad = 0;
  for (uint64_t a = lo; a <= hi; ++a) {
    for (const uint32_t sign : {0u, 0x80000000u}) {
      const float x = std::bit_cast<float>(sign | static_cast<uint32_t>(a));
      const uint32_t got = c.encode(x), want = c.reference(x);
      if (got == want) continue;
      ++bad;
      if (reported++ < 16) {
        ADD_FAILURE() << c.name << " encodes 0x" << std::hex << std::bit_cast<uint32_t>(x)
                      << " to 0x" << got << ", reference 0x" << want;
      }
    }
  }
  return bad;
}

// These four inputs lie one float ulp above half the least fp8 subnormal,
// so they round up to it; a tie test with a tolerance takes them for ties
// and rounds them to zero.
TEST(FloatCodec, JustAboveHalfTheLeastFp8SubnormalRoundsUp) {
  EXPECT_EQ(fp8_e4m3_t(std::bit_cast<float>(0x3a800001u)).bits, 0x01);
  EXPECT_EQ(fp8_e4m3_t(std::bit_cast<float>(0xba800001u)).bits, 0x81);
  EXPECT_EQ(fp8_e5m2_t(std::bit_cast<float>(0x37000001u)).bits, 0x01);
  EXPECT_EQ(fp8_e5m2_t(std::bit_cast<float>(0xb7000001u)).bits, 0x81);
  // Exactly half the least subnormal is a tie: to the even code, zero.
  EXPECT_EQ(fp8_e4m3_t(std::bit_cast<float>(0x3a800000u)).bits, 0x00);
  EXPECT_EQ(fp8_e5m2_t(std::bit_cast<float>(0xb7000000u)).bits, 0x80);
}

// Every float within 64 ulps of each rounding midpoint between adjacent
// finite codes, and of the zero, least-subnormal, least-normal, max-finite,
// overflow-threshold and infinity edges, in both signs.
TEST(FloatCodec, EncodersMatchReferencesNearEveryMidpointAndEdge) {
  for (const CodecCase& c : CodecCases()) {
    const std::vector<double>& v = c.values;
    const double top_ulp = v.back() - v[v.size() - 2];
    std::vector<double> centers = {0.0, v[1], v[c.first_normal], v.back(),
                                   v.back() + top_ulp / 2,
                                   std::numeric_limits<double>::infinity()};
    for (size_t i = 1; i < v.size(); ++i) centers.push_back((v[i - 1] + v[i]) / 2);
    std::atomic<int64_t> mismatches{0};
    ThreadPool::Global().ParallelFor(static_cast<int64_t>(centers.size()), [&](int64_t i) {
      const auto mid = std::bit_cast<uint32_t>(static_cast<float>(centers[static_cast<size_t>(i)]));
      mismatches += Mismatches(c, mid < 64 ? 0 : mid - 64, mid + 64);
    });
    EXPECT_EQ(mismatches.load(), 0) << c.name;
  }
}

TEST(FloatCodec, EveryCodeDecodesToItsReferenceValue) {
  const auto same = [](float got, float want) {
    return std::isnan(want) ? std::isnan(got)
                            : std::bit_cast<uint32_t>(got) == std::bit_cast<uint32_t>(want);
  };
  for (uint32_t c = 0; c < 0x10000u; ++c) {
    const auto b = static_cast<uint16_t>(c);
    EXPECT_TRUE(same(static_cast<float>(half_t::FromBits(b)),
                     static_cast<float>(std::bit_cast<_Float16>(b))))
        << "f16 " << c;
    EXPECT_TRUE(same(static_cast<float>(bf16_t::FromBits(b)), std::bit_cast<float>(c << 16)))
        << "bf16 " << c;
  }
  for (uint32_t c = 0; c < 0x100u; ++c) {
    const auto b = static_cast<uint8_t>(c);
    EXPECT_TRUE(same(static_cast<float>(fp8_e4m3_t::FromBits(b)), E4m3Ref().Decode(c)))
        << "e4m3 " << c;
    EXPECT_TRUE(same(static_cast<float>(fp8_e5m2_t::FromBits(b)), E5m2Ref().Decode(c)))
        << "e5m2 " << c;
  }
}

// All 2^32 floats through every encoder (about 2.5 minutes on 4 threads in a
// Release build). Run it with --gtest_also_run_disabled_tests
// --gtest_filter='FloatCodec.DISABLED_AllFloatsMatchReferences'.
TEST(FloatCodec, DISABLED_AllFloatsMatchReferences) {
  for (const CodecCase& c : CodecCases()) {
    std::atomic<int64_t> mismatches{0};
    ThreadPool::Global().ParallelFor(1 << 10, [&](int64_t chunk) {
      const auto lo = static_cast<uint32_t>(chunk) << 21;
      mismatches += Mismatches(c, lo, lo + ((1u << 21) - 1));
    });
    EXPECT_EQ(mismatches.load(), 0) << c.name;
  }
}

// ---------------------------------------------------------------- rng
TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

// Discard(n) leaves the state that n NextU64() calls would, so a stream can
// skip draws it replays later from a copy.
TEST(Rng, DiscardMatchesNextU64Calls) {
  for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{1000}}) {
    Rng skipped(29), drawn(29);
    skipped.Discard(n);
    for (uint64_t i = 0; i < n; ++i) drawn.NextU64();
    EXPECT_TRUE(skipped == drawn) << "n=" << n;
    EXPECT_EQ(skipped.NextU64(), drawn.NextU64()) << "n=" << n;
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All values hit.
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(Zipf, RankOneMostLikely) {
  Rng rng(17);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(101, 0);
  for (int i = 0; i < 20000; ++i) ++counts[static_cast<size_t>(zipf.Sample(rng))];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
}

TEST(Zipf, LengthsHitTargetMean) {
  Rng rng(19);
  const auto lens = ZipfLengths(rng, 20000, 1024.0, 1.2, 16);
  double sum = 0.0;
  for (int l : lens) sum += l;
  const double mean = sum / static_cast<double>(lens.size());
  EXPECT_GT(mean, 650.0);
  EXPECT_LT(mean, 1600.0);
}

// ---------------------------------------------------------------- table
TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.AddRow({"alpha", "1.00"});
  t.AddRow({"beta-long-name", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("beta-long-name"), std::string::npos);
  EXPECT_EQ(AsciiTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::SignedPct(13.731, 2), "+13.73%");
  EXPECT_EQ(AsciiTable::SignedPct(-2.0, 2), "-2.00%");
}

}  // namespace
}  // namespace flashinfer

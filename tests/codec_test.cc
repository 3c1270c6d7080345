// Host KV-tier codec: LZ4-style block compressor round trips, bounded-error
// quantization (incl. bfloat16 edge values), page-codec properties, a cache
// page encoded as laid out, and the per-fill-level page table that meters a
// simulated host tier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "kvcache/paged.h"
#include "util/codec.h"
#include "util/float_types.h"

namespace flashinfer {
namespace {

using util::DecodePage;
using util::EncodedPageBound;
using util::EncodePage;
using util::Lz4Compress;
using util::Lz4CompressBound;
using util::Lz4Decompress;
using util::PageCodecStats;

// --- LZ4 block round trips ---------------------------------------------------

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& src) {
  std::vector<uint8_t> comp(Lz4CompressBound(src.size()));
  const size_t csize = Lz4Compress(src.data(), src.size(), comp.data(), comp.size());
  EXPECT_GT(csize + (src.empty() ? 1 : 0), 0u);  // 0 only legal for empty input.
  EXPECT_LE(csize, comp.size());
  std::vector<uint8_t> out(src.size());
  const size_t dsize = Lz4Decompress(comp.data(), csize, out.data(), out.size());
  EXPECT_EQ(dsize, src.size());
  return out;
}

TEST(Lz4, EmptyInputRoundTrips) {
  std::vector<uint8_t> src;
  uint8_t dst[8];
  EXPECT_EQ(Lz4Compress(src.data(), 0, dst, sizeof dst), 0u);
  EXPECT_EQ(Lz4Decompress(dst, 0, dst, 0), 0u);
}

TEST(Lz4, TinyInputsRoundTrip) {
  // Below the minimum matchable size everything is literals; exercise each
  // length around the last-literals boundary.
  // Input n is bytes 17 * i + 3 for i < n: grow one buffer a byte at a time.
  std::vector<uint8_t> src;
  for (size_t n = 1; n <= 16; ++n) {
    src.push_back(static_cast<uint8_t>(17 * (n - 1) + 3));
    EXPECT_EQ(RoundTrip(src), src) << "n=" << n;
  }
}

TEST(Lz4, RepetitiveInputCompressesAndRoundTrips) {
  std::vector<uint8_t> src(4096);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<uint8_t>(i % 7);
  std::vector<uint8_t> comp(Lz4CompressBound(src.size()));
  const size_t csize = Lz4Compress(src.data(), src.size(), comp.data(), comp.size());
  EXPECT_LT(csize, src.size() / 4);  // Period-7 data must compress hard.
  std::vector<uint8_t> out(src.size());
  EXPECT_EQ(Lz4Decompress(comp.data(), csize, out.data(), out.size()), src.size());
  EXPECT_EQ(out, src);
}

TEST(Lz4, RandomIncompressibleRoundTrips) {
  std::mt19937 rng(123);
  for (const size_t n : {1u, 63u, 64u, 65u, 255u, 256u, 257u, 4096u, 70000u}) {
    std::vector<uint8_t> src(n);
    for (auto& b : src) b = static_cast<uint8_t>(rng());
    EXPECT_EQ(RoundTrip(src), src) << "n=" << n;
  }
}

TEST(Lz4, LongMatchLengthExtensionRoundTrips) {
  // > 15+255 match lengths force multi-byte length continuation on both the
  // literal and match sides.
  std::vector<uint8_t> src(3000, 0xAB);
  src.front() = 1;
  src.back() = 2;
  EXPECT_EQ(RoundTrip(src), src);
  // Long literal run: random prefix (no matches) + short tail.
  std::mt19937 rng(7);
  std::vector<uint8_t> lit(1000);
  for (auto& b : lit) b = static_cast<uint8_t>(rng());
  EXPECT_EQ(RoundTrip(lit), lit);
}

TEST(Lz4, CompressReturnsZeroWhenDstTooSmall) {
  std::mt19937 rng(9);
  std::vector<uint8_t> src(512);
  for (auto& b : src) b = static_cast<uint8_t>(rng());
  uint8_t dst[16];
  EXPECT_EQ(Lz4Compress(src.data(), src.size(), dst, sizeof dst), 0u);
}

// --- Page codec --------------------------------------------------------------

constexpr size_t kElems = 2 * 2 * 16 * 8;  // 2 (K/V) x 2 heads x 16 slots x 8 dim.

std::vector<std::byte> MakePage(DType dtype, size_t elems,
                                const std::vector<float>& vals) {
  std::vector<std::byte> page(elems * DTypeBytes(dtype));
  for (size_t i = 0; i < elems; ++i) StoreElem(dtype, page.data(), i, vals[i % vals.size()]);
  return page;
}

std::vector<float> SmoothVals() {
  std::vector<float> v(kElems);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<float>(i) * 0.01f) * 3.0f;
  }
  return v;
}

TEST(PageCodec, LosslessCompressIsBitExactForEveryDtype) {
  const KvCodecConfig cfg{KvQuantFormat::kNone, /*compress=*/true};
  for (const DType dt : {DType::kF32, DType::kF16, DType::kBF16,
                         DType::kFP8_E4M3, DType::kFP8_E5M2}) {
    const auto page = MakePage(dt, kElems, SmoothVals());
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, dt, cfg, &st);
    EXPECT_EQ(st.logical_bytes, static_cast<int64_t>(page.size()));
    EXPECT_EQ(st.stored_bytes, static_cast<int64_t>(blob.size()));
    EXPECT_LE(blob.size(), EncodedPageBound(kElems, dt, cfg));
    EXPECT_DOUBLE_EQ(st.mse, 0.0);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, dt);
    EXPECT_EQ(std::memcmp(out.data(), page.data(), page.size()), 0)
        << "dtype=" << static_cast<int>(dt);
  }
}

TEST(PageCodec, Int8ErrorBoundedByHalfStep) {
  const KvCodecConfig cfg{KvQuantFormat::kInt8, /*compress=*/false};
  const auto vals = SmoothVals();
  const auto page = MakePage(DType::kF32, kElems, vals);
  PageCodecStats st;
  const auto blob = EncodePage(page.data(), kElems, DType::kF32, cfg, &st);
  EXPECT_LE(blob.size(), EncodedPageBound(kElems, DType::kF32, cfg));
  std::vector<std::byte> out(page.size());
  DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF32);
  float lo = vals[0], hi = vals[0];
  for (float v : vals) { lo = std::min(lo, v); hi = std::max(hi, v); }
  const float step = (hi - lo) / 255.0f;
  double mse = 0.0;
  for (size_t i = 0; i < kElems; ++i) {
    const float orig = LoadElem(DType::kF32, page.data(), i);
    const float back = LoadElem(DType::kF32, out.data(), i);
    EXPECT_LE(std::abs(orig - back), step * 0.5f + 1e-6f) << "i=" << i;
    mse += double(orig - back) * double(orig - back);
  }
  mse /= kElems;
  EXPECT_LE(st.mse, double(step) * double(step) * 0.25 + 1e-12);
  EXPECT_NEAR(st.mse, mse, 1e-9);  // Reported proxy matches the realized error.
  EXPECT_GT(st.mse, 0.0);
}

TEST(PageCodec, Fp8RelativeErrorBounded) {
  for (const auto fmt : {KvQuantFormat::kFp8E4M3, KvQuantFormat::kFp8E5M2}) {
    const KvCodecConfig cfg{fmt, /*compress=*/false};
    const auto page = MakePage(DType::kF16, kElems, SmoothVals());
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kF16, cfg, &st);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF16);
    // fp8 keeps >= 2 mantissa bits: relative error under amax scaling stays
    // within ~12.5% (e5m2: 2 bits -> 1/8 ulp relative bound) of amax.
    for (size_t i = 0; i < kElems; ++i) {
      const float orig = LoadElem(DType::kF16, page.data(), i);
      const float back = LoadElem(DType::kF16, out.data(), i);
      EXPECT_LE(std::abs(orig - back), 3.0f * 0.15f) << "i=" << i;
    }
    EXPECT_GE(st.mse, 0.0);
  }
}

TEST(PageCodec, Bf16EdgeValuesSanitizeAndStayFinite) {
  // Denormals, infinities, NaN, negative zero: the codec contract is NaN -> 0
  // and +/-inf -> +/-65504 *before* scale computation, so a poisoned page
  // cannot produce a non-finite scale or MSE.
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> edge = {0.0f,
                                   -0.0f,
                                   denorm,
                                   -denorm,
                                   std::numeric_limits<float>::infinity(),
                                   -std::numeric_limits<float>::infinity(),
                                   std::numeric_limits<float>::quiet_NaN(),
                                   1.5f,
                                   -2.25f,
                                   65504.0f};
  for (const auto fmt : {KvQuantFormat::kInt8, KvQuantFormat::kFp8E4M3,
                         KvQuantFormat::kFp8E5M2}) {
    const KvCodecConfig cfg{fmt, /*compress=*/true};
    const auto page = MakePage(DType::kBF16, kElems, edge);
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kBF16, cfg, &st);
    EXPECT_LE(blob.size(), EncodedPageBound(kElems, DType::kBF16, cfg));
    EXPECT_TRUE(std::isfinite(st.mse)) << "fmt=" << static_cast<int>(fmt);
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kBF16);
    for (size_t i = 0; i < kElems; ++i) {
      const float back = LoadElem(DType::kBF16, out.data(), i);
      EXPECT_TRUE(std::isfinite(back)) << "i=" << i;
      EXPECT_LE(std::abs(back), 65504.0f * 1.01f);
    }
  }
}

TEST(PageCodec, RandomizedRoundTripsStayWithinBound) {
  std::mt19937 rng(0xC0DEC);
  std::uniform_real_distribution<float> dist(-4.0f, 4.0f);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> vals(kElems);
    for (auto& v : vals) v = dist(rng);
    const auto cfg = KvCodecConfig{
        static_cast<KvQuantFormat>(trial % 4),
        /*compress=*/(trial / 4) % 2 == 0};
    if (!cfg.enabled()) continue;
    const auto page = MakePage(DType::kF16, kElems, vals);
    PageCodecStats st;
    const auto blob = EncodePage(page.data(), kElems, DType::kF16, cfg, &st);
    ASSERT_LE(blob.size(), EncodedPageBound(kElems, DType::kF16, cfg));
    std::vector<std::byte> out(page.size());
    DecodePage(blob.data(), blob.size(), out.data(), kElems, DType::kF16);
    if (cfg.quant == KvQuantFormat::kNone) {
      EXPECT_EQ(std::memcmp(out.data(), page.data(), page.size()), 0);
    } else {
      for (size_t i = 0; i < kElems; i += 97) {
        EXPECT_LE(std::abs(LoadElem(DType::kF16, page.data(), i) -
                           LoadElem(DType::kF16, out.data(), i)),
                  1.0f)
            << "trial=" << trial << " i=" << i;
      }
    }
  }
}

// --- Cache pages through the codec -------------------------------------------

constexpr int kPage = 16;

TEST(PageCodec, CachePageRoundTripsThroughInt8Lz4) {
  // A host tier encodes the cache's page bytes as laid out: PageData is the
  // [K/V][head][slot][dim] page the codec sees.
  constexpr int kHeads = 2, kDim = 8;
  PagedKVCache kv(DType::kF16, kHeads, kDim, kPage, 4);
  const int seq = kv.CreateSequence();
  std::vector<float> k(static_cast<size_t>(kPage) * kHeads * kDim), v(k.size());
  for (size_t i = 0; i < k.size(); ++i) {
    k[i] = 1.0f + 0.125f * static_cast<float>(i % 64);
    v[i] = -3.0f + 0.125f * static_cast<float>(i % 64);
  }
  kv.AppendTokens(seq, k.data(), v.data(), kPage);
  const int64_t page = kv.SequencePages(seq)[0];

  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/true};
  PageCodecStats st;
  const auto blob = EncodePage(kv.PageData(page), static_cast<size_t>(kv.PageElems()),
                               DType::kF16, codec, &st);
  EXPECT_EQ(st.logical_bytes, kv.PageBytes());
  EXPECT_LT(st.stored_bytes, st.logical_bytes);
  EXPECT_GT(st.mse, 0.0);
  std::vector<half_t> out(static_cast<size_t>(kv.PageElems()));
  DecodePage(blob.data(), blob.size(), reinterpret_cast<std::byte*>(out.data()), out.size(),
             DType::kF16);
  // Values come back within the int8 step of the page range.
  for (int slot = 0; slot < kPage; ++slot) {
    for (int h = 0; h < kHeads; ++h) {
      for (int d = 0; d < kDim; ++d) {
        const size_t row = (static_cast<size_t>(slot) * kHeads + h) * kDim + d;
        const size_t k_at = (static_cast<size_t>(h) * kPage + slot) * kDim + d;
        const size_t v_at = (static_cast<size_t>(kHeads + h) * kPage + slot) * kDim + d;
        EXPECT_NEAR(ToFloat(out[k_at]), k[row], 0.05f);
        EXPECT_NEAR(ToFloat(out[v_at]), v[row], 0.05f);
      }
    }
  }
}

// --- Page codec table --------------------------------------------------------

/// The filled slots of the SyntheticKv page the table encodes at `fill`,
/// laid out by hand as [K/V][head][slot][dim] f16.
std::vector<half_t> SyntheticPage(int heads, int dim, int fill) {
  std::vector<float> k(static_cast<size_t>(kPage) * heads * dim), v(k.size());
  Rng rng(kSyntheticKvSeed);
  SyntheticKv(rng, kPage, heads, dim, k.data(), v.data());
  std::vector<half_t> page(2 * static_cast<size_t>(heads) * fill * dim);
  for (int kv = 0; kv < 2; ++kv) {
    for (int h = 0; h < heads; ++h) {
      for (int slot = 0; slot < fill; ++slot) {
        for (int d = 0; d < dim; ++d) {
          const size_t src = (static_cast<size_t>(slot) * heads + h) * dim + d;
          page[((static_cast<size_t>(kv) * heads + h) * fill + slot) * dim + d] =
              half_t(kv == 0 ? k[src] : v[src]);
        }
      }
    }
  }
  return page;
}

TEST(PageCodecTable, LevelsAreEncodedSyntheticPages) {
  // The model's per-shard page: 8 KV heads x 128 dims, f16, 16 tokens.
  constexpr int kHeads = 8, kDim = 128;
  const KvCodecConfig codec{KvQuantFormat::kInt8, /*compress=*/true};
  const PageCodecTable& t = PageCodecTableFor(DType::kF16, kHeads, kDim, kPage, codec);
  EXPECT_EQ(&t, &PageCodecTableFor(DType::kF16, kHeads, kDim, kPage, codec));
  const size_t elems = 2u * kHeads * kPage * kDim;
  EXPECT_EQ(t.page_bytes(), static_cast<int64_t>(elems * 2));
  EXPECT_EQ(t.bound_bytes, static_cast<int64_t>(EncodedPageBound(elems, DType::kF16, codec)));
  ASSERT_EQ(t.page_size(), kPage);
  for (int fill = 1; fill <= kPage; ++fill) {
    SCOPED_TRACE("fill=" + std::to_string(fill));
    const auto page = SyntheticPage(kHeads, kDim, fill);
    PageCodecStats st;
    EncodePage(reinterpret_cast<const std::byte*>(page.data()), page.size(), DType::kF16,
               codec, &st);
    const size_t level = static_cast<size_t>(fill - 1);
    EXPECT_EQ(t.logical_bytes[level], st.logical_bytes);
    EXPECT_EQ(t.stored_bytes[level], st.stored_bytes);
    EXPECT_EQ(t.mse[level], st.mse);
    EXPECT_LE(st.stored_bytes, t.bound_bytes);
  }
  // Per-block int8 pays off at the full head dimension: a full page stores
  // under 0.52 of its bytes.
  EXPECT_LT(static_cast<double>(t.stored_bytes.back()) / static_cast<double>(t.page_bytes()),
            0.52);
  // Whole pages at the top level, a partial tail at its fill.
  EXPECT_EQ(t.StoredBytes(2 * kPage + 3), 2 * t.stored_bytes.back() + t.stored_bytes[2]);
  EXPECT_EQ(t.LogicalBytes(2 * kPage + 3), (2 * kPage + 3) * t.page_bytes() / kPage);
  EXPECT_EQ(t.MseSum(kPage), t.mse.back());
}

TEST(PageCodecTable, ConcurrentFirstLookupsShareOneTable) {
  // Engines on several threads may ask for a key before anyone built it.
  const KvCodecConfig codec{KvQuantFormat::kFp8E4M3, /*compress=*/true};
  std::vector<const PageCodecTable*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back(
        [&got, &codec, i] { got[i] = &PageCodecTableFor(DType::kBF16, 3, 40, kPage, codec); });
  }
  for (auto& t : threads) t.join();
  for (const PageCodecTable* t : got) EXPECT_EQ(t, got[0]);
  EXPECT_EQ(got[0]->page_size(), kPage);
}

TEST(PageCodecTable, CodecOffStoresRawPages) {
  // The raw tier's fixed slots hold a whole page at every fill.
  const PageCodecTable& t = PageCodecTableFor(DType::kF16, 2, 8, kPage, KvCodecConfig{});
  EXPECT_EQ(t.page_bytes(), 2 * 2 * kPage * 8 * 2);
  EXPECT_EQ(t.bound_bytes, t.page_bytes());
  for (int fill = 1; fill <= kPage; ++fill) {
    const size_t level = static_cast<size_t>(fill - 1);
    EXPECT_EQ(t.logical_bytes[level], t.page_bytes());
    EXPECT_EQ(t.stored_bytes[level], t.page_bytes());
    EXPECT_EQ(t.mse[level], 0.0);
  }
  EXPECT_EQ(t.StoredBytes(kPage + 1), 2 * t.page_bytes());
}

}  // namespace
}  // namespace flashinfer

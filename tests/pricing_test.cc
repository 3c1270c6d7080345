// Bit-identity of the serving attention pricer.
//
// SimulateBatchAttention derives block rows straight from the step's
// lengths and charges Algorithm 1's chunks to their CTAs in assignment
// order.
// The reference (test_util.h) builds fake page tables and the batch BSR,
// materializes the backend's Plan and walks it. Over thousands of seeded
// batches both must agree to the last bit on the launch time, every
// byte/flop total, the grid and each CTA's time.
#include <gtest/gtest.h>

#include <tuple>

#include "serving/backends.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using serving::AttnSimInput;
using serving::BackendConfig;

AttnSimInput RandomGeometry(Rng& rng) {
  AttnSimInput in;
  in.num_kv_heads = 1 << rng.UniformInt(0, 3);
  in.num_qo_heads = in.num_kv_heads << rng.UniformInt(0, 3);
  in.head_dim = rng.NextDouble() < 0.5 ? 128 : (rng.NextDouble() < 0.5 ? 64 : 256);
  const int pages[] = {1, 8, 16, 32};
  // Single-token pages make the reference's BSR huge; keep them rare.
  in.page_size = rng.NextDouble() < 0.1 ? 1 : pages[rng.UniformInt(1, 3)];
  in.causal = rng.NextDouble() < 0.7;
  in.kv_l2_fraction = rng.NextDouble() < 0.3 ? rng.Uniform(0.0, 0.6) : 0.0;
  if (rng.NextDouble() < 0.1) {
    const int tiles[] = {1, 16, 32, 64, 128};
    in.tile_q_override = tiles[rng.UniformInt(0, 4)];
  }
  if (rng.NextDouble() < 0.1) in.force_template = static_cast<int>(rng.UniformInt(2, 3));
  in.force_dense = rng.NextDouble() < 0.1;
  return in;
}

BackendConfig RandomBackend(Rng& rng) {
  BackendConfig b;
  switch (rng.UniformInt(0, 3)) {
    case 0:
      b = serving::FlashInferBackend();
      break;
    case 1:
      b = serving::TritonBackend();
      break;
    case 2:
      b = serving::FlashAttentionBackend();
      break;
    default:
      b = serving::VllmDefaultBackend();
  }
  const double u = rng.NextDouble();
  b.scheduler = u < 0.6   ? SchedulerKind::kBalanced
                : u < 0.8 ? SchedulerKind::kNaive
                          : SchedulerKind::kFixedSplit;
  b.head_fusion = rng.NextDouble() < 0.75;
  b.kv_dtype = rng.NextDouble() < 0.25 ? DType::kFP8_E4M3 : DType::kF16;
  b.packed_tiles = rng.NextDouble() < 0.3;
  b.composable = rng.NextDouble() < 0.3;
  return b;
}

TEST(Pricing, MatchesPlanWalkOnRandomBatches) {
  const auto h100 = gpusim::H100Sxm80GB();
  const auto a100 = gpusim::A100Sxm40GB();
  Rng rng(0x51CE0001);
  // Coverage of the axes the pricer branches on.
  int unfused = 0, non_causal = 0, fp8 = 0, grouped = 0, l2 = 0, zero_rows = 0;
  int naive = 0, fixed = 0, packed_won = 0;
  for (int trial = 0; trial < 2500; ++trial) {
    const auto& dev = rng.NextDouble() < 0.75 ? h100 : a100;
    const BackendConfig backend = RandomBackend(rng);
    const AttnSimInput in =
        test::RandomAttnBatch(rng, RandomGeometry(rng), backend.composable);

    const auto got = serving::SimulateBatchAttention(dev, backend, in);
    const auto want = test::ReferenceSimulateBatchAttention(dev, backend, in);
    ASSERT_EQ(test::ReportDiff(got, want), "") << "trial " << trial;

    unfused += !backend.head_fusion;
    non_causal += !in.causal;
    fp8 += backend.kv_dtype == DType::kFP8_E4M3;
    grouped += backend.composable && !in.groups.empty();
    l2 += in.kv_l2_fraction > 0.0;
    zero_rows += std::count(in.qo_lens.begin(), in.qo_lens.end(), 0) > 0;
    naive += backend.scheduler == SchedulerKind::kNaive;
    fixed += backend.scheduler == SchedulerKind::kFixedSplit;
    if (backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0) {
      const auto plain = test::ReferencePriceSingleFormat(dev, backend, in, in.qo_lens,
                                                          in.kv_lens);
      packed_won += got.time_us < plain.time_us;
    }
  }
  EXPECT_GT(unfused, 200);
  EXPECT_GT(non_causal, 200);
  EXPECT_GT(fp8, 200);
  EXPECT_GT(grouped, 200);
  EXPECT_GT(l2, 200);
  EXPECT_GT(zero_rows, 200);
  EXPECT_GT(naive, 200);
  EXPECT_GT(fixed, 200);
  EXPECT_GT(packed_won, 20);
}

/// A random ancestor-style mask: every token sees itself and a random
/// subset of earlier tokens.
std::vector<std::vector<bool>> RandomTreeMask(Rng& rng, int n) {
  std::vector<std::vector<bool>> mask(static_cast<size_t>(n),
                                      std::vector<bool>(static_cast<size_t>(n), false));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) mask[i][j] = rng.NextDouble() < 0.5;
    mask[i][i] = true;
  }
  return mask;
}

TEST(Pricing, MaskedMatchesPlanWalkOnRandomMasks) {
  const auto dev = gpusim::H100Sxm80GB();
  Rng rng(0x51CE0002);
  for (int trial = 0; trial < 500; ++trial) {
    const BackendConfig backend = RandomBackend(rng);
    AttnSimInput in = RandomGeometry(rng);
    const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    const int tiles[] = {1, 16, 32, 64};
    const int tile_q = tiles[rng.UniformInt(0, 3)];
    const auto unit = sparse::BsrFromDenseMask(
        sparse::ExpandMaskRows(RandomTreeMask(rng, n), g), tile_q,
        static_cast<int>(rng.UniformInt(1, 4)));
    const int batch = static_cast<int>(rng.UniformInt(1, 16));
    const auto bsr = sparse::TileBsrDiagonal(unit, batch);
    const std::vector<int64_t> lens(static_cast<size_t>(batch), n);

    const auto got = serving::SimulateMaskedAttention(dev, backend, in, bsr, lens, lens);
    const auto want =
        test::ReferenceSimulateMaskedAttention(dev, backend, in, bsr, lens, lens);
    ASSERT_EQ(test::ReportDiff(got, want), "") << "trial " << trial;
  }
}

TEST(Pricing, ClosedFormReuseMatchesMapDefinitionOnSparseBsrs) {
  // BSRs whose rows read less than the request's KV (RowKvLen != kv_len):
  // pruned page selections and dense masks.
  Rng rng(0x51CE0003);
  int nonzero = 0;
  for (int trial = 0; trial < 400; ++trial) {
    AttentionParams p;
    p.num_kv_heads = static_cast<int>(1 << rng.UniformInt(0, 2));
    p.num_qo_heads = p.num_kv_heads << rng.UniformInt(0, 2);
    p.head_fusion = rng.NextDouble() < 0.6;
    p.variant.causal = rng.NextDouble() < 0.5;
    const int fuse = p.head_fusion ? p.GroupSize() : 1;
    const int tile_q = static_cast<int>(rng.UniformInt(1, 16));
    const int page_size = static_cast<int>(rng.UniformInt(1, 8));
    const int num_reqs = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<int64_t> qo_lens, kv_lens;
    for (int r = 0; r < num_reqs; ++r) {
      qo_lens.push_back(rng.UniformInt(0, 20));
      kv_lens.push_back(qo_lens.back() + rng.UniformInt(1, 60));
    }
    std::vector<int64_t> fused(qo_lens);
    for (auto& l : fused) l *= fuse;
    if (std::accumulate(fused.begin(), fused.end(), int64_t{0}) == 0) continue;

    sparse::BsrMatrix bsr;
    if (rng.NextDouble() < 0.5) {
      const auto pages = test::FakePages(kv_lens, page_size);
      std::vector<std::vector<int>> selected(pages.size());
      for (size_t r = 0; r < pages.size(); ++r) {
        for (size_t i = 0; i < pages[r].pages.size(); ++i) {
          if (rng.NextDouble() < 0.5) selected[r].push_back(static_cast<int>(i));
        }
      }
      bsr = sparse::BuildPrunedBsr(BuildIndptr(fused), pages, selected, page_size, tile_q);
    } else {
      // One dense mask over the whole fused batch; columns span the longest
      // request's KV.
      const int64_t rows = std::accumulate(fused.begin(), fused.end(), int64_t{0});
      const int64_t cols = *std::max_element(kv_lens.begin(), kv_lens.end());
      std::vector<std::vector<bool>> mask(static_cast<size_t>(rows),
                                          std::vector<bool>(static_cast<size_t>(cols)));
      for (auto& row : mask) {
        for (size_t c = 0; c < row.size(); ++c) row[c] = rng.NextDouble() < 0.3;
      }
      bsr = sparse::BsrFromDenseMask(mask, tile_q, page_size);
    }
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(qo_lens);
    p.kv_len = kv_lens;

    const double want = test::MapKvReuseFraction(p);
    EXPECT_EQ(IntraBatchKvReuseFraction(p), want) << "trial " << trial;
    nonzero += want > 0.0;
  }
  EXPECT_GT(nonzero, 100);
}

/// Algorithm 1 unit by unit, as the paper states it: chunk every work unit,
/// sort all chunks by descending cost (ties in (block_row, kv_head, qo_head,
/// kv_begin) order), assign longest-first to the least-loaded CTA.
std::vector<std::vector<WorkItem>> ReferenceBalancedQueues(const AttentionParams& p,
                                                           int tile_kv, int num_ctas) {
  const auto units = EnumerateWorkUnits(p);
  int64_t total_kv = 0;
  for (const auto& u : units) total_kv += u.kv_len;
  int64_t lkv = (total_kv + num_ctas - 1) / num_ctas;
  lkv = std::max<int64_t>((lkv + tile_kv - 1) / tile_kv * tile_kv, tile_kv);
  std::vector<std::pair<WorkItem, int>> chunks;  // (item, rows)
  int32_t next_partial = 0;
  for (const auto& u : units) {
    const int64_t n = u.kv_len <= lkv ? 1 : (u.kv_len + lkv - 1) / lkv;
    for (int64_t k = 0; k < n; ++k) {
      const int64_t lo = k * lkv;
      const int32_t dest = n == 1 ? -1 : next_partial;
      if (n > 1) next_partial += u.rows;
      chunks.push_back({WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, lo,
                                 std::min(u.kv_len, lo + lkv), dest},
                        u.rows});
    }
  }
  auto cost = [](const std::pair<WorkItem, int>& c) {
    return static_cast<double>(c.second) + static_cast<double>(c.first.kv_end - c.first.kv_begin);
  };
  std::sort(chunks.begin(), chunks.end(), [&](const auto& a, const auto& b) {
    if (cost(a) != cost(b)) return cost(a) > cost(b);
    return std::tie(a.first.block_row, a.first.kv_head, a.first.qo_head, a.first.kv_begin) <
           std::tie(b.first.block_row, b.first.kv_head, b.first.qo_head, b.first.kv_begin);
  });
  std::vector<std::vector<WorkItem>> queues(static_cast<size_t>(num_ctas));
  std::vector<double> load(static_cast<size_t>(num_ctas), 0.0);
  for (const auto& c : chunks) {
    const size_t cta = static_cast<size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    queues[cta].push_back(c.first);
    load[cta] += cost(c);
  }
  return queues;
}

bool SameItem(const WorkItem& a, const WorkItem& b) {
  return std::tie(a.block_row, a.request, a.kv_head, a.qo_head, a.kv_begin, a.kv_end, a.dest) ==
         std::tie(b.block_row, b.request, b.kv_head, b.qo_head, b.kv_begin, b.kv_end, b.dest);
}

TEST(Pricing, BalancedPlanMatchesUnitByUnitAlgorithm1) {
  // The shared Algorithm 1 sorts per block row and expands heads afterwards;
  // its queues must equal the unit-by-unit statement exactly.
  Rng rng(0x51CE0005);
  for (int trial = 0; trial < 300; ++trial) {
    AttentionParams p;
    p.num_kv_heads = static_cast<int>(1 << rng.UniformInt(0, 3));
    p.num_qo_heads = p.num_kv_heads << rng.UniformInt(0, 2);
    p.head_fusion = rng.NextDouble() < 0.6;
    p.variant.causal = rng.NextDouble() < 0.5;
    const int fuse = p.head_fusion ? p.GroupSize() : 1;
    std::vector<int64_t> qo_lens, kv_lens;
    for (int r = static_cast<int>(rng.UniformInt(1, 24)); r > 0; --r) {
      qo_lens.push_back(rng.NextDouble() < 0.7 ? 1 : rng.UniformInt(0, 80));
      // Repeated lengths make equal-cost chunks across rows and heads.
      kv_lens.push_back(qo_lens.back() + 64 * rng.UniformInt(0, 12) + rng.UniformInt(0, 1));
    }
    qo_lens[0] = std::max<int64_t>(qo_lens[0], 1);
    std::vector<int64_t> fused(qo_lens);
    for (auto& l : fused) l *= fuse;
    const int tile_q = static_cast<int>(1 << rng.UniformInt(0, 5));
    const auto bsr = sparse::BuildBatchBsr(BuildIndptr(fused), test::FakePages(kv_lens, 16),
                                           16, tile_q);
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(qo_lens);
    p.kv_len = kv_lens;
    KernelConfig cfg;
    cfg.tile_q = tile_q;
    cfg.tile_kv = static_cast<int>(32 << rng.UniformInt(0, 2));
    const int num_ctas = static_cast<int>(rng.UniformInt(1, 140));

    const auto plan = MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40);
    const auto want = ReferenceBalancedQueues(p, cfg.tile_kv, num_ctas);
    ASSERT_EQ(plan.cta_queues.size(), want.size());
    for (size_t c = 0; c < want.size(); ++c) {
      ASSERT_EQ(plan.cta_queues[c].size(), want[c].size()) << "trial " << trial << " cta " << c;
      for (size_t i = 0; i < want[c].size(); ++i) {
        ASSERT_TRUE(SameItem(plan.cta_queues[c][i], want[c][i]))
            << "trial " << trial << " cta " << c << " item " << i;
      }
    }
  }
}

TEST(Pricing, LengthRowsMatchPagedBsrRows) {
  // The lengths-derived block rows are the paged batch BSR's, causal trim
  // included.
  Rng rng(0x51CE0004);
  for (int trial = 0; trial < 300; ++trial) {
    AttentionParams p;
    p.num_kv_heads = 2;
    p.num_qo_heads = 2 << rng.UniformInt(0, 2);
    p.head_fusion = rng.NextDouble() < 0.5;
    p.variant.causal = rng.NextDouble() < 0.5;
    const int fuse = p.head_fusion ? p.GroupSize() : 1;
    const int tile_q = static_cast<int>(rng.UniformInt(1, 32));
    std::vector<int64_t> qo_lens, kv_lens;
    for (int r = static_cast<int>(rng.UniformInt(1, 8)); r > 0; --r) {
      qo_lens.push_back(rng.UniformInt(0, 40));
      kv_lens.push_back(qo_lens.back() + rng.UniformInt(0, 100));
    }
    std::vector<int64_t> fused(qo_lens);
    for (auto& l : fused) l *= fuse;
    const auto bsr = sparse::BuildBatchBsr(BuildIndptr(fused), test::FakePages(kv_lens, 4),
                                           4, tile_q);
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(qo_lens);
    p.kv_len = kv_lens;

    std::vector<BlockRowShape> rows;
    BlockRowsFromLengths(qo_lens, kv_lens, fuse, tile_q, p.variant.causal, &rows);
    const auto want = BlockRowsFromBsr(p);
    ASSERT_EQ(rows.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].request, want[i].request) << "trial " << trial << " row " << i;
      EXPECT_EQ(rows[i].rows, want[i].rows) << "trial " << trial << " row " << i;
      EXPECT_EQ(rows[i].kv_len, want[i].kv_len) << "trial " << trial << " row " << i;
    }
  }
}

}  // namespace
}  // namespace flashinfer

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

#include <bit>
#include <map>
#include <optional>

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
    ASSERT_EQ(test::TimeOnlyDiff(serving::BatchAttentionTimeUs(dev, backend, in), got), "")
        << "trial " << trial;

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

TEST(Pricing, BalancedPlanMatchesUnitByUnitAlgorithm1) {
  // The shared Algorithm 1 sorts per block row, expands heads afterwards and
  // places each run of equal-cost chunks at once, with a direct first round
  // and then over classes of CTAs with equal loads; its queues must equal
  // the unit-by-unit statement exactly. Cost weights include zero (alpha =
  // beta = 0 makes every chunk free, so the direct round must step aside at
  // once) and 2^-60 (a positive cost that leaves a load unchanged, so the
  // least class's lowest index takes the whole run), and grids straddle
  // the class bitsets' 64-bit words. The reference's own loads count the
  // class edge cases the trials reach. Trials fall on both sides of the
  // key count where the sort switches from std::sort to the radix sort; on
  // the radix side the 2^-60 weight makes costs that differ only in their
  // low mantissa bytes, and equal costs from different block rows check
  // that the sort is stable.
  Rng rng(0x51CE0005);
  const double weights[] = {1.0, 0.0, 0.25, 8.0, 0x1p-60};
  const int boundary_ctas[] = {1, 2, 127, 128, 129, 255, 256, 257};
  std::map<int, int> boundary_hits;
  int all_free = 0, free_after_paid = 0, past_first_round = 0, within_first_round = 0;
  // Trials whose reference runs reached each class edge case.
  int outlast_least = 0, land_on_held_load = 0, keep_load = 0, single_cta_moves = 0;
  // Trials on each side of kRadixSortMinKeys, and radix-sorted ones whose
  // costs differ only in their low four bytes (beta = 2^-60 over tiles of
  // equal rows) or that tie keys from different block rows.
  int std_sorted = 0, radix_sorted = 0, radix_low_bytes_only = 0, radix_cross_row_ties = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    AttentionParams p;
    p.num_kv_heads = static_cast<int>(1 << rng.UniformInt(0, 3));
    p.num_qo_heads = p.num_kv_heads << rng.UniformInt(0, 2);
    p.head_fusion = rng.NextDouble() < 0.6;
    p.variant.causal = rng.NextDouble() < 0.5;
    const int fuse = p.head_fusion ? p.GroupSize() : 1;
    std::vector<int64_t> qo_lens, kv_lens;
    bool reads_no_kv = false;
    for (int r = static_cast<int>(rng.UniformInt(1, 24)); r > 0; --r) {
      qo_lens.push_back(rng.NextDouble() < 0.7 ? 1 : rng.UniformInt(0, 80));
      // Repeated lengths make equal-cost chunks across rows and heads. A few
      // rows read no KV: with alpha = 0 their chunks are free and come last.
      const bool empty = rng.NextDouble() < 0.05;
      kv_lens.push_back(empty ? 0
                              : qo_lens.back() + 64 * rng.UniformInt(0, 12) +
                                    rng.UniformInt(0, 1));
      reads_no_kv |= empty && qo_lens.back() > 0;
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
    const int num_ctas = rng.NextDouble() < 0.3
                             ? boundary_ctas[rng.UniformInt(0, 7)]
                             : static_cast<int>(rng.UniformInt(1, 300));
    const double alpha = weights[rng.UniformInt(0, 4)];
    const double beta = weights[rng.UniformInt(0, 4)];

    test::ReferenceRunStats trial_runs;
    ASSERT_EQ(test::BalancedQueuesDiff(p, cfg, num_ctas, alpha, beta, &trial_runs), "")
        << "trial " << trial << " ctas " << num_ctas << " alpha " << alpha << " beta "
        << beta;

    outlast_least += trial_runs.outlast_least > 0;
    land_on_held_load += trial_runs.land_on_held_load > 0;
    keep_load += trial_runs.keep_load > 0;
    single_cta_moves += num_ctas == 1 && trial_runs.moves > 0;
    ++boundary_hits[num_ctas];
    all_free += alpha == 0.0 && beta == 0.0;
    free_after_paid += alpha == 0.0 && beta > 0.0 && reads_no_kv;
    const Plan plan = MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40);
    const int64_t items = plan.NumWorkItems();
    past_first_round += items > num_ctas;
    within_first_round += items < num_ctas;
    // Every head of a block row has the same chunks: one sort key each.
    const int64_t keys = items / (p.head_fusion ? p.num_kv_heads : p.num_qo_heads);
    if (keys < static_cast<int64_t>(kRadixSortMinKeys)) {
      ++std_sorted;
    } else {
      ++radix_sorted;
      const auto shapes = BlockRowsFromBsr(p);
      // Bits in which some chunk's cost differs from the first one's.
      std::optional<uint64_t> first;
      uint64_t differ = 0;
      for (const auto& queue : plan.cta_queues) {
        for (const auto& it : queue) {
          const double cost = alpha * shapes[static_cast<size_t>(it.block_row)].rows +
                              beta * static_cast<double>(it.kv_end - it.kv_begin);
          if (!first) first = std::bit_cast<uint64_t>(cost);
          differ |= std::bit_cast<uint64_t>(cost) ^ *first;
        }
      }
      radix_low_bytes_only += differ != 0 && differ >> 32 == 0;
      radix_cross_row_ties += trial_runs.cross_row_ties > 0;
    }
  }
  for (int n : {128, 129, 256, 257}) EXPECT_GT(boundary_hits[n], 5) << n << " CTAs";
  EXPECT_GT(all_free, 20);
  EXPECT_GT(free_after_paid, 5);
  EXPECT_GT(past_first_round, 100);
  EXPECT_GT(within_first_round, 50);
  EXPECT_GT(outlast_least, 350);
  EXPECT_GT(land_on_held_load, 150);
  EXPECT_GT(keep_load, 20);
  // One CTA: every move creates its target class while the emptied one is
  // still live.
  EXPECT_GT(single_cta_moves, 15);
  EXPECT_GT(std_sorted, 150);
  EXPECT_GT(radix_sorted, 350);
  EXPECT_GT(radix_low_bytes_only, 10);
  EXPECT_GT(radix_cross_row_ties, 300);
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

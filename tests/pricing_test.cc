// Bit-identity of the serving attention pricer.
//
// SimulateBatchAttention derives block rows straight from the step's
// lengths and charges Algorithm 1's chunks to their CTAs in assignment
// order.
// The reference (test_util.h) builds fake page tables and the batch BSR,
// materializes the backend's Plan and walks it. Over thousands of seeded
// batches both must agree to the last bit on the launch time, every
// byte/flop total, the grid and each CTA's time. Stepped decode batches
// also exercise the key order each thread reuses from its previous call,
// and verify launches the mask rows lowered once and repeated per branch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>
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

TEST(Pricing, VerifyMatchesPlanWalkOnRandomMasks) {
  // Verify launches over random masks lowered once to one request's block
  // rows and repeated per branch; the reference tiles the mask's BSR over
  // the batch and walks the plans of both levels.
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
    std::vector<int64_t> context_lens(static_cast<size_t>(batch));
    for (auto& len : context_lens) len = rng.UniformInt(1, 1024);

    const auto mask = serving::MaskRowsFromBsr(unit, n);
    const auto got = serving::SimulateVerifyAttention(dev, backend, in, mask, context_lens);
    const auto want =
        test::ReferenceSimulateVerifyAttention(dev, backend, in, unit, n, context_lens);
    ASSERT_EQ(test::ReportDiff(got, want), "") << "trial " << trial;
    ASSERT_EQ(test::TimeOnlyDiff(
                  serving::VerifyAttentionTimeUs(dev, backend, in, mask, context_lens), got),
              "")
        << "trial " << trial;
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
  // the unit-by-unit statement exactly. Grids straddle the class bitsets'
  // 64-bit words. The reference's own loads count the class edge cases the
  // trials reach. Trials fall on both sides of the key count where the sort
  // switches from std::sort to the radix sort; on the radix side, costs
  // that differ only in their lowest byte take a single pass, and equal
  // costs from different block rows check that the sort is stable. The
  // schedule places groups of gcd(#CTAs, heads) CTAs, single CTAs where
  // that gcd is 1; trials reach both.
  Rng rng(0x51CE0005);
  const int boundary_ctas[] = {1, 2, 127, 128, 129, 255, 256, 257};
  std::map<int, int> boundary_hits;
  int past_first_round = 0, within_first_round = 0;
  // Trials whose reference runs reached each class edge case.
  int outlast_least = 0, land_on_held_load = 0, single_cta_moves = 0;
  // Trials on each side of kRadixSortMinKeys, and radix-sorted ones whose
  // costs differ only in their lowest byte or that tie keys from different
  // block rows.
  int std_sorted = 0, radix_sorted = 0, radix_low_byte_only = 0, radix_cross_row_ties = 0;
  // Trials placing groups of g > 1 CTAs, and single CTAs because the grid
  // shares no factor with the heads.
  int grouped = 0, coprime = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    AttentionParams p;
    p.num_kv_heads = static_cast<int>(1 << rng.UniformInt(0, 3));
    p.num_qo_heads = p.num_kv_heads << rng.UniformInt(0, 2);
    p.head_fusion = rng.NextDouble() < 0.6;
    p.variant.causal = rng.NextDouble() < 0.5;
    const int fuse = p.head_fusion ? p.GroupSize() : 1;
    std::vector<int64_t> qo_lens, kv_lens;
    for (int r = static_cast<int>(rng.UniformInt(1, 24)); r > 0; --r) {
      qo_lens.push_back(rng.NextDouble() < 0.7 ? 1 : rng.UniformInt(0, 80));
      // Repeated lengths make equal-cost chunks across rows and heads. A few
      // rows read no KV: their chunks cost their rows alone.
      const bool empty = rng.NextDouble() < 0.05;
      kv_lens.push_back(empty ? 0
                              : qo_lens.back() + 64 * rng.UniformInt(0, 12) +
                                    rng.UniformInt(0, 1));
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

    test::ReferenceRunStats trial_runs;
    ASSERT_EQ(test::BalancedQueuesDiff(p, cfg, num_ctas, &trial_runs), "")
        << "trial " << trial << " ctas " << num_ctas;

    const int num_heads = p.head_fusion ? p.num_kv_heads : p.num_qo_heads;
    const int gcd = std::gcd(num_ctas, num_heads);
    ChunkSchedule schedule;
    AssignmentList list(num_heads);
    ScheduleBalanced(BlockRowsFromBsr(p), num_heads, cfg.tile_kv, num_ctas, &schedule, list);
    ASSERT_EQ(schedule.cta_group, gcd) << "trial " << trial;
    grouped += gcd > 1;
    coprime += gcd == 1;

    outlast_least += trial_runs.outlast_least > 0;
    land_on_held_load += trial_runs.land_on_held_load > 0;
    single_cta_moves += num_ctas == 1 && trial_runs.moves > 0;
    ++boundary_hits[num_ctas];
    const Plan plan = MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40);
    const int64_t items = plan.NumWorkItems();
    past_first_round += items > num_ctas;
    within_first_round += items < num_ctas;
    // Every head of a block row has the same chunks: one sort key each.
    const int64_t keys = items / num_heads;
    if (keys < static_cast<int64_t>(kRadixSortMinKeys)) {
      ++std_sorted;
    } else {
      ++radix_sorted;
      const auto shapes = BlockRowsFromBsr(p);
      // Bits in which some chunk's cost differs from the first one's.
      std::optional<int64_t> first;
      int64_t differ = 0;
      for (const auto& queue : plan.cta_queues) {
        for (const auto& it : queue) {
          const int64_t cost = test::ChunkCost(shapes, it);
          if (!first) first = cost;
          differ |= cost ^ *first;
        }
      }
      radix_low_byte_only += differ != 0 && differ >> 8 == 0;
      radix_cross_row_ties += trial_runs.cross_row_ties > 0;
    }
  }
  for (int n : {128, 129, 256, 257}) EXPECT_GT(boundary_hits[n], 5) << n << " CTAs";
  EXPECT_GT(past_first_round, 100);
  EXPECT_GT(within_first_round, 50);
  EXPECT_GT(outlast_least, 350);
  EXPECT_GT(land_on_held_load, 150);
  // One CTA: every move creates its target class while the emptied one is
  // still live.
  EXPECT_GT(single_cta_moves, 15);
  EXPECT_GT(std_sorted, 150);
  EXPECT_GT(radix_sorted, 350);
  EXPECT_GT(radix_low_byte_only, 50);
  EXPECT_GT(radix_cross_row_ties, 300);
  EXPECT_GT(grouped, 200);
  EXPECT_GT(coprime, 400);
}

TEST(Pricing, DecodeStepsMatchReferenceWhileReusingKeyOrder) {
  // One decode batch stepped as the engine steps it: every row gains a KV
  // token per step. A call whose per-row chunk counts equal the previous
  // call's insertion-sorts that call's key order with the new costs. Over
  // 300 steps Lkv grows from 1536 in 64-token tile steps while the rows keep
  // their chunk counts, so reuse must reorder keys, and rows cross chunk
  // boundaries, so it must also fall back to sorting afresh. On every step
  // the engine's time-only price must equal the full report, which must
  // equal the plan walk, and the balanced queues must equal the unit-by-unit
  // Algorithm 1.
  const auto dev = gpusim::H100Sxm80GB();
  const BackendConfig backend = serving::FlashInferBackend();
  AttnSimInput in;
  in.kv_lens = {9000, 770, 2000, 1850, 1400, 1360, 2330, 300, 2890, 1820, 1520, 1040};
  in.qo_lens.assign(in.kv_lens.size(), 1);
  const int num_heads = in.num_kv_heads;  // Head fusion.
  int64_t last_lkv = 0;
  std::vector<int32_t> last_chunks;
  int lkv_moves_keeping_chunks = 0, chunk_count_changes = 0;
  for (int step = 0; step < 300; ++step) {
    const double time_us = serving::BatchAttentionTimeUs(dev, backend, in);
    const auto report = serving::SimulateBatchAttention(dev, backend, in);
    ASSERT_EQ(test::TimeOnlyDiff(time_us, report), "") << "step " << step;
    ASSERT_EQ(test::ReportDiff(report, test::ReferenceSimulateBatchAttention(dev, backend, in)),
              "")
        << "step " << step;
    const test::ReferenceLaunch launch(dev, backend, in, in.qo_lens, in.kv_lens);
    ASSERT_EQ(test::BalancedQueuesDiff(launch.p, launch.cfg, dev.num_sms), "")
        << "step " << step;

    ChunkSchedule s;
    AssignmentList list(num_heads);
    ScheduleBalanced(BlockRowsFromBsr(launch.p), num_heads, launch.cfg.tile_kv, dev.num_sms, &s,
                     list);
    std::vector<int32_t> chunks;
    for (const auto& split : s.splits) chunks.push_back(split.num_chunks);
    if (step > 0) {
      lkv_moves_keeping_chunks += s.lkv_chunk != last_lkv && chunks == last_chunks;
      chunk_count_changes += chunks != last_chunks;
    }
    last_lkv = s.lkv_chunk;
    last_chunks = chunks;
    for (auto& kv : in.kv_lens) ++kv;
  }
  EXPECT_EQ(lkv_moves_keeping_chunks, 3);
  EXPECT_EQ(chunk_count_changes, 3);
}

TEST(Pricing, ReversedKeyOrderFallsBackToTheFullSort) {
  // Rows with the previous call's chunk counts but reversed costs: the
  // reused key order is exactly backwards, and insertion-sorting it would
  // take ~n^2/2 element moves. Past n moves the scheduler sorts afresh, so
  // the call costs about what a fresh sort costs; with n = 8192 an unbounded
  // insertion sort takes over 100x longer. One CTA keeps every row unsplit
  // and lists the chunks in sorted order.
  constexpr int kRows = 8192;
  std::vector<BlockRowShape> ascending, descending;
  for (int32_t i = 0; i < kRows; ++i) {
    ascending.push_back({i, 1, 100 + i});
    descending.push_back({i, 1, 100 + kRows - i});
  }
  const std::vector<BlockRowShape> fewer(ascending.begin(), ascending.end() - 1);
  ChunkSchedule s;
  AssignmentList list(/*num_heads=*/1);
  auto schedule = [&](const std::vector<BlockRowShape>& rows) {
    ScheduleBalanced(rows, /*num_heads=*/1, /*tile_kv=*/16, /*num_ctas=*/1, &s, list);
  };
  auto sorted_rows = [&] {
    std::vector<int32_t> order;
    for (const auto& a : list.assignments()) order.push_back(a.block_row);
    return order;
  };
  std::vector<int32_t> forward(kRows), backward(kRows);
  std::iota(forward.begin(), forward.end(), 0);
  std::iota(backward.rbegin(), backward.rend(), 0);

  schedule(ascending);
  ASSERT_EQ(sorted_rows(), backward);
  schedule(descending);
  ASSERT_EQ(sorted_rows(), forward);
  schedule(ascending);
  ASSERT_EQ(sorted_rows(), backward);

  // Shortest of 5 timings each, after a call with the same chunk counts
  // (reversed) or with one row fewer (a fresh sort).
  auto shortest_s = [&](const std::vector<BlockRowShape>& before) {
    double best = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      schedule(before);
      const auto t0 = std::chrono::steady_clock::now();
      schedule(descending);
      best = std::min(best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                                .count());
    }
    return best;
  };
  const double reversed = shortest_s(ascending);
  const double fresh = shortest_s(fewer);
  EXPECT_LT(reversed, 8.0 * fresh) << "reversed " << reversed << " s, fresh " << fresh << " s";
}

TEST(Pricing, EqualCostRunChargesEachChunksOwnTime) {
  // Row 0 reads exactly Lkv = 1024 tokens and stays unsplit; row 1 reads
  // 2 * Lkv and splits into two 1024-token chunks, its last one included.
  // The three keys share a cost (4 fused rows + 1024 tokens) and form the
  // first run, but an unsplit chunk writes its output through while a split
  // one writes a partial state, so their times differ. Every chunk lands
  // on its own CTA, and the split row's partial chunks set the makespan:
  // charging the whole run with its first chunk's time would lower it.
  const auto dev = gpusim::H100Sxm80GB();
  const BackendConfig backend = serving::FlashInferBackend();
  AttnSimInput in;
  in.kv_lens = {1024, 2048};
  for (int i = 0; i < 13; ++i) in.kv_lens.push_back(990 + i);
  in.qo_lens.assign(in.kv_lens.size(), 1);

  const test::ReferenceLaunch launch(dev, backend, in, in.qo_lens, in.kv_lens);
  ChunkSchedule s;
  AssignmentList list(in.num_kv_heads);
  ScheduleBalanced(BlockRowsFromBsr(launch.p), in.num_kv_heads, launch.cfg.tile_kv, dev.num_sms,
                   &s, list);
  ASSERT_EQ(s.lkv_chunk, 1024);
  ASSERT_EQ(s.splits[0].num_chunks, 1);
  ASSERT_EQ(s.splits[1].num_chunks, 2);
  // Row 0's 8 heads on CTAs 0-7, row 1's chunks on CTAs 8-23.
  const auto& assignments = list.assignments();
  ASSERT_EQ(assignments[0].cta, 0);
  ASSERT_EQ(assignments[8].block_row, 1);
  ASSERT_EQ(assignments[8].cta, 8);

  const auto report = serving::SimulateBatchAttention(dev, backend, in);
  ASSERT_EQ(test::ReportDiff(report, test::ReferenceSimulateBatchAttention(dev, backend, in)), "");
  EXPECT_LT(report.cta_time_us[0], report.cta_time_us[8]);
  EXPECT_EQ(*std::max_element(report.cta_time_us.begin(), report.cta_time_us.end()),
            report.cta_time_us[8]);
  EXPECT_EQ(test::TimeOnlyDiff(serving::BatchAttentionTimeUs(dev, backend, in), report), "");
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

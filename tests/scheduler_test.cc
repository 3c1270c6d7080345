#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <thread>

#include "runtime/scheduler.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::ProblemSpec;

ProblemSpec SkewedSpec() {
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1, 1, 1, 1, 1};
  spec.kv_lens = {400, 3, 5, 2, 7, 4, 6, 3};  // One giant, seven tiny.
  spec.num_qo_heads = 2;
  spec.num_kv_heads = 2;
  spec.page_size = 4;
  spec.tile_q = 1;
  return spec;
}

/// Collects (block_row, head, kv position) coverage from a plan.
std::map<std::tuple<int, int, int>, std::vector<std::pair<int64_t, int64_t>>> Coverage(
    const Plan& plan) {
  std::map<std::tuple<int, int, int>, std::vector<std::pair<int64_t, int64_t>>> cov;
  for (const auto& queue : plan.cta_queues) {
    for (const auto& item : queue) {
      cov[{item.block_row, item.kv_head, item.qo_head}].push_back(
          {item.kv_begin, item.kv_end});
    }
  }
  return cov;
}

TEST(BalancedPlan, CoversEveryUnitExactlyOnce) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeBalancedPlan(p, cfg, 8, 1 << 20);

  auto cov = Coverage(plan);
  const auto units = EnumerateWorkUnits(p);
  EXPECT_EQ(cov.size(), units.size());
  for (const auto& u : units) {
    auto ranges = cov.at({u.block_row, u.kv_head, u.qo_head});
    std::sort(ranges.begin(), ranges.end());
    // Ranges tile [0, kv_len) without gaps or overlaps.
    int64_t cursor = 0;
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, cursor);
      EXPECT_LT(lo, hi);
      cursor = hi;
    }
    EXPECT_EQ(cursor, u.kv_len);
  }
}

TEST(BalancedPlan, BalancesSkewedWork) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const int ctas = 8;
  const auto balanced = MakeBalancedPlan(p, cfg, ctas, 1 << 20);
  const auto naive = MakeNaivePlan(p, cfg);

  // Balanced: the 400-token request splits across CTAs, so the busiest CTA
  // carries far less than the whole request.
  const auto loads = test::CtaLoads(p, balanced);
  const auto naive_loads = test::CtaLoads(p, naive);
  const int64_t balanced_max = *std::max_element(loads.begin(), loads.end());
  EXPECT_LT(2 * balanced_max, *std::max_element(naive_loads.begin(), naive_loads.end()));
  // And the spread between busiest and idlest CTA is bounded by one chunk.
  EXPECT_LE(balanced_max - *std::min_element(loads.begin(), loads.end()),
            balanced.lkv_chunk + cfg.tile_q);
}

TEST(BalancedPlan, ChunkCapMatchesAlgorithmLine3) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const int ctas = 8;
  const auto plan = MakeBalancedPlan(p, cfg, ctas, 1 << 20);
  int64_t total_kv = 0;
  for (const auto& u : EnumerateWorkUnits(p)) total_kv += u.kv_len;
  const int64_t expect =
      ((total_kv + ctas - 1) / ctas + cfg.tile_kv - 1) / cfg.tile_kv * cfg.tile_kv;
  EXPECT_EQ(plan.lkv_chunk, expect);
  for (const auto& queue : plan.cta_queues) {
    for (const auto& item : queue) {
      EXPECT_LE(item.kv_end - item.kv_begin, plan.lkv_chunk);
    }
  }
}

TEST(BalancedPlan, Deterministic) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto a = MakeBalancedPlan(p, cfg, 6, 1 << 20);
  const auto b = MakeBalancedPlan(p, cfg, 6, 1 << 20);
  ASSERT_EQ(a.cta_queues.size(), b.cta_queues.size());
  for (size_t c = 0; c < a.cta_queues.size(); ++c) {
    ASSERT_EQ(a.cta_queues[c].size(), b.cta_queues[c].size());
    for (size_t i = 0; i < a.cta_queues[c].size(); ++i) {
      EXPECT_EQ(a.cta_queues[c][i].block_row, b.cta_queues[c][i].block_row);
      EXPECT_EQ(a.cta_queues[c][i].kv_begin, b.cta_queues[c][i].kv_begin);
      EXPECT_EQ(a.cta_queues[c][i].dest, b.cta_queues[c][i].dest);
    }
  }
  // Reduction maps identical too.
  ASSERT_EQ(a.rmap.tasks.size(), b.rmap.tasks.size());
  EXPECT_EQ(a.rmap.slots, b.rmap.slots);
}

TEST(BalancedPlan, WritethroughForUnsplitUnits) {
  // Uniform tiny requests: nothing splits, everything writes through.
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1};
  spec.kv_lens = {8, 8, 8, 8};
  spec.num_qo_heads = 2;
  spec.num_kv_heads = 2;
  spec.tile_q = 1;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 16;
  const auto plan = MakeBalancedPlan(p, cfg, 4, 1 << 20);
  EXPECT_EQ(plan.num_partial_rows, 0);
  EXPECT_TRUE(plan.rmap.Empty());
  for (const auto& q : plan.cta_queues) {
    for (const auto& it : q) EXPECT_EQ(it.dest, -1);
  }
}

TEST(BalancedPlan, PartialRowsWithinAppendixD3Bound) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  for (int ctas : {2, 4, 16, 64}) {
    const auto plan = MakeBalancedPlan(p, cfg, ctas, 1 << 30);
    EXPECT_LE(plan.num_partial_rows, 2LL * ctas * cfg.tile_q)
        << "ctas=" << ctas;
  }
}

TEST(BalancedPlan, ReductionMapBijective) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeBalancedPlan(p, cfg, 8, 1 << 20);

  // Every partial row appears in exactly one merge task.
  std::set<int32_t> seen;
  for (int32_t s : plan.rmap.slots) {
    EXPECT_TRUE(seen.insert(s).second) << "slot " << s << " referenced twice";
    EXPECT_LT(s, plan.num_partial_rows);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), plan.num_partial_rows);

  // No merge task targets an output also written through.
  std::set<std::pair<int64_t, int>> merged_outputs;
  for (const auto& t : plan.rmap.tasks) {
    EXPECT_TRUE(merged_outputs.insert({t.token_row, t.qo_head}).second);
  }
}

TEST(NaivePlan, OneCtaPerUnitNoSplits) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  const auto plan = MakeNaivePlan(p, cfg);
  EXPECT_EQ(plan.NumWorkItems(), static_cast<int64_t>(EnumerateWorkUnits(p).size()));
  EXPECT_EQ(plan.NumCtas(), static_cast<int>(plan.NumWorkItems()));
  EXPECT_TRUE(plan.rmap.Empty());
}

TEST(FixedSplitPlan, SplitsLongRequests) {
  auto prob = MakeProblem(SkewedSpec());
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  cfg.tile_kv = 4;
  const auto plan = MakeFixedSplitPlan(p, cfg, 8, 4, 1 << 20);
  auto cov = Coverage(plan);
  // The 400-token unit must be in 4 chunks; 3-token units in 1.
  bool found_long = false;
  for (const auto& [key, ranges] : cov) {
    int64_t total = 0;
    for (auto [lo, hi] : ranges) total += hi - lo;
    if (total == 400) {
      EXPECT_EQ(ranges.size(), 4u);
      found_long = true;
    }
    if (total == 3) {
      EXPECT_EQ(ranges.size(), 1u);
    }
  }
  EXPECT_TRUE(found_long);
}

TEST(EnumerateUnits, HeadFusionChangesMultiplicity) {
  ProblemSpec spec;
  spec.qo_lens = {2};
  spec.kv_lens = {8};
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 2;
  spec.tile_q = 16;

  spec.head_fusion = true;
  auto fused = MakeProblem(spec);
  auto pf = fused.Params();
  EXPECT_EQ(EnumerateWorkUnits(pf).size(), 2u * 1);  // kv heads x 1 tile.

  spec.head_fusion = false;
  auto unfused = MakeProblem(spec);
  auto pu = unfused.Params();
  EXPECT_EQ(EnumerateWorkUnits(pu).size(), 8u * 1);  // qo heads x 1 tile.
}

TEST(BalancedPlan, ZeroLengthKvHandled) {
  ProblemSpec spec;
  spec.qo_lens = {1, 1};
  spec.kv_lens = {0, 6};
  spec.num_qo_heads = 1;
  spec.num_kv_heads = 1;
  spec.tile_q = 1;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  const auto plan = MakeBalancedPlan(p, cfg, 2, 1 << 20);
  // Both units present; the empty one is a zero-width writethrough item.
  EXPECT_EQ(plan.NumWorkItems(), 2);
}

/// Lists the placements like AssignmentList, and counts the CTA words that
/// break PlacementSink's contract: an empty word, or a run whose words do
/// not hold exactly one group of g CTAs per g chunks.
class CheckedAssignmentList final : public PlacementSink {
 public:
  explicit CheckedAssignmentList(int num_heads) : num_heads_(num_heads), list_(num_heads) {}
  void Split(const ChunkSchedule& s) override {
    group = s.cta_group;
    list_.Split(s);
  }
  void Place(std::span<const ChunkKey> run, std::span<const CtaWord> ctas) override {
    size_t placed = 0;
    for (const CtaWord& w : ctas) {
      empty_words += w.ctas == 0;
      placed += static_cast<size_t>(std::popcount(w.ctas)) * static_cast<size_t>(group);
    }
    miscounted_runs += placed != run.size() * static_cast<size_t>(num_heads_);
    list_.Place(run, ctas);
  }
  const std::vector<ChunkAssignment>& assignments() const { return list_.assignments(); }

  int group = 0;  // The schedule's CTA group size.
  int empty_words = 0;
  int miscounted_runs = 0;

 private:
  int num_heads_;
  AssignmentList list_;
};

/// (block_row, head, chunk, cta) of every placement.
std::vector<std::array<int32_t, 4>> Placements(const std::vector<ChunkAssignment>& list) {
  std::vector<std::array<int32_t, 4>> out;
  for (const auto& a : list) out.push_back({a.block_row, a.head, a.chunk, a.cta});
  return out;
}

TEST(BalancedSchedule, RunsAfterAnExactlyFullFirstRoundJoinTheClasses) {
  // 132 / num_heads rows of distinct cost take one run each, and together
  // their chunks load every CTA of a 132-CTA grid (132 is not a multiple of
  // 64, so the grid's last word is partial). The next run must start
  // placing over the equal-load classes rather than open a first-round
  // class of no CTAs. Its rows cost less than half the first round's, so
  // that run's first move creates the class of a new load. Rows with no KV
  // end the batch at one row's cost each. The schedule places groups of
  // gcd(132, num_heads) = num_heads CTAs. A 4096-token KV tile keeps every
  // row unsplit, so Algorithm 1 is a least-loaded scan over (cost desc,
  // block_row, head). Each schedule runs on a fresh thread, whose scheduler
  // scratch this call alone sizes, so a sanitizer build sees any write past
  // the class pool.
  constexpr int kCtas = 132;
  for (int num_heads : {1, 2, 4}) {
    std::vector<BlockRowShape> rows;
    const int full_round = kCtas / num_heads;
    for (int i = 0; i < full_round; ++i) rows.push_back({0, 1, 1000 + i});
    for (int i = 0; i < 40; ++i) rows.push_back({0, 1, 300 + i % 20});
    for (int i = 0; i < 6; ++i) rows.push_back({0, 1, 0});
    for (int32_t i = 0; i < static_cast<int32_t>(rows.size()); ++i) rows[i].request = i;

    std::vector<std::array<int32_t, 4>> expected;  // Unit by unit.
    {
      struct Unit {
        int64_t cost;
        int32_t row, head;
      };
      std::vector<Unit> units;
      for (int32_t r = 0; r < static_cast<int32_t>(rows.size()); ++r) {
        for (int32_t h = 0; h < num_heads; ++h) {
          units.push_back({rows[r].rows + rows[r].kv_len, r, h});
        }
      }
      std::stable_sort(units.begin(), units.end(),
                       [](const Unit& a, const Unit& b) { return a.cost > b.cost; });
      std::vector<int64_t> load(kCtas, 0);
      for (const Unit& u : units) {
        const auto cta = std::min_element(load.begin(), load.end()) - load.begin();
        load[static_cast<size_t>(cta)] += u.cost;
        expected.push_back({u.row, u.head, 0, static_cast<int32_t>(cta)});
      }
    }
    // The first round fills the grid exactly: chunk i on CTA i.
    for (int32_t i = 0; i < kCtas; ++i) ASSERT_EQ(expected[static_cast<size_t>(i)][3], i);

    CheckedAssignmentList sink(num_heads);
    std::thread([&] {
      ChunkSchedule s;
      ScheduleBalanced(rows, num_heads, /*tile_kv=*/4096, kCtas, &s, sink);
    }).join();
    EXPECT_EQ(sink.group, num_heads) << num_heads << " heads";
    EXPECT_EQ(sink.empty_words, 0) << num_heads << " heads";
    EXPECT_EQ(sink.miscounted_runs, 0) << num_heads << " heads";
    EXPECT_EQ(Placements(sink.assignments()), expected) << num_heads << " heads";
  }
}

}  // namespace
}  // namespace flashinfer

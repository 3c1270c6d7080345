#include <gtest/gtest.h>

#include "core/contraction.h"
#include "core/microkernel.h"
#include "core/tile_heuristics.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

// ------------------------------------------------------------------ sweeps
struct SweepParam {
  int tile_q;
  int page_size;
  DType dtype;
  int qo_heads;
  int kv_heads;
  bool fusion;
  bool causal;
};

class KernelVsReference : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KernelVsReference, MatchesDoublePrecisionReference) {
  const auto sp = GetParam();
  ProblemSpec spec;
  spec.qo_lens = {3, 1, 7, 1};
  spec.kv_lens = {19, 6, 33, 1};
  spec.num_qo_heads = sp.qo_heads;
  spec.num_kv_heads = sp.kv_heads;
  spec.head_dim = 16;
  spec.page_size = sp.page_size;
  spec.kv_dtype = sp.dtype;
  spec.tile_q = sp.tile_q;
  spec.head_fusion = sp.fusion;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = sp.causal;

  KernelConfig cfg;
  cfg.tile_q = sp.tile_q;
  cfg.tile_kv = 8;
  cfg.head_fusion = sp.fusion;
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, sp.dtype));

  auto ref_o = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  std::vector<float> ref_lse(prob.lse.size(), 0.0f);
  ReferenceAttention<VanillaVariant>(p, &ref_o, &ref_lse);

  EXPECT_LT(MaxAbsDiff(prob.o.data, ref_o.data), 2e-3f);
  EXPECT_LT(MaxAbsDiff(prob.lse, ref_lse), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    TileAndFormat, KernelVsReference,
    ::testing::Values(
        SweepParam{1, 1, DType::kF32, 4, 4, true, true},
        SweepParam{1, 4, DType::kF32, 4, 2, true, true},
        SweepParam{16, 4, DType::kF32, 4, 2, true, true},
        SweepParam{16, 16, DType::kF32, 4, 1, true, false},
        SweepParam{128, 2, DType::kF32, 2, 2, true, true},
        SweepParam{16, 4, DType::kF16, 4, 2, true, true},
        SweepParam{16, 4, DType::kBF16, 4, 2, true, true},
        SweepParam{16, 4, DType::kFP8_E4M3, 4, 2, true, true},
        SweepParam{16, 4, DType::kFP8_E5M2, 4, 2, true, false},
        SweepParam{16, 4, DType::kF32, 8, 2, false, true},   // Fusion off.
        SweepParam{1, 1, DType::kF16, 8, 1, false, false}),  // MQA, no fusion.
    [](const auto& info) {
      const auto& s = info.param;
      return "tq" + std::to_string(s.tile_q) + "_pg" + std::to_string(s.page_size) + "_" +
             std::string(DTypeName(s.dtype)) + "_h" + std::to_string(s.qo_heads) + "x" +
             std::to_string(s.kv_heads) + (s.fusion ? "_fused" : "_unfused") +
             (s.causal ? "_causal" : "_full");
    });

// ------------------------------------------------------- kv tile invariance
class KvTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(KvTileSweep, ResultIndependentOfKvTileSize) {
  ProblemSpec spec;
  spec.qo_lens = {5};
  spec.kv_lens = {41};
  spec.page_size = 4;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;

  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = GetParam();
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  const auto baseline = prob.o.data;

  cfg.tile_kv = 64;
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  EXPECT_LT(MaxAbsDiff(prob.o.data, baseline), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Tiles, KvTileSweep, ::testing::Values(1, 3, 8, 32, 128));

// ----------------------------------------------------------- split + merge
TEST(SplitKv, PartialChunksMergeToWritethroughResult) {
  ProblemSpec spec;
  spec.qo_lens = {2, 1};
  spec.kv_lens = {37, 23};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.page_size = 4;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = 8;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF32);

  // Baseline: writethrough.
  RunSerial(p, cfg, fn);
  const auto baseline = prob.o.data;
  const auto baseline_lse = prob.lse;

  // Split every unit into 3 chunks, run through partial sink + contraction.
  std::fill(prob.o.data.begin(), prob.o.data.end(), 0.0f);
  std::fill(prob.lse.begin(), prob.lse.end(), 0.0f);
  const auto units = EnumerateWorkUnits(p);
  std::vector<float> partial_o(1 << 16, 0.0f);
  std::vector<float> partial_lse(1 << 10, 0.0f);
  PartialSink sink{partial_o.data(), partial_lse.data()};
  ReductionMap rmap;
  int32_t next = 0;
  for (const auto& u : units) {
    const int64_t step = (u.kv_len + 2) / 3;
    std::vector<int32_t> bases;
    for (int64_t lo = 0; lo < u.kv_len; lo += step) {
      const int64_t hi = std::min(u.kv_len, lo + step);
      WorkItem item{u.block_row, u.request, u.kv_head, u.qo_head, lo, hi, next};
      fn(p, cfg, item, sink, nullptr, nullptr);
      bases.push_back(next);
      next += u.rows;
    }
    // Reduction map rows mirror the scheduler's mapping.
    const auto& bsr = *p.bsr;
    const int g = p.GroupSize();
    const int64_t row0 = bsr.row_start[static_cast<size_t>(u.block_row)];
    for (int i = 0; i < u.rows; ++i) {
      const int64_t local = row0 + i - p.FusedBegin(u.request);
      ReductionMap::Task task;
      task.token_row =
          p.qo_indptr[static_cast<size_t>(u.request)] + (p.head_fusion ? local / g : local);
      task.qo_head = p.head_fusion ? u.kv_head * g + static_cast<int>(local % g) : u.qo_head;
      task.begin = static_cast<int32_t>(rmap.slots.size());
      task.count = static_cast<int32_t>(bases.size());
      for (int32_t b : bases) rmap.slots.push_back(b + i);
      rmap.tasks.push_back(task);
    }
  }
  RunContraction(p, rmap, sink, /*use_softmax=*/true, nullptr, nullptr);

  EXPECT_LT(MaxAbsDiff(prob.o.data, baseline), 1e-4f);
  EXPECT_LT(MaxAbsDiff(prob.lse, baseline_lse), 1e-4f);
}

// ------------------------------------------------------------- empty ranges
TEST(Kernel, EmptyKvProducesZeros) {
  ProblemSpec spec;
  spec.qo_lens = {1};
  spec.kv_lens = {5};
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 16;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF32);
  PartialSink sink;
  // Zero-width chunk: output must be written (zeros), not left stale.
  std::fill(prob.o.data.begin(), prob.o.data.end(), 42.0f);
  WorkItem item{0, 0, 0, -1, 0, 0, -1};
  fn(p, cfg, item, sink, nullptr, nullptr);
  for (float x : prob.o.Row(0)) {
    if (&x - prob.o.Row(0).data() < spec.head_dim) {
      EXPECT_EQ(x, 0.0f);
    }
  }
}

// ------------------------------------------------------------ cost charging
TEST(Kernel, ChargesSimulatedCost) {
  ProblemSpec spec;
  spec.qo_lens = {4};
  spec.kv_lens = {32};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 16;
  const auto dev = gpusim::A100Sxm40GB();
  CostContext cc;
  cc.dev = &dev;
  cc.kv_bytes = 2;
  cc.eff = EfficiencyModel(dev, cfg, spec.head_dim, 2);
  gpusim::CtaCost cost;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  const auto units = EnumerateWorkUnits(p);
  PartialSink sink;
  for (const auto& u : units) {
    WorkItem item{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1};
    fn(p, cfg, item, sink, &cost, &cc);
  }
  EXPECT_GT(cost.time_us, 0.0);
  // KV bytes: 32 tokens x 2(K,V) x 16 dim x 2B per kv head x 2 units (2 kv heads).
  const double expected_kv = 2.0 * 32 * 2 * 16 * 2;
  EXPECT_GE(cost.total.hbm_bytes, expected_kv);
  EXPECT_GT(cost.total.tensor_flops, 0.0);
}

TEST(Kernel, L2FractionRedirectsTraffic) {
  ProblemSpec spec;
  spec.qo_lens = {1};
  spec.kv_lens = {64};
  spec.kv_dtype = DType::kF16;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 1;
  const auto dev = gpusim::A100Sxm40GB();
  CostContext cc;
  cc.dev = &dev;
  cc.kv_bytes = 2;
  cc.eff = gpusim::KernelEfficiency{1.0, 1.0, 1.0};
  cc.kv_l2_fraction = 0.5;
  gpusim::CtaCost cost;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  WorkItem item{0, 0, 0, -1, 0, 64, -1};
  fn(p, cfg, item, PartialSink{}, &cost, &cc);
  EXPECT_GT(cost.total.l2_bytes, 0.0);
  const double kv_bytes = 64.0 * 2 * spec.head_dim * 2;
  EXPECT_NEAR(cost.total.l2_bytes, kv_bytes * 0.5, 1.0);
}

}  // namespace
}  // namespace flashinfer

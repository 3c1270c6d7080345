// Parameterized property sweeps across the scheduler and mixed-precision
// kernels: coverage/balance invariants for arbitrary CTA counts, Graham's
// list-scheduling bound on serving-shaped batches, and Appendix-F quality
// bounds for fp8 KV-caches.
#include <gtest/gtest.h>

#include <map>

#include "core/reference.h"
#include "runtime/scheduler.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::MaxAbsDiff;
using test::ProblemSpec;
using test::RunSerial;

// ------------------------------------------------- scheduler property sweep
struct SchedParam {
  int num_ctas;
  uint64_t seed;
};

class BalancedPlanSweep : public ::testing::TestWithParam<SchedParam> {};

TEST_P(BalancedPlanSweep, CoverageAndBoundsHoldForAnyConfiguration) {
  const auto sp = GetParam();
  Rng rng(sp.seed);
  ProblemSpec spec;
  const int n = static_cast<int>(rng.UniformInt(1, 12));
  for (int i = 0; i < n; ++i) {
    spec.qo_lens.push_back(rng.UniformInt(1, 6));
    spec.kv_lens.push_back(spec.qo_lens.back() + rng.UniformInt(0, 500));
  }
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.tile_q = 2;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 2;
  cfg.tile_kv = 16;
  const auto plan = MakeBalancedPlan(p, cfg, sp.num_ctas, int64_t{1} << 40);

  // 1. Exactly-once coverage of every (unit, kv token).
  std::map<std::tuple<int, int, int>, int64_t> covered;
  for (const auto& queue : plan.cta_queues) {
    for (const auto& item : queue) {
      covered[{item.block_row, item.kv_head, item.qo_head}] += item.kv_end - item.kv_begin;
    }
  }
  const auto units = EnumerateWorkUnits(p);
  ASSERT_EQ(covered.size(), units.size());
  for (const auto& u : units) {
    EXPECT_EQ(covered.at({u.block_row, u.kv_head, u.qo_head}), u.kv_len);
  }

  // 2. Chunk cap respected; partial rows within the Appendix D.3 bound.
  for (const auto& queue : plan.cta_queues) {
    for (const auto& item : queue) {
      EXPECT_LE(item.kv_end - item.kv_begin, plan.lkv_chunk);
    }
  }
  EXPECT_LE(plan.num_partial_rows, 2LL * sp.num_ctas * cfg.tile_q);

  // 3. LPT balance: the busiest CTA within one chunk of the average.
  EXPECT_EQ(test::ListSchedulingBoundDiff(p, cfg, sp.num_ctas), "");
}

INSTANTIATE_TEST_SUITE_P(Configurations, BalancedPlanSweep,
                         ::testing::Values(SchedParam{1, 1}, SchedParam{2, 2}, SchedParam{7, 3},
                                           SchedParam{132, 4}, SchedParam{132, 5},
                                           SchedParam{132, 6}, SchedParam{132, 7},
                                           SchedParam{396, 8}, SchedParam{396, 9},
                                           SchedParam{1024, 10}));

TEST(BalancedPlanBound, ListSchedulingBoundHoldsOnServingShapedBatches) {
  // Greedy list scheduling is not monotone, but Graham's bound holds for
  // any placement order, so it is pinned on exact loads. Batches are
  // decode-only (1-128 rows, KV 1-8192) or mixed (such decode rows plus 1-3
  // prefill chunks of up to 512 tokens) at Llama-3.1-8B
  // head geometry (32 qo heads over 8 kv heads) and at MHA (32 kv heads),
  // with head fusion on and off, on the H100's 132-SM and the A100's
  // 108-SM grid, each lowered with the serving pricer's kernel config.
  Rng rng(0xB0B0'2B00);
  for (const auto& dev : {gpusim::H100Sxm80GB(), gpusim::A100Sxm40GB()}) {
    for (int kv_heads : {8, 32}) {
      for (bool fusion : {true, false}) {
        for (bool mixed : {false, true}) {
          serving::BackendConfig backend = serving::FlashInferBackend();
          backend.head_fusion = fusion;
          serving::AttnSimInput in;
          in.num_kv_heads = kv_heads;
          for (int trial = 0; trial < 6; ++trial) {
            in.qo_lens.clear();
            in.kv_lens.clear();
            for (int64_t n = rng.UniformInt(1, 128); n > 0; --n) {
              in.qo_lens.push_back(1);
              in.kv_lens.push_back(rng.UniformInt(1, 8192));
            }
            for (int64_t n = mixed ? rng.UniformInt(1, 3) : 0; n > 0; --n) {
              in.qo_lens.push_back(rng.UniformInt(1, 512));
              in.kv_lens.push_back(in.qo_lens.back() + rng.UniformInt(0, 4096));
            }
            const test::ReferenceLaunch launch(dev, backend, in, in.qo_lens, in.kv_lens);
            ASSERT_EQ(test::ListSchedulingBoundDiff(launch.p, launch.cfg, dev.num_sms), "")
                << dev.num_sms << " SMs, " << kv_heads << " kv heads, fusion " << fusion
                << ", mixed " << mixed << ", trial " << trial;
          }
        }
      }
    }
  }
}

// ----------------------------------------------- fp8 quality (Appendix F)
class Fp8QualitySweep : public ::testing::TestWithParam<DType> {};

TEST_P(Fp8QualitySweep, MixedPrecisionStaysCloseToF32GroundTruth) {
  // Build identical problems in fp32 and the quantized dtype (same seed,
  // same float inputs); attention outputs over the quantized cache must
  // stay within the quantization-noise bound of the exact outputs.
  ProblemSpec exact_spec;
  exact_spec.qo_lens = {2, 1};
  exact_spec.kv_lens = {64, 30};
  exact_spec.num_qo_heads = 4;
  exact_spec.num_kv_heads = 2;
  exact_spec.head_dim = 32;
  exact_spec.page_size = 8;
  exact_spec.tile_q = 4;
  exact_spec.kv_dtype = DType::kF32;
  auto exact = MakeProblem(exact_spec);
  auto pe = exact.Params();
  pe.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(pe, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));

  auto quant_spec = exact_spec;
  quant_spec.kv_dtype = GetParam();
  auto quant = MakeProblem(quant_spec);
  auto pq = quant.Params();
  pq.variant.causal = true;
  RunSerial(pq, cfg, GetBuiltinKernel(VariantKind::kVanilla, GetParam()));

  // Softmax-weighted averages of ~N(0,1) values: quantization noise of the
  // KV entries is averaged down; bound by a few quantization steps.
  double tol = 0.0;
  switch (GetParam()) {
    case DType::kF16:
      tol = 5e-3;
      break;
    case DType::kBF16:
      tol = 4e-2;
      break;
    default:
      tol = 0.35;  // fp8: ~6% relative steps on N(0,1) data.
  }
  EXPECT_LT(MaxAbsDiff(exact.o.data, quant.o.data), tol);
  // And the quantized run must still match ITS OWN reference exactly
  // (quantization error lives in the data, not the kernel).
  auto ref = RaggedTensor::Zeros(quant.qo_indptr, quant.q.inner);
  ReferenceAttention<VanillaVariant>(pq, &ref);
  EXPECT_LT(MaxAbsDiff(quant.o.data, ref.data), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Dtypes, Fp8QualitySweep,
                         ::testing::Values(DType::kF16, DType::kBF16, DType::kFP8_E4M3,
                                           DType::kFP8_E5M2),
                         [](const auto& info) {
                           return std::string(DTypeName(info.param));
                         });

// ------------------------------------------ GQA group-size kernel sweep
class GroupSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeSweep, FusionInvariantToGroupSize) {
  const int g = GetParam();
  ProblemSpec spec;
  spec.qo_lens = {3};
  spec.kv_lens = {40};
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 8 / g;
  spec.head_dim = 16;
  spec.tile_q = 4;
  auto prob = MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  auto ref = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  ReferenceAttention<VanillaVariant>(p, &ref);
  EXPECT_LT(MaxAbsDiff(prob.o.data, ref.data), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Groups, GroupSizeSweep, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace flashinfer

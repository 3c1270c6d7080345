#include <gtest/gtest.h>

#include "serving/backends.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/model.h"
#include "serving/streaming_llm.h"
#include "serving/workload.h"
#include "test_util.h"

namespace flashinfer::serving {
namespace {

TEST(Model, ParameterCounts) {
  // Llama 3.1 8B has ~8.0e9 parameters; our dense count excludes norms and
  // embeddings-in, so expect the right ballpark.
  EXPECT_NEAR(Llama31_8B().DenseParams(), 8.0e9, 1.2e9);
  EXPECT_NEAR(Llama31_70B().DenseParams(), 7.0e10, 1.0e10);
  EXPECT_NEAR(Vicuna13B().DenseParams(), 1.3e10, 2.0e9);
}

TEST(Model, KvBytesPerToken) {
  const auto m = Llama31_8B();
  // 2 x 32 layers x 8 kv heads x 128 dim x 2 bytes.
  EXPECT_DOUBLE_EQ(m.KvBytesPerToken(DType::kF16), 2.0 * 32 * 8 * 128 * 2);
  EXPECT_DOUBLE_EQ(m.KvBytesPerToken(DType::kFP8_E4M3), 2.0 * 32 * 8 * 128 * 1);
}

TEST(Workload, ShareGptShapes) {
  Rng rng(1);
  const auto reqs = ShareGptWorkload(rng, 2000, 8.0);
  double in_sum = 0, out_sum = 0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.input_len, 4);
    EXPECT_LE(r.input_len, 2048);
    in_sum += static_cast<double>(r.input_len);
    out_sum += static_cast<double>(r.output_len);
    EXPECT_GE(r.arrival_s, 0.0);
  }
  EXPECT_NEAR(in_sum / 2000.0, 220.0, 60.0);
  EXPECT_NEAR(out_sum / 2000.0, 190.0, 50.0);
  // Poisson arrivals at rate 8/s: ~250s horizon for 2000 requests.
  EXPECT_NEAR(reqs.back().arrival_s, 250.0, 50.0);
}

// MultiTenantWorkload draws a tenant's system prompt only when a request
// first picks it, from a copy of the stream saved where the eager generator
// drew it. Requests, tokens and the caller's final Rng state must match the
// eager reference, including a Normal() value the caller's stream cached.
TEST(Workload, MultiTenantMatchesEagerReference) {
  struct Pool {
    const char* name;
    int requests;
    TenantPoolConfig cfg;
  };
  std::vector<Pool> pools(6);
  pools[0] = {"one tenant", 40, {}};
  pools[0].cfg.num_tenants = 1;
  pools[1] = {"fixed prefix length", 200, {}};
  pools[1].cfg.prefix_len_lo = pools[1].cfg.prefix_len_hi = 300;
  pools[5] = {"empty system prompts", 50, {}};
  pools[5].cfg.prefix_len_lo = pools[5].cfg.prefix_len_hi = 0;
  pools[2] = {"few requests over the most tenants", 12, {}};
  pools[2].cfg.num_tenants = 2147;
  pools[3] = {"many requests over few tenants", 600, {}};
  pools[3].cfg.num_tenants = 3;
  pools[4] = {"1024 tenants at Zipf 1.0", 1800, {}};
  pools[4].cfg.num_tenants = 1024;
  pools[4].cfg.zipf_s = 1.0;
  for (const Pool& pool : pools) {
    for (const uint64_t seed : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::string(pool.name) + " seed=" + std::to_string(seed));
      Rng lazy(seed), eager(seed);
      if (seed % 2 == 1) {
        lazy.Normal();
        eager.Normal();
      }
      const auto got = MultiTenantWorkload(lazy, pool.requests, 300.0, pool.cfg);
      const auto want = test::ReferenceMultiTenantWorkload(eager, pool.requests, 300.0, pool.cfg);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(test::RequestDiff(got[i], want[i]), "") << "request " << i;
      }
      EXPECT_TRUE(lazy == eager);
    }
  }
}

// Invalid pools stop at the generator's edge. Tenant t's token ids start at
// (t + 1) * 1,000,000, so a pool whose last tenant's ids would pass
// INT32_MAX overflowed; a negative prompt length would skip 2^64 - 1 draws.
TEST(WorkloadDeathTest, MultiTenantRejectsInvalidPools) {
  TenantPoolConfig too_many;
  too_many.num_tenants = 2148;
  Rng rng(1);
  EXPECT_DEATH(MultiTenantWorkload(rng, 1, 1.0, too_many), "num_tenants <= .*2148 vs 2147");
  TenantPoolConfig negative;
  negative.prefix_len_lo = -1;
  EXPECT_DEATH(MultiTenantWorkload(rng, 1, 1.0, negative), "prefix_len_lo >= 0");
}

TEST(Workload, LengthDistributions) {
  Rng rng(2);
  const auto constant = SampleLengths(rng, LengthDist::kConstant, 16, 1024);
  for (int64_t l : constant) EXPECT_EQ(l, 1024);
  const auto uniform = SampleLengths(rng, LengthDist::kUniform, 1000, 1024);
  for (int64_t l : uniform) {
    EXPECT_GE(l, 512);
    EXPECT_LE(l, 1024);
  }
  const auto skewed = SampleLengths(rng, LengthDist::kSkewed, 1000, 1024);
  int64_t mx = 0;
  for (int64_t l : skewed) mx = std::max(mx, l);
  EXPECT_GT(mx, 3000);  // Heavy tail present.
}

TEST(Metrics, Percentiles) {
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0), 10.0);
}

TEST(AttnSim, BalancedBeatsNaiveOnSkewedBatch) {
  const auto dev = gpusim::H100Sxm80GB();
  AttnSimInput in;
  in.qo_lens.assign(16, 1);
  in.kv_lens = {16384, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64, 64};
  auto fi = FlashInferBackend();
  auto naive = fi;
  naive.scheduler = SchedulerKind::kNaive;
  const double t_bal = SimulateBatchAttention(dev, fi, in).time_us;
  const double t_naive = SimulateBatchAttention(dev, naive, in).time_us;
  EXPECT_LT(t_bal, t_naive * 0.6);
}

TEST(AttnSim, ComposableHelpsLongSharedPrefix) {
  const auto dev = gpusim::H100Sxm80GB();
  AttnSimInput in;
  const int n = 16;
  in.qo_lens.assign(n, 1);
  in.kv_lens.assign(n, 8192 + 128);
  AttnSimInput::Group g;
  g.prefix_len = 8192;
  for (int i = 0; i < n; ++i) g.members.push_back(i);
  in.groups.push_back(g);

  auto single = FlashInferBackend();
  auto comp = FlashInferBackend();
  comp.composable = true;
  const double t_single = SimulateBatchAttention(dev, single, in).time_us;
  const double t_comp = SimulateBatchAttention(dev, comp, in).time_us;
  EXPECT_LT(t_comp, t_single);
}

TEST(AttnSim, ComposableSkippedWithoutGroups) {
  const auto dev = gpusim::H100Sxm80GB();
  AttnSimInput in;
  in.qo_lens.assign(4, 1);
  in.kv_lens.assign(4, 256);
  auto comp = FlashInferBackend();
  comp.composable = true;
  auto plain = FlashInferBackend();
  EXPECT_NEAR(SimulateBatchAttention(dev, comp, in).time_us,
              SimulateBatchAttention(dev, plain, in).time_us, 1e-9);
}

TEST(Engine, CompletesWorkloadAndReportsMetrics) {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  ServingEngine engine(cfg);
  EXPECT_GT(engine.KvTokenBudget(), 100000);

  Rng rng(3);
  const auto reqs = ShareGptWorkload(rng, 40, 8.0);
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.ttft_ms.size(), 40u);
  EXPECT_GT(m.total_output_tokens, 40);
  EXPECT_GT(m.MedianItlMs(), 0.0);
  EXPECT_GT(m.MedianTtftMs(), 0.0);
  EXPECT_GT(m.makespan_s, 0.0);
  // TTFT must exceed ITL (prefill processes many tokens).
  EXPECT_GT(m.MedianTtftMs(), m.MedianItlMs());
}

TEST(Engine, FlashInferFasterThanTriton) {
  Rng rng(4);
  const auto reqs = ShareGptWorkload(rng, 60, 10.0);
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  const auto fi = ServingEngine(cfg).Run(reqs);
  cfg.backend = TritonBackend();
  const auto triton = ServingEngine(cfg).Run(reqs);
  EXPECT_LT(fi.MedianItlMs(), triton.MedianItlMs());
  EXPECT_LT(fi.MedianTtftMs(), triton.MedianTtftMs());
}

TEST(Engine, ParallelGenerationSharesPrefix) {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.backend.composable = true;
  ServingEngine engine(cfg);
  Rng rng(5);
  auto reqs = ShareGptWorkload(rng, 10, 4.0, /*parallel_n=*/4);
  const auto m = engine.Run(reqs);
  // 10 requests x 4 branches, each emitting output tokens.
  EXPECT_GT(m.total_output_tokens, 10 * 4 * 4);
  EXPECT_EQ(m.ttft_ms.size(), 10u);
}

TEST(StreamingLlm, FusedFasterThanUnfusedFasterThanOriginal) {
  StreamingLlmConfig cfg;
  cfg.model = Vicuna13B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.recent_window = 2000;
  const double fused = StreamingLlmItlMs(cfg, StreamingRopeMode::kFusedFlashInfer);
  const double unfused = StreamingLlmItlMs(cfg, StreamingRopeMode::kUnfusedFlashAttention);
  const double original = StreamingLlmItlMs(cfg, StreamingRopeMode::kOriginalImpl);
  EXPECT_LT(fused, unfused);
  EXPECT_LT(unfused, original);
  // Paper (H100, recent 2000): ~13.3 / 19.1 / 26.7 ms. Allow generous bands.
  EXPECT_GT(fused, 4.0);
  EXPECT_LT(fused, 25.0);
  EXPECT_GT(unfused / fused, 1.15);
}

TEST(StreamingLlm, ItlGrowsSlowlyWithWindow) {
  StreamingLlmConfig cfg;
  cfg.model = Vicuna13B();
  cfg.device = gpusim::A100Sxm40GB();
  cfg.recent_window = 1000;
  const double w1k = StreamingLlmItlMs(cfg, StreamingRopeMode::kFusedFlashInfer);
  cfg.recent_window = 4000;
  const double w4k = StreamingLlmItlMs(cfg, StreamingRopeMode::kFusedFlashInfer);
  EXPECT_GE(w4k, w1k);
  EXPECT_LT(w4k, w1k * 1.3);  // Constant-memory streaming: near-flat ITL.
}

}  // namespace
}  // namespace flashinfer::serving

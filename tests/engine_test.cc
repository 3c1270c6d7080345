// Serving-engine edge cases and regression tests.
#include <gtest/gtest.h>

#include <utility>

#include "cluster/cluster.h"
#include "serving/engine.h"
#include "test_util.h"

namespace flashinfer::serving {
namespace {

/// A request that sets only the fields these tests vary.
Request MakeReq(int id, double arrival_s, int64_t input_len, int64_t output_len,
                int parallel_n = 1) {
  Request r;
  r.id = id;
  r.arrival_s = arrival_s;
  r.input_len = input_len;
  r.output_len = output_len;
  r.parallel_n = parallel_n;
  return r;
}

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

// Malformed configs and requests stop at the engine's edge. Unchecked, a
// negative chunk size stepped forever without emitting a token, a zero run
// limit aborted on an unrelated check in the idle path, and a request with
// parallel_n < 1 left its prompt's KV charged after the drain.
TEST(EngineDeathTest, RejectsInvalidInput) {
  for (const int64_t chunk : {int64_t{0}, int64_t{-16}}) {
    for (const BatchPolicy policy : {BatchPolicy::kDecodePriority, BatchPolicy::kPrefillAlone}) {
      auto cfg = BaseConfig();
      cfg.prefill_chunk_tokens = chunk;
      cfg.batch_policy = policy;
      EXPECT_DEATH(ServingEngine{cfg}, "prefill_chunk_tokens");
    }
  }
  auto cfg = BaseConfig();
  cfg.max_running = 0;
  EXPECT_DEATH(ServingEngine{cfg}, "max_running");
  for (const int n : {0, -2}) {
    ServingEngine engine(BaseConfig());
    EXPECT_DEATH(engine.Admit(MakeReq(0, 0.0, 512, 4, n)), "parallel_n");
  }
}

TEST(Engine, OversizedPromptStillAdmits) {
  // Regression: a prompt longer than max_prefill_tokens must admit alone
  // rather than starving forever (previously an infinite loop).
  auto cfg = BaseConfig();
  cfg.max_prefill_tokens = 1024;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].arrival_s = 0.0;
  reqs[0].input_len = 9000;  // > max_prefill_tokens.
  reqs[0].output_len = 4;
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.ttft_ms.size(), 1u);
  EXPECT_EQ(m.total_output_tokens, 4);
}

TEST(Engine, PrefillBudgetBatchesAdmissions) {
  auto cfg = BaseConfig();
  cfg.max_prefill_tokens = 600;
  ServingEngine engine(cfg);
  // Three 512-token prompts arriving together: 512 + 512 > 600, so they
  // prefill in separate steps -> strictly increasing TTFTs.
  std::vector<Request> reqs(3);
  for (int i = 0; i < 3; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_s = 0.0;
    reqs[i].input_len = 512;
    reqs[i].output_len = 2;
  }
  const auto m = engine.Run(reqs);
  ASSERT_EQ(m.ttft_ms.size(), 3u);
  EXPECT_LT(m.ttft_ms[0], m.ttft_ms[1]);
  EXPECT_LT(m.ttft_ms[1], m.ttft_ms[2]);
}

TEST(Engine, EmptyWorkload) {
  ServingEngine engine(BaseConfig());
  const auto m = engine.Run({});
  EXPECT_EQ(m.total_output_tokens, 0);
  EXPECT_EQ(m.num_steps, 0);
}

TEST(Engine, IdleGapsSkipToNextArrival) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 2, 1);
  reqs[1] = MakeReq(1, 100.0, 64, 2, 1);  // Arrives after a long idle gap.
  const auto m = engine.Run(reqs);
  // Request 1's TTFT is measured from ITS arrival, not from t=0.
  EXPECT_LT(m.ttft_ms[1], 1000.0);
  EXPECT_GE(m.makespan_s, 100.0);
}

TEST(Engine, OutputTokenAccounting) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(4);
  for (int i = 0; i < 4; ++i) reqs[i] = MakeReq(i, 0.01 * i, 32, 10, 1);
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.total_output_tokens, 4 * 10);
  // ITL gaps: 9 per request (first token comes from prefill).
  EXPECT_EQ(m.itl_ms.size(), 4u * 9u);
}

/// The engines Run()'s sample contract is pinned on, with each one's
/// parallel_n: the FlashInfer backend at n = 1, the composable backend at
/// n = 4 (its sibling groups), and a spec engine over a branching draft tree
/// (multi-token commits).
std::vector<std::pair<EngineConfig, int>> RunContractConfigs() {
  EngineConfig composable = BaseConfig();
  composable.backend.composable = true;
  EngineConfig spec = BaseConfig();
  spec.spec.enabled = true;
  spec.spec.tree = {/*depth=*/2, /*branching=*/2};
  return {{BaseConfig(), 1}, {composable, 4}, {spec, 1}};
}

std::vector<Request> SeededShareGpt(int parallel_n) {
  Rng rng(41);
  auto reqs = ShareGptWorkload(rng, 40, 20.0, parallel_n);
  AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

/// The metrics of an engine of `cfg` that has run nothing.
ServingMetrics FreshMetrics(const EngineConfig& cfg) {
  ServingEngine fresh(cfg);
  fresh.Reset();
  return fresh.Metrics();
}

// Run() sizes its sample vectors once and moves them out: with nothing
// rejected each one is exactly as long as Run() sized it, the engine's own
// metrics read as a fresh engine's afterwards, and a second Run() of the
// same workload returns the same bits.
TEST(Engine, RunSizesSamplesOnceAndMovesThemOut) {
  for (const auto& [cfg, n] : RunContractConfigs()) {
    SCOPED_TRACE("parallel_n=" + std::to_string(n) + " spec=" + std::to_string(cfg.spec.enabled));
    const std::vector<Request> reqs = SeededShareGpt(n);
    ServingEngine engine(cfg);
    const ServingMetrics first = engine.Run(reqs);
    ASSERT_EQ(first.rejected_requests, 0);
    ASSERT_EQ(first.ttft_ms.size(), reqs.size());
    EXPECT_GT(first.itl_ms.size(), 0u);
    EXPECT_EQ(first.ttft_ms.capacity(), first.ttft_ms.size());
    EXPECT_EQ(first.ttft_priority.capacity(), first.ttft_priority.size());
    EXPECT_EQ(first.itl_ms.capacity(), first.itl_ms.size());
    EXPECT_EQ(test::MetricsDiff(engine.Metrics(), FreshMetrics(cfg)), "");
    EXPECT_EQ(test::MetricsDiff(engine.Run(reqs), first), "");
  }
}

// A rejected request records no samples, so the vectors Run() sized for it
// stay partly empty; the hand-off is the same.
TEST(Engine, RunSizesSamplesOnceWithARejectedRequest) {
  for (const auto& [cfg, n] : RunContractConfigs()) {
    SCOPED_TRACE("parallel_n=" + std::to_string(n) + " spec=" + std::to_string(cfg.spec.enabled));
    std::vector<Request> reqs = SeededShareGpt(n);
    ServingEngine engine(cfg);
    // More prompt than the whole KV budget: it could never run.
    reqs.push_back(MakeReq(1000, reqs[5].arrival_s, engine.KvTokenBudget() + 1, 64));
    const ServingMetrics m = engine.Run(reqs);
    ASSERT_EQ(m.rejected_requests, 1);
    EXPECT_EQ(m.ttft_ms.size(), reqs.size() - 1);
    EXPECT_GE(m.ttft_ms.capacity(), m.ttft_ms.size());
    EXPECT_GE(m.ttft_priority.capacity(), m.ttft_priority.size());
    EXPECT_GE(m.itl_ms.capacity(), m.itl_ms.size());
    EXPECT_EQ(test::MetricsDiff(engine.Metrics(), FreshMetrics(cfg)), "");
  }
}

TEST(Engine, ParallelBranchesMultiplyOutputs) {
  ServingEngine engine(BaseConfig());
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 6, 4);
  reqs[1] = MakeReq(1, 0.0, 64, 6, 1);
  const auto m = engine.Run(reqs);
  // Request 0: 1 prefill token + 4 branches x 5; request 1: 1 + 5.
  EXPECT_EQ(m.total_output_tokens, (1 + 4 * 5) + (1 + 5));
}

// A request with output_len = 1 emits only its first token, in every mode:
// the prefill's first token is its last. Engines without a structural KV
// cache used to decode each such branch once more: vanilla and
// prefill-alone engines, and the vanilla disaggregated cluster below,
// emitted 7 tokens and 4 ITL samples for these requests.
TEST(Engine, OneTokenRequestsFinishAtTheirFirstToken) {
  const std::vector<Request> reqs = {MakeReq(0, 0.0, 64, 1), MakeReq(1, 0.0, 128, 1, 2),
                                     MakeReq(2, 0.01, 32, 1)};
  EngineConfig prefill_alone = BaseConfig();
  prefill_alone.batch_policy = BatchPolicy::kPrefillAlone;
  EngineConfig spec = BaseConfig();
  spec.spec.enabled = true;
  EngineConfig preempting = BaseConfig();
  preempting.preemption.enabled = true;
  for (const auto& [name, cfg] :
       {std::pair{"vanilla", BaseConfig()}, std::pair{"prefill-alone", prefill_alone},
        std::pair{"spec", spec}, std::pair{"preemption", preempting}}) {
    SCOPED_TRACE(name);
    ServingEngine engine(cfg);
    const auto m = engine.Run(reqs);
    EXPECT_EQ(m.total_output_tokens, 3);
    EXPECT_EQ(m.ttft_ms.size(), 3u);
    EXPECT_EQ(m.ItlCount(), 0);
    EXPECT_EQ(m.branch_stalls.size(), 4u);  // Every branch finished.
    EXPECT_EQ(engine.KvTokensInUse(), 0);
  }
  cluster::ClusterConfig disagg;
  disagg.engine = BaseConfig();
  disagg.num_replicas = 2;
  disagg.disaggregated = true;
  disagg.prefill_replicas = 1;
  const auto m = cluster::ClusterEngine(disagg).Run(reqs);
  EXPECT_EQ(m.aggregate.total_output_tokens, 3);
  EXPECT_EQ(m.aggregate.ItlCount(), 0);
  EXPECT_EQ(m.aggregate.num_migrations_out, 0);  // Nothing is left to decode elsewhere.
}

TEST(Engine, KvBudgetThrottlesAdmission) {
  auto cfg = BaseConfig();
  cfg.hbm_capacity_gb = 17.0;  // Barely above the 8B weights: tiny KV pool.
  ServingEngine engine(cfg);
  EXPECT_LT(engine.KvTokenBudget(), 30000);
  std::vector<Request> reqs(8);
  for (int i = 0; i < 8; ++i) reqs[i] = MakeReq(i, 0.0, 2048, 4, 1);
  const auto m = engine.Run(reqs);  // Must complete despite the tight pool.
  EXPECT_EQ(m.ttft_ms.size(), 8u);
  EXPECT_EQ(m.total_output_tokens, 8 * 4);
}

TEST(Engine, FasterKernelsNeverHurtLatency) {
  // Sanity: scaling all attention kernels 2x slower must not reduce ITL.
  Rng rng(9);
  const auto reqs = ShareGptWorkload(rng, 40, 12.0);
  auto cfg = BaseConfig();
  const auto fast = ServingEngine(cfg).Run(reqs);
  cfg.backend.kernel_time_scale = 2.0;
  const auto slow = ServingEngine(cfg).Run(reqs);
  EXPECT_LE(fast.MedianItlMs(), slow.MedianItlMs());
  EXPECT_LE(fast.makespan_s, slow.makespan_s + 1e-9);
}

TEST(Engine, TensorParallelReducesItl) {
  Rng rng(10);
  const auto reqs = ShareGptWorkload(rng, 30, 6.0);
  EngineConfig cfg;
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.model = Llama31_70B(1);
  cfg.hbm_capacity_gb = 200.0;  // Hypothetical single-GPU fit.
  const auto tp1 = ServingEngine(cfg).Run(reqs);
  cfg.model = Llama31_70B(4);
  cfg.hbm_capacity_gb = 80.0;
  const auto tp4 = ServingEngine(cfg).Run(reqs);
  EXPECT_LT(tp4.MedianItlMs(), tp1.MedianItlMs());
}

// Prefill-alone takes whole prompts in queue order while they fit the
// per-step budget: here 600 + 300 share a step, the 1,500-token prompt
// behind them runs alone in the next, and the 200-token one in the third.
// Admission does not wait for the step that prefills a prompt: every
// request reserves its KV at its arrival.
TEST(PrefillAlone, WholePromptsFillEachStepInQueueOrder) {
  auto cfg = BaseConfig();
  cfg.batch_policy = BatchPolicy::kPrefillAlone;
  cfg.max_prefill_tokens = 1000;
  cfg.trace.enabled = true;
  ServingEngine engine(cfg);
  const auto m = engine.Run({MakeReq(0, 0.0, 600, 4), MakeReq(1, 0.0, 300, 4),
                             MakeReq(2, 0.0, 1500, 4), MakeReq(3, 0.0, 200, 4)});
  EXPECT_EQ(m.total_output_tokens, 16);
  // Per recorded step: its decode rows and the (request, tokens) of each
  // prompt chunk, whose kChunk instants follow the step's kStep span.
  using Chunks = std::vector<std::pair<int, int64_t>>;
  std::vector<std::pair<int64_t, Chunks>> steps;
  int admits = 0;
  for (const auto& e : engine.TraceEvents()) {
    if (e.name == obs::TraceName::kStep) {
      steps.push_back({e.b, {}});
    } else if (e.name == obs::TraceName::kChunk) {
      EXPECT_EQ(e.b, 1) << "request " << e.req << "'s chunk completes its prompt";
      steps.back().second.emplace_back(e.req, e.a);
    } else if (e.name == obs::TraceName::kReqAdmit) {
      ++admits;
      EXPECT_EQ(e.ts_us, 0.0) << "request " << e.req;
    }
  }
  EXPECT_EQ(admits, 4);
  ASSERT_GE(steps.size(), 3u);
  EXPECT_EQ(steps[0].second, (Chunks{{0, 600}, {1, 300}}));
  EXPECT_EQ(steps[1].second, (Chunks{{2, 1500}}));
  EXPECT_EQ(steps[2].second, (Chunks{{3, 200}}));
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i < 3) {
      // Requests 0 and 1 stall through the two steps that prefill behind them.
      EXPECT_EQ(steps[i].first, 0) << "step " << i;
    } else {
      EXPECT_TRUE(steps[i].second.empty()) << "step " << i;
    }
  }
}

// --- Chunked prefill / mixed batching (StepPlan) -----------------------------

void ExpectSameMetrics(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.total_prefill_tokens, b.total_prefill_tokens);
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_DOUBLE_EQ(a.total_host_ms, b.total_host_ms);
}

// With prefill and decode never overlapping (sparse arrivals: each request
// drains before the next arrives), a chunk that covers the whole prompt
// must reproduce the prefill-alone policy step-for-step — same steps, same
// clocks, same per-request TTFT/ITL.
TEST(ChunkedPrefill, ChunkCoveringPromptMatchesPrefillAlone) {
  std::vector<Request> reqs(4);
  for (int i = 0; i < 4; ++i) {
    reqs[i].id = i;
    reqs[i].arrival_s = i * 10.0;  // Far apart: no prefill/decode overlap.
    reqs[i].input_len = 700 + 100 * i;
    reqs[i].output_len = 6;
  }
  auto alone_cfg = BaseConfig();
  alone_cfg.batch_policy = BatchPolicy::kPrefillAlone;
  const auto alone = ServingEngine(alone_cfg).Run(reqs);

  for (const int64_t chunk : {int64_t{1024}, int64_t{1 << 20}}) {
    auto cfg = BaseConfig();
    cfg.prefill_chunk_tokens = chunk;  // >= longest prompt: one chunk each.
    const auto chunked = ServingEngine(cfg).Run(reqs);
    ExpectSameMetrics(alone, chunked);
    EXPECT_EQ(chunked.chunked_requests, 0);
  }
}

TEST(ChunkedPrefill, LongPromptSpansChunksAndEmitsOnLastChunk) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].input_len = 1000;  // ceil(1000/256) = 4 chunks.
  reqs[0].output_len = 3;
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.prefill_chunks, 4);
  EXPECT_EQ(m.chunked_requests, 1);
  EXPECT_EQ(m.total_prefill_tokens, 1000);
  EXPECT_EQ(m.total_output_tokens, 3);
  ASSERT_EQ(m.ttft_ms.size(), 1u);
  // First token only after the 4th chunk: TTFT covers all 4 steps while ITL
  // gaps cover one decode step each.
  EXPECT_GT(m.ttft_ms[0], 2.0 * m.MaxItlMs());
  EXPECT_EQ(m.num_steps, 4 + 2);  // 4 chunk steps + 2 decode steps.
}

TEST(ChunkedPrefill, MixedBatchingRemovesDecodeStalls) {
  // Running decodes + a long prompt arriving mid-flight: prefill-alone
  // stalls every branch behind the prefill; mixed batching does not, and
  // both deliver the same tokens.
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 64, 64, 1);
  reqs[1] = MakeReq(1, 0.05, 6000, 8, 1);  // Long prompt lands mid-decode.

  auto alone_cfg = BaseConfig();
  alone_cfg.batch_policy = BatchPolicy::kPrefillAlone;
  const auto alone = ServingEngine(alone_cfg).Run(reqs);
  EXPECT_GT(alone.itl_stall_steps, 0);
  EXPECT_GT(alone.steps_with_stalls, 0);
  EXPECT_EQ(alone.mixed_steps, 0);

  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 512;
  const auto chunked = ServingEngine(cfg).Run(reqs);
  EXPECT_EQ(chunked.itl_stall_steps, 0);
  EXPECT_GT(chunked.mixed_steps, 0);
  EXPECT_EQ(chunked.total_output_tokens, alone.total_output_tokens);
  // The worst inter-token gap shrinks by at least the prefill-stall factor.
  EXPECT_LT(chunked.MaxItlMs() * 2.0, alone.MaxItlMs());
  // Per-branch stall counters surface through branch_stalls.
  int64_t alone_stalls = 0;
  for (int64_t s : alone.branch_stalls) alone_stalls += s;
  EXPECT_EQ(alone_stalls, alone.itl_stall_steps);
  for (int64_t s : chunked.branch_stalls) EXPECT_EQ(s, 0);
}

TEST(ChunkedPrefill, CachedPrefixChunksOnlyUncachedSuffix) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  std::vector<Request> reqs(1);
  reqs[0].id = 0;
  reqs[0].input_len = 2048;
  reqs[0].output_len = 4;
  reqs[0].cached_prefix_len = 1500;  // Cached span exceeds the chunk size.
  const auto m = engine.Run(reqs);
  EXPECT_EQ(m.total_prefill_tokens, 2048 - 1500);
  EXPECT_EQ(m.cached_prefix_tokens, 1500);
  EXPECT_EQ(m.prefill_chunks, (548 + 255) / 256);
  EXPECT_EQ(m.total_output_tokens, 4);
}

TEST(ChunkedPrefill, QueuedTokensCountsPartialPrefillRemainder) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 256;
  ServingEngine engine(cfg);
  engine.Reset();
  Request r;
  r.id = 0;
  r.input_len = 1024;
  r.output_len = 16;
  engine.Admit(r);
  EXPECT_EQ(engine.QueuedTokens(), 1024 + 16);
  // One step: 256 prompt tokens prefilled, request still mid-chunk — a
  // router must still see the un-prefilled remainder plus the whole output.
  EXPECT_EQ(engine.StepTo(engine.NextEventTime()), 1);
  EXPECT_EQ(engine.QueuedTokens(), (1024 - 256) + 16);
  EXPECT_FALSE(engine.Finished());
  engine.Drain();
  EXPECT_EQ(engine.QueuedTokens(), 0);
  EXPECT_EQ(engine.Metrics().total_output_tokens, 16);
}

TEST(ChunkedPrefill, ThroughputPolicyPacksMoreThanDecodePriority) {
  // Two long prompts arriving together: decode-priority spends at most one
  // chunk's worth per step; throughput-priority packs both requests' chunks
  // and finishes the prefill backlog in fewer steps.
  std::vector<Request> reqs(2);
  reqs[0] = MakeReq(0, 0.0, 4096, 4, 1);
  reqs[1] = MakeReq(1, 0.0, 4096, 4, 1);

  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 1024;
  cfg.batch_policy = BatchPolicy::kDecodePriority;
  const auto dp = ServingEngine(cfg).Run(reqs);
  cfg.batch_policy = BatchPolicy::kThroughputPriority;
  const auto tp = ServingEngine(cfg).Run(reqs);

  EXPECT_EQ(dp.total_prefill_tokens, tp.total_prefill_tokens);
  EXPECT_LT(tp.num_steps, dp.num_steps);
  EXPECT_LT(tp.ttft_ms[1], dp.ttft_ms[1]);  // Backlogged TTFT drains faster.
}

TEST(ChunkedPrefill, KvAccountingExactAfterDrain) {
  auto cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 512;
  ServingEngine engine(cfg);
  Rng rng(23);
  BurstyPrefillConfig wcfg;
  wcfg.num_steady = 40;
  wcfg.num_bursts = 2;
  wcfg.burst_size = 2;
  const auto m = engine.Run(BurstyLongPrefillWorkload(rng, wcfg));
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(m.ttft_ms.size(), 44u);
  EXPECT_GT(m.mixed_steps, 0);
}

TEST(Backends, PresetsDiffer) {
  EXPECT_EQ(FlashInferBackend().scheduler, SchedulerKind::kBalanced);
  EXPECT_NE(TritonBackend().scheduler, SchedulerKind::kBalanced);
  EXPECT_GT(TritonBackend().kernel_time_scale, 1.0);
  EXPECT_FALSE(FlashAttentionBackend().head_fusion);
  EXPECT_GT(VllmDefaultBackend().host_us_per_req, FlashInferBackend().host_us_per_req);
}

}  // namespace
}  // namespace flashinfer::serving

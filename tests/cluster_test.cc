// Cluster subsystem tests: the steppable-engine refactor is
// behavior-preserving, routers behave as specified, and a single-replica
// cluster degenerates to the plain engine.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "serving/engine.h"

namespace flashinfer::cluster {
namespace {

using serving::EngineConfig;
using serving::Request;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  return cfg;
}

void ExpectMetricsIdentical(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.total_prefill_tokens, b.total_prefill_tokens);
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft sample " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl sample " << i;
  }
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_DOUBLE_EQ(a.total_host_ms, b.total_host_ms);
}

// (a) Run() is a thin wrapper: an external Admit/StepTo loop reproduces it
// token-for-token on a ShareGPT workload.
TEST(SteppableEngine, StepLoopMatchesRunExactly) {
  Rng rng(7);
  const auto workload = serving::ShareGptWorkload(rng, 60, 15.0);

  ServingEngine reference(BaseConfig());
  const auto run_metrics = reference.Run(workload);

  ServingEngine stepped(BaseConfig());
  stepped.Reset();
  for (const auto& r : workload) stepped.Admit(r);
  while (!stepped.Finished()) {
    const double next = stepped.NextEventTime();
    ASSERT_TRUE(std::isfinite(next));
    ASSERT_GE(stepped.StepTo(next), 1);  // Every event-time step makes progress.
  }
  ExpectMetricsIdentical(run_metrics, stepped.Metrics());
}

// Admission honors arrival times even when requests are admitted mid-flight
// (the cluster driver's pattern: StepTo(arrival) then Admit).
TEST(SteppableEngine, IncrementalAdmissionMatchesRun) {
  Rng rng(11);
  auto workload = serving::ShareGptWorkload(rng, 40, 25.0);

  ServingEngine reference(BaseConfig());
  const auto run_metrics = reference.Run(workload);

  ServingEngine stepped(BaseConfig());
  stepped.Reset();
  for (const auto& r : workload) {
    stepped.StepTo(r.arrival_s);
    stepped.Admit(r);
  }
  stepped.Drain();
  ExpectMetricsIdentical(run_metrics, stepped.Metrics());
}

TEST(SteppableEngine, NextEventTimeSemantics) {
  ServingEngine engine(BaseConfig());
  engine.Reset();
  EXPECT_TRUE(engine.Finished());
  EXPECT_TRUE(std::isinf(engine.NextEventTime()));

  Request r;
  r.id = 0;
  r.arrival_s = 5.0;
  r.input_len = 64;
  r.output_len = 4;
  engine.Admit(r);
  EXPECT_DOUBLE_EQ(engine.NextEventTime(), 5.0);  // Idle until the arrival.
  EXPECT_EQ(engine.StepTo(4.0), 0);               // Nothing starts before it.
  engine.Drain();
  EXPECT_TRUE(engine.Finished());
  EXPECT_EQ(engine.Metrics().total_output_tokens, 4);
}

// (c) A single-replica cluster reproduces the plain engine exactly (ShareGPT
// requests carry no token ids, so prefix caching never engages).
TEST(Cluster, SingleReplicaMatchesServingEngine) {
  Rng rng(21);
  const auto workload = serving::ShareGptWorkload(rng, 50, 20.0);

  ServingEngine engine(BaseConfig());
  const auto engine_metrics = engine.Run(workload);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 1;
  cfg.policy = RouterPolicy::kRoundRobin;
  const auto cluster_metrics = ClusterEngine(cfg).Run(workload);

  ASSERT_EQ(cluster_metrics.per_replica.size(), 1u);
  ExpectMetricsIdentical(engine_metrics, cluster_metrics.per_replica[0]);
  ExpectMetricsIdentical(engine_metrics, cluster_metrics.aggregate);
  EXPECT_DOUBLE_EQ(cluster_metrics.load_imbalance, 1.0);
}

// Known divergence, disabled until the driver changes: it steps every
// replica to a request's arrival before routing that request, so of two
// requests that arrive together the first is prefilled alone in the step
// starting at their arrival, while Run() admits both into that step. Enable
// this case when the driver routes all same-time arrivals before stepping.
TEST(Cluster, DISABLED_SameTimeArrivalsShareOneStepLikeRun) {
  std::vector<Request> workload(2);
  for (int i = 0; i < 2; ++i) {
    workload[i].id = i;
    workload[i].arrival_s = 0.5;
    workload[i].input_len = 512;
    workload[i].output_len = 8;
  }
  ServingEngine engine(BaseConfig());
  const auto engine_metrics = engine.Run(workload);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 1;
  const auto cluster_metrics = ClusterEngine(cfg).Run(workload);
  ASSERT_EQ(cluster_metrics.per_replica.size(), 1u);
  ExpectMetricsIdentical(engine_metrics, cluster_metrics.per_replica[0]);
}

// (b) PrefixAffinity sends same-prefix requests to the same replica and
// beats RoundRobin on prefix-hit rate.
TEST(Cluster, PrefixAffinityCoLocatesTenants) {
  Rng rng(33);
  serving::TenantPoolConfig pool;
  pool.num_tenants = 8;
  const auto workload = serving::MultiTenantWorkload(rng, 120, 30.0, pool);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.policy = RouterPolicy::kPrefixAffinity;
  const auto pa = ClusterEngine(cfg).Run(workload);

  cfg.policy = RouterPolicy::kRoundRobin;
  const auto rr = ClusterEngine(cfg).Run(workload);

  EXPECT_GT(pa.prefix_hit_rate, rr.prefix_hit_rate);
  EXPECT_GE(pa.prefix_hit_rate, 1.2 * rr.prefix_hit_rate);
  EXPECT_GT(pa.router.affinity_hits, 0);
  // Affinity skips cached prompt tokens, so it computes strictly fewer.
  EXPECT_LT(pa.aggregate.total_prefill_tokens, rr.aggregate.total_prefill_tokens);
}

TEST(Cluster, SamePrefixRequestsLandOnOneReplica) {
  // Two tenants, far apart in time, no load pressure: pure affinity must
  // pin each tenant to exactly one replica.
  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.policy = RouterPolicy::kPrefixAffinity;

  std::vector<Request> workload;
  Rng rng(5);
  std::vector<std::vector<int32_t>> prompts(2);
  for (int t = 0; t < 2; ++t) {
    for (int i = 0; i < 256; ++i) {
      prompts[t].push_back(t * 1000000 + static_cast<int32_t>(rng.UniformInt(0, 9999)));
    }
  }
  for (int i = 0; i < 12; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i * 2.0;  // Sparse: the cluster drains between arrivals.
    r.tenant = i % 2;
    r.prompt_tokens = prompts[r.tenant];
    r.input_len = static_cast<int64_t>(r.prompt_tokens.size());
    r.output_len = 8;
    workload.push_back(r);
  }
  const auto m = ClusterEngine(cfg).Run(workload);

  // Two tenants -> at most two replicas ever see a request.
  int replicas_used = 0;
  for (int64_t n : m.replica_requests) replicas_used += n > 0 ? 1 : 0;
  EXPECT_LE(replicas_used, 2);
  // Every request after each tenant's first is a full-prefix hit; prompts
  // are 256 tokens = 16 pages exactly, so 10 of 12 prompts match fully.
  EXPECT_GT(m.prefix_hit_rate, 0.8);
}

TEST(Cluster, BackToBackRunsAreIndependent) {
  // Regression: Run() must fully reset router stats and prefix-cache
  // mirrors, not just the engines — a warm mirror inflates hit rates.
  Rng rng(66);
  serving::TenantPoolConfig pool;
  pool.num_tenants = 8;
  const auto workload = serving::MultiTenantWorkload(rng, 80, 30.0, pool);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.policy = RouterPolicy::kPrefixAffinity;
  ClusterEngine cluster(cfg);
  const auto first = cluster.Run(workload);
  const auto second = cluster.Run(workload);
  EXPECT_DOUBLE_EQ(first.prefix_hit_rate, second.prefix_hit_rate);
  EXPECT_EQ(first.router.routed, second.router.routed);
  EXPECT_EQ(first.router.affinity_hits, second.router.affinity_hits);
  ExpectMetricsIdentical(first.aggregate, second.aggregate);
}

// Run ≡ StepTo with chunked prefill enabled: partial-prefill progress is
// plain steppable state, so an external step loop reproduces Run() exactly
// even when requests are admitted in unsorted arrival order and StepTo
// deadlines land between a long prompt's chunks.
TEST(SteppableEngine, ChunkedRunMatchesUnsortedStepLoop) {
  Rng rng(71);
  serving::BurstyPrefillConfig wcfg;
  wcfg.num_steady = 50;
  wcfg.num_bursts = 3;
  wcfg.burst_size = 2;
  wcfg.burst_input_lo = 3000;  // >= 3 chunks at 1024.
  wcfg.burst_input_hi = 6000;
  auto workload = serving::BurstyLongPrefillWorkload(rng, wcfg);

  EngineConfig cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 1024;
  ServingEngine reference(cfg);
  const auto run_metrics = reference.Run(workload);
  EXPECT_GT(run_metrics.chunked_requests, 0);
  EXPECT_GT(run_metrics.mixed_steps, 0);

  // Admit in a deterministically shuffled (unsorted) order; Admit() keeps
  // the queue arrival-sorted, so this must not change anything.
  auto shuffled = workload;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }
  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : shuffled) stepped.Admit(r);
  // Coarse deadlines (50 ms) guaranteed to straddle multi-chunk prefills:
  // a burst prompt needs >= 3 chunk steps of a few ms each.
  while (!stepped.Finished()) {
    const double next = stepped.NextEventTime();
    ASSERT_TRUE(std::isfinite(next));
    stepped.StepTo(next + 0.05);
  }
  ExpectMetricsIdentical(run_metrics, stepped.Metrics());
  EXPECT_EQ(run_metrics.prefill_chunks, stepped.Metrics().prefill_chunks);
  EXPECT_EQ(run_metrics.mixed_steps, stepped.Metrics().mixed_steps);
}

// Cluster aggregation covers the chunked-prefill counters: the aggregate is
// the per-replica sum (and concatenation for branch_stalls).
TEST(Cluster, AggregatesChunkedPrefillMetrics) {
  Rng rng(72);
  serving::BurstyPrefillConfig wcfg;
  wcfg.num_steady = 60;
  wcfg.num_bursts = 2;
  wcfg.burst_size = 3;
  const auto workload = serving::BurstyLongPrefillWorkload(rng, wcfg);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.engine.prefill_chunk_tokens = 512;
  cfg.num_replicas = 3;
  cfg.policy = RouterPolicy::kLeastLoaded;
  const auto m = ClusterEngine(cfg).Run(workload);

  int64_t chunks = 0, mixed = 0, stalls = 0;
  size_t branch_stalls = 0;
  for (const auto& r : m.per_replica) {
    chunks += r.prefill_chunks;
    mixed += r.mixed_steps;
    stalls += r.itl_stall_steps;
    branch_stalls += r.branch_stalls.size();
  }
  EXPECT_GT(m.aggregate.prefill_chunks, 0);
  EXPECT_EQ(m.aggregate.prefill_chunks, chunks);
  EXPECT_EQ(m.aggregate.mixed_steps, mixed);
  EXPECT_EQ(m.aggregate.itl_stall_steps, stalls);
  EXPECT_EQ(m.aggregate.branch_stalls.size(), branch_stalls);
  EXPECT_EQ(m.aggregate.itl_stall_steps, 0);  // Chunked: no stalls anywhere.
}

TEST(Cluster, LeastLoadedBalancesBetterThanNothing) {
  Rng rng(44);
  const auto workload = serving::ShareGptWorkload(rng, 100, 40.0);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.policy = RouterPolicy::kLeastLoaded;
  const auto ll = ClusterEngine(cfg).Run(workload);

  EXPECT_EQ(ll.aggregate.ttft_ms.size(), workload.size());
  EXPECT_LE(ll.load_imbalance, 1.5);
  // All replicas served someone.
  for (int64_t n : ll.replica_requests) EXPECT_GT(n, 0);
}

TEST(Cluster, ImbalanceCapShedsHotTenant) {
  // One overwhelmingly hot tenant under heavy load: the imbalance cap must
  // shed some of its requests off the affinity target.
  Rng rng(55);
  serving::TenantPoolConfig pool;
  pool.num_tenants = 2;
  pool.zipf_s = 3.0;  // Tenant 1 dominates.
  const auto workload = serving::MultiTenantWorkload(rng, 150, 100.0, pool);

  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.num_replicas = 4;
  cfg.policy = RouterPolicy::kPrefixAffinity;
  EXPECT_GT(ClusterEngine(cfg).Run(workload).router.load_fallbacks, 0);
}

}  // namespace
}  // namespace flashinfer::cluster

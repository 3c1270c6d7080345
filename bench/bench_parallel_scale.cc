// Parallel-runtime bench: an 8-replica cluster under preemption and the
// packed heterogeneous-tile attention pricer.
//
// Two sections:
//
//  1. Cluster stepping: an 8-replica fleet under preemption pressure with
//     overlapped swap, stepped on one thread. Its simulated throughput is
//     pinned by the baseline; its wall time is reported, not gated.
//
//  2. Packed tiles (BackendConfig::packed_tiles): the PR 3 bursty mixed
//     chunk+decode workload is replayed with the batch-average tile heuristic
//     and with PackInfer-style compute/IO-aware class packing. Packed mode
//     must strictly reduce total attention time at equal simulated output —
//     the cost-model win that motivates packing heterogeneous qo_lens into
//     one persistent launch.
//
// Usage: bench_parallel_scale [--quick] [--json <path>] [--check <baseline>]
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "serving/workload.h"

using namespace flashinfer;
using namespace flashinfer::cluster;
using namespace flashinfer::serving;

namespace {

/// Replica config: chunking + preemption with overlapped swap, HBM sized to
/// ~8000 KV tokens so the workload below actually evicts.
EngineConfig ReplicaConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.prefill_chunk_tokens = 1024;
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  cfg.hbm_capacity_gb = HbmGbForKvBudget(cfg, 8000);
  return cfg;
}

ServingMetrics RunPacked(const std::vector<Request>& w, bool packed) {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  cfg.backend.packed_tiles = packed;
  cfg.prefill_chunk_tokens = 1024;
  cfg.batch_policy = BatchPolicy::kDecodePriority;
  return ServingEngine(cfg).Run(w);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");
  bench::JsonResult json;
  json.Add("bench", std::string("parallel_scale"));
  json.Add("quick", quick ? 1.0 : 0.0);

  bench::Banner("Parallel scale",
                "8-replica cluster stepping + packed heterogeneous tiles");

  // --- 1. Cluster stepping. -------------------------------------------------
  const int replicas = 8;
  const int reqs_per_replica = quick ? 40 : 120;
  Rng rng(0xD17E2);
  auto reqs = UniformWorkload(rng, replicas * reqs_per_replica,
                              replicas * 25.0, 512, 1024, 96);
  AssignPriorities(rng, reqs, {0.7, 0.3});

  std::printf("\n--- cluster stepping (%d replicas, %zu requests) ---\n", replicas,
              reqs.size());
  bench::Note("preemption + overlapped swap live on every replica.");

  ClusterConfig ccfg;
  ccfg.engine = ReplicaConfig();
  ccfg.num_replicas = replicas;
  ccfg.policy = RouterPolicy::kLeastLoaded;
  const bench::WallTimer cluster_timer;
  const ClusterMetrics cm = ClusterEngine(ccfg).Run(reqs);
  const double cluster_wall_ms = cluster_timer.ElapsedMs();
  AsciiTable t({"wall ms", "sim makespan s", "tok/s", "preempt"});
  t.AddRow({AsciiTable::Num(cluster_wall_ms, 1), AsciiTable::Num(cm.aggregate.makespan_s, 3),
            AsciiTable::Num(cm.ThroughputTokS(), 0),
            AsciiTable::Num(cm.aggregate.num_preemptions, 0)});
  t.Print();
  json.Add("cluster_wall_ms", cluster_wall_ms);
  json.Add("cluster_tok_s", cm.ThroughputTokS());

  // --- 2. Packed heterogeneous tiles on the PR 3 mixed-batch workload. -----
  BurstyPrefillConfig wcfg;
  const int scale = quick ? 2 : 1;
  wcfg.num_steady = 240 / scale;
  wcfg.steady_rate = 40.0;
  wcfg.steady_output = 64;
  wcfg.num_bursts = 8 / scale;
  wcfg.burst_size = 6;
  wcfg.first_burst_s = 1.0;
  wcfg.burst_period_s = 1.0;
  wcfg.burst_input_lo = 4096;
  wcfg.burst_input_hi = 8192;
  Rng prng(2027);
  const auto pw = BurstyLongPrefillWorkload(prng, wcfg);

  std::printf("\n--- packed tiles on mixed chunk+decode batches (chunk 1024) ---\n");
  const auto base = RunPacked(pw, /*packed=*/false);
  const auto packed = RunPacked(pw, /*packed=*/true);
  AsciiTable pt({"pricer", "tok/s", "attn ms", "P99 ITL", "makespan s"});
  for (const auto* m : {&base, &packed}) {
    pt.AddRow({m == &base ? "batch-average tile" : "packed classes",
               AsciiTable::Num(m->ThroughputTokS(), 0),
               AsciiTable::Num(m->total_attention_ms, 1),
               AsciiTable::Num(m->P99ItlMs(), 2),
               AsciiTable::Num(m->makespan_s, 3)});
  }
  pt.Print();
  const double attn_win = packed.total_attention_ms > 0
                              ? base.total_attention_ms / packed.total_attention_ms
                              : 0.0;
  const double packed_tok_frac =
      base.ThroughputTokS() > 0 ? packed.ThroughputTokS() / base.ThroughputTokS()
                                : 0.0;
  json.Add("base_attn_ms", base.total_attention_ms);
  json.Add("packed_attn_ms", packed.total_attention_ms);
  json.Add("packed_attn_win", attn_win);
  json.Add("packed_tok_frac", packed_tok_frac);
  bench::Note("\nexpected shape: the batch-average tile compromises every mixed");
  bench::Note("step (large tile starves decode rows, small tile shreds prefill");
  bench::Note("chunks); class packing prices each side at its natural tile and");
  bench::Note("the attention column drops with throughput held or improved.");

  // --- Gates. --------------------------------------------------------------
  const bool packed_ok =
      packed.total_attention_ms < base.total_attention_ms && packed_tok_frac >= 1.0 &&
      packed.total_output_tokens == base.total_output_tokens;
  std::printf("\npacked tiles: attention %.1f ms -> %.1f ms (%.2fx win, acceptance:"
              " < 1x ms), throughput %.1f%% of baseline (acceptance: >= 100%%)\n",
              base.total_attention_ms, packed.total_attention_ms, attn_win,
              100.0 * packed_tok_frac);
  json.Add("gate_packed_wins", packed_ok ? 1.0 : 0.0);
  json.Add("acceptance_passed", packed_ok ? 1.0 : 0.0);
  json.Add("wall_ms", wall_timer.ElapsedMs());
  if (!json.WriteTo(json_path)) return 1;
  if (!packed_ok) {
    std::printf("ACCEPTANCE FAILED\n");
    return 1;
  }
  if (const char* baseline = bench::ArgValue(argc, argv, "--check")) {
    if (!bench::CheckBaseline(baseline, json)) return 1;
  }
  return 0;
}

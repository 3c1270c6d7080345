// Disaggregated prefill/decode serving bench: decode-tail isolation from
// long-prompt bursts at matched replica count.
//
// The experiment mirrors the disaggregation literature's headline claim
// (DistServe/Splitwise): in a unified fleet, every long-prompt burst turns
// the co-resident decodes' steps into mixed steps, and the decode ITL tail
// inherits the chunk cost no matter how the router spreads load or how fine
// the chunks are. Splitting the same replica count into a prefill pool and a
// decode pool removes the interference mechanically — decode replicas never
// see a prompt; finished prefills arrive as KV migrations over an
// NVLink-class link, priced by gpusim::CopyStream and overlapped with decode
// compute. The cost of the split is the migration itself, so the bench also
// reports how much of the transfer time was hidden under executed steps
// (MigrationOverlapEfficiency) and how many units the decode pool bounced.
//
// Acceptance: disaggregated decode-pool P99 ITL strictly beats the BEST
// unified config (policy x chunk-size sweep) at the same replica count,
// migration is predominantly hidden (overlap efficiency > 0.5 with
// migrations actually happening), and both pools drain clean (per-replica
// device-KV gauges at zero, token conservation exact).
//
// Usage: bench_disagg [--quick] [--json <path>] [--check <baseline>]
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "obs/metrics.h"

using namespace flashinfer;
using namespace flashinfer::cluster;
using namespace flashinfer::serving;

namespace {

EngineConfig ReplicaConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

std::vector<Request> Workload(bool quick) {
  Rng rng(2026);
  BurstyPrefillConfig w;
  w.num_steady = quick ? 240 : 960;
  w.steady_rate = 50.0;
  w.steady_input_lo = 64;
  w.steady_input_hi = 256;
  w.steady_output = 160;
  w.num_bursts = quick ? 4 : 16;
  w.burst_size = 4;
  w.first_burst_s = 0.8;
  w.burst_period_s = 1.0;
  w.burst_input_lo = 8192;
  w.burst_input_hi = 14336;
  w.burst_output = 32;
  return BurstyLongPrefillWorkload(rng, w);
}

int64_t ExpectedOutputTokens(const std::vector<Request>& reqs) {
  int64_t total = 0;
  for (const auto& r : reqs) total += std::max<int64_t>(r.output_len, 1);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");
  bench::JsonResult json;
  json.Add("bench", std::string("disagg"));

  bench::Banner("Disaggregated serving",
                "prefill/decode pool split vs best unified config, 4 replicas");
  bench::Note("workload: steady short-prompt decode traffic overlaid with bursts of");
  bench::Note("8-14k-token prompts; Llama 3.1 8B per replica. The gate metric is the");
  bench::Note("decode ITL tail: unified replicas absorb burst chunks into mixed");
  bench::Note("steps, the decode pool never sees them.");

  const auto workload = Workload(quick);
  const int64_t expected_tokens = ExpectedOutputTokens(workload);
  const int replicas = 4;

  // --- Unified sweep: router policy x prefill chunk size. -------------------
  std::printf("\n--- unified configs (%d replicas, %zu requests) ---\n", replicas,
              workload.size());
  AsciiTable ut({"policy", "chunk", "throughput (tok/s)", "median ITL (ms)",
                 "P99 ITL (ms)", "P99 TTFT (ms)"});
  double best_unified_p99 = 0.0;
  std::string best_unified;
  for (const auto policy : {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoaded}) {
    for (const int64_t chunk : {int64_t{512}, int64_t{2048}}) {
      ClusterConfig cfg;
      cfg.engine = ReplicaConfig();
      cfg.engine.prefill_chunk_tokens = chunk;
      cfg.num_replicas = replicas;
      cfg.policy = policy;
      const ClusterMetrics m = ClusterEngine(cfg).Run(workload);
      const double p99 = m.aggregate.P99ItlMs();
      ut.AddRow({RouterPolicyName(policy), AsciiTable::Num(chunk, 0),
                 AsciiTable::Num(m.ThroughputTokS(), 0),
                 AsciiTable::Num(m.aggregate.MedianItlMs(), 2),
                 AsciiTable::Num(p99, 2),
                 AsciiTable::Num(m.aggregate.TtftPercentileMs(0.99), 1)});
      const std::string key = std::string(RouterPolicyName(policy)) + "_c" +
                              AsciiTable::Num(chunk, 0);
      json.Add("unified_" + key + "_p99_itl_ms", p99);
      if (best_unified.empty() || p99 < best_unified_p99) {
        best_unified_p99 = p99;
        best_unified = key;
      }
    }
  }
  ut.Print();
  std::printf("\nbest unified config: %s (P99 ITL %.2f ms)\n", best_unified.c_str(),
              best_unified_p99);
  json.Add("unified_best_p99_itl_ms", best_unified_p99);
  json.Add("unified_best_config", best_unified);

  // --- Disaggregated: 2 prefill + 2 decode over migration links. -----------
  ClusterConfig dcfg;
  dcfg.engine = ReplicaConfig();
  dcfg.engine.telemetry.enabled = true;  // Final KV gauges gate the drain.
  dcfg.num_replicas = replicas;
  dcfg.disaggregated = true;
  dcfg.prefill_replicas = 2;
  dcfg.policy = RouterPolicy::kLeastLoaded;
  ClusterEngine dce(dcfg);
  const ClusterMetrics dm = dce.Run(workload);

  std::printf("\n--- disaggregated (%d prefill + %d decode) ---\n",
              dcfg.prefill_replicas, replicas - dcfg.prefill_replicas);
  AsciiTable dt({"pool", "median ITL (ms)", "P99 ITL (ms)", "P99 TTFT (ms)",
                 "makespan (s)"});
  dt.AddRow({"prefill", AsciiTable::Num(dm.prefill_pool.MedianItlMs(), 2),
             AsciiTable::Num(dm.prefill_pool.P99ItlMs(), 2),
             AsciiTable::Num(dm.prefill_pool.TtftPercentileMs(0.99), 1),
             AsciiTable::Num(dm.prefill_pool.makespan_s, 2)});
  dt.AddRow({"decode", AsciiTable::Num(dm.decode_pool.MedianItlMs(), 2),
             AsciiTable::Num(dm.decode_pool.P99ItlMs(), 2), "-",
             AsciiTable::Num(dm.decode_pool.makespan_s, 2)});
  dt.Print();

  const double decode_p99 = dm.decode_pool.P99ItlMs();
  const double overlap_eff = dm.decode_pool.MigrationOverlapEfficiency().value_or(0.0);
  std::printf("\nmigrations: %lld shipped, %lld retained (decode pool full), "
              "%.1f Mtok KV moved\n",
              static_cast<long long>(dm.aggregate.num_migrations_out),
              static_cast<long long>(dm.aggregate.num_migrations_retained),
              static_cast<double>(dm.aggregate.migrated_kv_tokens) * 1e-6);
  std::printf("migration transfer time: %.1f ms total, %.1f ms hidden under "
              "decode steps, %.1f ms exposed as stalls (overlap efficiency "
              "%.0f%%)\n",
              dm.decode_pool.total_migration_ms, dm.decode_pool.migration_hidden_ms,
              dm.decode_pool.migration_stall_ms, 100.0 * overlap_eff);

  json.Add("disagg_decode_p99_itl_ms", decode_p99);
  json.Add("disagg_decode_median_itl_ms", dm.decode_pool.MedianItlMs());
  json.Add("disagg_p99_ttft_ms", dm.prefill_pool.TtftPercentileMs(0.99));
  json.Add("disagg_tok_s", dm.ThroughputTokS());
  json.Add("migrations", static_cast<double>(dm.aggregate.num_migrations_out));
  json.Add("migrations_retained", static_cast<double>(dm.aggregate.num_migrations_retained));
  json.Add("migration_overlap_eff", overlap_eff);
  json.Add("migration_total_ms", dm.decode_pool.total_migration_ms);
  json.Add("migration_stall_ms", dm.decode_pool.migration_stall_ms);

  // --- Drain exactness: conservation + per-replica device-KV gauges. -------
  bool drain_ok =
      dm.aggregate.rejected_requests == 0 &&
      dm.aggregate.ttft_ms.size() == workload.size() &&
      dm.aggregate.total_output_tokens == expected_tokens &&
      dm.prefill_pool.num_migrations_out == dm.decode_pool.num_migrations_in;
  const obs::MetricsRegistry* reg = dce.Telemetry();
  for (int i = 0; reg != nullptr && i < replicas; ++i) {
    const obs::Gauge* g = reg->Find<obs::Gauge>("fi_kv_device_tokens", obs::Labels::Replica(i));
    drain_ok = drain_ok && g != nullptr && g->value() == 0.0;
  }
  std::printf("drain check: %s (token conservation + zero final KV on all %d "
              "replicas)\n",
              drain_ok ? "clean" : "FAILED", replicas);

  // --- Gates. ---------------------------------------------------------------
  const double isolation = decode_p99 > 0.0 ? best_unified_p99 / decode_p99 : 0.0;
  const bool gate_isolated = decode_p99 > 0.0 && decode_p99 < best_unified_p99;
  const bool gate_overlap = dm.aggregate.num_migrations_out > 0 && overlap_eff > 0.5;
  std::printf("\ndecode P99 ITL: %.2f ms disaggregated vs %.2f ms best unified "
              "(%.2fx, acceptance: strictly better)\n",
              decode_p99, best_unified_p99, isolation);
  std::printf("migration overlap efficiency: %.0f%% (acceptance: > 50%%, with "
              "migrations > 0)\n",
              100.0 * overlap_eff);
  json.Add("itl_isolation_x", isolation);
  json.Add("gate_itl_isolated", gate_isolated ? 1.0 : 0.0);
  json.Add("gate_overlap", gate_overlap ? 1.0 : 0.0);
  json.Add("gate_drain", drain_ok ? 1.0 : 0.0);
  const bool ok = gate_isolated && gate_overlap && drain_ok;
  json.Add("acceptance_passed", ok ? 1.0 : 0.0);
  json.Add("wall_ms", wall_timer.ElapsedMs());
  if (!json.WriteTo(json_path)) return 1;
  if (!ok) {
    std::printf("ACCEPTANCE FAILED\n");
    return 1;
  }
  if (const char* baseline = bench::ArgValue(argc, argv, "--check")) {
    if (!bench::CheckBaseline(baseline, json)) return 1;
  }
  return 0;
}

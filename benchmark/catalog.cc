#include "catalog.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "workloads.h"

namespace fi_bench {

namespace {

constexpr double kNoBound = -1.0;

// Layer groups and the end-to-end metric each should move.
constexpr const char* kPriceLayer = "serving.backends pricing + sparse + runtime + gpusim";
constexpr const char* kPriceMoves =
    "sim_wall_s on sharegpt and parallel_n4; a small effect on tenant_prefix";
constexpr const char* kRadixLayer = "kvcache/radix + cluster";
constexpr const char* kRadixMoves = "sim_wall_s on tenant_prefix only";
constexpr const char* kRouteLayer = "cluster routing outcome";
constexpr const char* kRouteMoves =
    "ttft_p50_ms (hits) and ttft_p99_ms (imbalance) on tenant_prefix";
constexpr const char* kEngineLayer = "serving.engine";
constexpr const char* kEngineSelfMoves =
    "sim_wall_s on kv_pressure, where pricing is the smallest share";
constexpr const char* kEngineShapeMoves =
    "itl_* and tok_s on sharegpt and parallel_n4";
constexpr const char* kEngineQueueMoves = "ttft_p99_ms and slo_rate_rps";
constexpr const char* kKvLayer = "kvcache paged tier + util/codec";
constexpr const char* kKvMoves = "ttft_p99_ms and slo_rate_rps on kv_pressure";
constexpr const char* kObsLayer = "obs";

const std::vector<MetricSpec> kCatalog = {
    // --- End to end (tracing off). ---------------------------------------
    {"ttft_p50_ms", "ms", "lower", 0.25, "end-to-end", "",
     "median simulated time to first token, pooled over the traffic windows"},
    {"ttft_p99_ms", "ms", "lower", 0.25, "end-to-end", "",
     "p99 simulated time to first token, pooled over the traffic windows"},
    {"itl_p50_ms", "ms", "lower", 0.20, "end-to-end", "",
     "median simulated inter-token gap, pooled over the traffic windows"},
    {"itl_p999_ms", "ms", "lower", 0.25, "end-to-end", "",
     "p99.9 simulated inter-token gap, pooled (>= 250 samples beyond it on every workload)"},
    {"tok_s", "tok/s", "higher", 0.20, "end-to-end", "",
     "simulated output tokens / simulated makespan, summed over the traffic windows"},
    {"slo_rate_rps", "req/s", "higher", 0.25, "end-to-end", "",
     "highest probed rate at which the first windows (>= 1200 requests, pooled) meet "
     "p99 TTFT <= 200 ms, p99 ITL <= 100 ms and no failures"},
    {"sim_wall_s", "s", "lower", 0.25, "end-to-end", "",
     "host wall time of Run() over the nominal windows, summed (per window the median of "
     "its timed runs), scaled to the reference host speed"},
    {"setup_s", "s", "lower", 0.25, "end-to-end", "",
     "generating window 0's requests, building the engine (or ClusterEngine and its "
     "replica engines) and, on single engines, Admit() of every request; median of "
     "repeated set-ups, scaled to the reference host speed"},
    {"peak_rss_mb", "MB", "lower", 0.25, "end-to-end", "", "getrusage max RSS of the invocation"},

    // --- Attention pricing. ----------------------------------------------
    {"price.calls", "count", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "SimulateBatchAttention calls (steps with attention rows)"},
    {"price.us_per_call_p50", "us", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "host time of one SimulateBatchAttention replay, median"},
    {"price.us_per_call_p99", "us", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "host time of one SimulateBatchAttention replay, p99"},
    {"price.share_of_step", "ratio", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "replayed pricing time / StepTo span time"},
    {"price.rows_per_call_mean", "rows", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "attention rows (requests) per priced step"},
    {"price.work_items_per_call_mean", "items", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "work items in the step's plan"},
    {"bsr.us_per_call_p50", "us", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "host time of sparse::BuildBatchBsr on the step's lowering, median"},
    {"plan.us_per_call_p50", "us", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "host time of MakeBalancedPlan on the step's lowering, median"},
    {"makespan.us_per_call_p50", "us", "lower", kNoBound, kPriceLayer, kPriceMoves,
     "host time of SimExecutor::Makespan over the step's CTA times, median"},
    {"price.repeat_shape_frac", "ratio", "higher", kNoBound, kPriceLayer,
     "sizes a plan memo before anyone writes one",
     "priced steps whose exact attention shape was priced before"},
    {"price.kv_plus1_frac", "ratio", "higher", kNoBound, kPriceLayer,
     "sizes an incremental plan before anyone writes one",
     "priced steps equal to the previous one with every kv_len + 1"},

    // --- Prefix mirrors and the cluster driver. ----------------------------
    {"radix.match_us_per_req", "us/req", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "replayed RadixTree::MatchPrefix host time per routed request"},
    {"radix.insert_us_per_req", "us/req", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "replayed RadixTree::Insert host time per routed request"},
    {"radix.evict_us_per_req", "us/req", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "replayed RadixTree::EvictLru host time per routed request"},
    {"radix.peek_us_per_req", "us/req", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "replayed PeekPrefixTokens host time over all replicas per routed request"},
    {"radix.evicted_pages_per_req", "pages/req", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "mirror pages evicted per routed request"},
    {"cluster.run_s", "s", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "traced run wall time (cluster Run(), or the single engine's stepping driver)"},
    {"cluster.driver_s", "s", "lower", kNoBound, kRadixLayer, kRadixMoves,
     "cluster.run_s minus the replica replays (single engine: minus its StepTo spans)"},

    // --- Routing outcome. --------------------------------------------------
    {"cluster.prefix_hit_rate", "ratio", "higher", kNoBound, kRouteLayer, kRouteMoves,
     "matched prompt tokens / prompt tokens of routed requests"},
    {"engine.cached_prefix_frac", "ratio", "higher", kNoBound, kRouteLayer, kRouteMoves,
     "prompt tokens served from a cached prefix / prompt tokens"},
    {"cluster.load_imbalance", "ratio", "lower", kNoBound, kRouteLayer, kRouteMoves,
     "max / mean processed tokens over replicas"},
    {"cluster.fallback_frac", "ratio", "lower", kNoBound, kRouteLayer, kRouteMoves,
     "routing decisions that fell back from the affinity target"},

    // --- Engine stepping. ----------------------------------------------------
    {"engine.steps", "count", "lower", kNoBound, kEngineLayer, kEngineShapeMoves,
     "executed work steps"},
    {"engine.step_us_p50", "us", "lower", kNoBound, kEngineLayer, kEngineSelfMoves,
     "host time of one StepTo call, median"},
    {"engine.step_us_p99", "us", "lower", kNoBound, kEngineLayer, kEngineSelfMoves,
     "host time of one StepTo call, p99"},
    {"engine.self_us_per_step", "us", "lower", kNoBound, kEngineLayer, kEngineSelfMoves,
     "(StepTo span time - replayed pricing time) / steps"},
    {"engine.decode_rows_mean", "rows", "higher", kNoBound, kEngineLayer, kEngineShapeMoves,
     "decode rows per work step"},
    {"engine.prefill_tokens_per_step_mean", "tokens", "higher", kNoBound, kEngineLayer,
     kEngineShapeMoves, "prefill chunk tokens per work step"},
    {"engine.mixed_step_frac", "ratio", "higher", kNoBound, kEngineLayer, kEngineShapeMoves,
     "work steps batching prefill chunks with decode rows"},
    {"engine.queue_wait_ms_p50", "ms", "lower", kNoBound, kEngineLayer, kEngineQueueMoves,
     "simulated arrival -> admission wait (kReqQueued), median"},
    {"engine.queue_wait_ms_p99", "ms", "lower", kNoBound, kEngineLayer, kEngineQueueMoves,
     "simulated arrival -> admission wait (kReqQueued), p99"},
    {"sim.attn_share", "ratio", "lower", kNoBound, kEngineLayer, kEngineShapeMoves,
     "simulated attention time / BusyMs()"},
    {"sim.step_ms_decode_p50", "ms", "lower", kNoBound, kEngineLayer, kEngineShapeMoves,
     "simulated duration of decode-only steps, median"},
    {"sim.step_ms_mixed_p50", "ms", "lower", kNoBound, kEngineLayer, kEngineShapeMoves,
     "simulated duration of mixed prefill+decode steps, median"},

    // --- Paged KV tier and codec. ------------------------------------------
    {"kv.preemptions", "count", "lower", kNoBound, kKvLayer, kKvMoves, "branches preempted"},
    {"kv.swap_restores", "count", "lower", kNoBound, kKvLayer, kKvMoves,
     "preempted branches restored by swap-in"},
    {"kv.recompute_restores", "count", "lower", kNoBound, kKvLayer, kKvMoves,
     "preempted branches restored by recompute"},
    {"kv.evicted_pages", "count", "lower", kNoBound, kKvLayer, kKvMoves,
     "device KV pages released by evictions"},
    {"kv.swap_hidden_frac", "ratio", "higher", kNoBound, kKvLayer, kKvMoves,
     "swap transfer time hidden under compute / swap transfer time (0 without swaps)"},
    {"kv.swap_stall_share", "ratio", "lower", kNoBound, kKvLayer, kKvMoves,
     "simulated time stalled on swap-ins / simulated makespan"},
    {"kv.host_stored_ratio", "ratio", "lower", kNoBound, kKvLayer, kKvMoves,
     "stored / logical bytes of everything evicted to the host tier (1 when none)"},
    {"kv.device_util_mean", "ratio", "higher", kNoBound, kKvLayer, kKvMoves,
     "device KV tokens in use / KV budget, mean over steps"},
    {"kv.quant_mse", "mse", "lower", kNoBound, kKvLayer, "kv_quant output-quality proxy",
     "MeanPageQuantMse(): mean per-page quantization MSE (0 without quantized evictions)"},

    // --- Observability. ----------------------------------------------------
    {"obs.telemetry_overhead_frac", "ratio", "lower", kNoBound, kObsLayer,
     "sim_wall_s on kv_pressure",
     "Run() wall with telemetry / without - 1 (kv_pressure; 0 elsewhere)"},
    {"obs.trace_overhead_frac", "ratio", "lower", kNoBound, kObsLayer,
     "discounts the per-layer times", "traced wall / untraced wall - 1"},
};

/// nullptr for an unknown name.
const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& m : kCatalog) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

}  // namespace

void PrintCatalog() {
  std::printf("workloads (open-loop Poisson arrivals, seeded):\n");
  for (const Workload& w : Workloads()) {
    std::printf("  %-14s %5d requests at %g req/s, %d replica(s)\n      %s\n",
                w.name.c_str(), w.requests, w.rate_rps, w.cluster.num_replicas,
                w.why.c_str());
  }
  std::printf("\nend-to-end metrics (tracing off; bound = allowed worsening as a share "
              "of the parent's median):\n");
  for (const MetricSpec& m : kCatalog) {
    if (!m.EndToEnd()) continue;
    std::printf("  %-16s %-6s %-6s bound %.2f  %s\n", m.name, m.unit, m.better, m.bound,
                m.definition);
  }
  std::printf("\nper-layer metrics (--trace; no bound):\n");
  const char* layer = "";
  for (const MetricSpec& m : kCatalog) {
    if (m.EndToEnd()) continue;
    if (std::strcmp(layer, m.layer) != 0) {
      layer = m.layer;
      std::printf("  [%s]\n", layer);
    }
    std::printf("    %-34s %-9s %-6s -> %s\n        %s\n", m.name, m.unit, m.better, m.moves,
                m.definition);
  }
}

void Report::Set(const std::string& name, double value) {
  const MetricSpec* spec = FindMetric(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "fi_bench: metric %s is not catalogued\n", name.c_str());
    std::abort();
  }
  values.emplace_back(spec, value);
}

void Report::Print() const {
  std::printf("\n%s metrics, workload %s, seed %llu: %lld sent, %lld ok, %lld failed; "
              "%lld checks, %lld failed\n",
              mode.c_str(), workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<long long>(sent), static_cast<long long>(ok),
              static_cast<long long>(failed), static_cast<long long>(checks),
              static_cast<long long>(checks_failed));
  for (const auto& [spec, value] : values) {
    std::printf("  %-34s %16.6g %s\n", spec->name, value, spec->unit);
  }
}

bool Report::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fi_bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"mode\": \"%s\",\n"
               "  \"sent\": %lld,\n  \"ok\": %lld,\n  \"failed\": %lld,\n"
               "  \"checks\": %lld,\n  \"checks_failed\": %lld,\n  \"metrics\": {",
               workload.c_str(), static_cast<unsigned long long>(seed), mode.c_str(),
               static_cast<long long>(sent), static_cast<long long>(ok),
               static_cast<long long>(failed), static_cast<long long>(checks),
               static_cast<long long>(checks_failed));
  for (size_t i = 0; i < values.size(); ++i) {
    const auto& [spec, value] = values[i];
    // JSON has no NaN/inf: a non-finite value is written as null and
    // run.py rejects it.
    char num[40];
    if (std::isfinite(value)) {
      std::snprintf(num, sizeof(num), "%.17g", value);
    } else {
      std::snprintf(num, sizeof(num), "null");
    }
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\", \"better\": \"%s\"",
                 i == 0 ? "" : ",", spec->name, num, spec->unit, spec->better);
    if (spec->EndToEnd()) std::fprintf(f, ", \"bound\": %g", spec->bound);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace fi_bench

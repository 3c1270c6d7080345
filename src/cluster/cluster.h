// Data-parallel cluster serving simulator: N replica engines behind a router.
//
// Each replica is a full ServingEngine (its own KV budget, scheduler, and
// cost model) plus a router-side RadixTree mirroring the prompt prefixes the
// replica has served. The driver is event-driven: before every arrival it
// advances each replica with StepTo(arrival) — replicas execute the steps
// they would have started by then — so routing decisions observe live
// queued/running load, exactly like a router polling engine metrics.
//
// Prefix-cache modeling: Run() inserts a routed request's full prompt pages
// into the target replica's tree. The pages already there are its cached
// (page-aligned) prefix, and its prefill computes only the uncached suffix
// (Request::cached_prefix_len). The mirror is then LRU-evicted down to a
// per-replica page budget. Matching happens at admission, not at
// prefill completion — an idealization that slightly favors bursts of
// identical prefixes (real engines would stall or recompute in that window).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/router.h"
#include "gpusim/copystream.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serving/engine.h"

namespace flashinfer::cluster {

struct ClusterConfig {
  /// Per-replica engine configuration (every replica is identical).
  serving::EngineConfig engine;
  int num_replicas = 4;
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  /// Per-replica prefix-cache capacity in pages; 0 derives it from the
  /// replica's KV token budget (the cache can hold what the HBM could).
  int64_t prefix_cache_pages = 0;
  /// Disaggregated prefill/decode serving: the first `prefill_replicas`
  /// replicas form the prefill pool (their engines run with
  /// export_at_first_token), the rest the decode pool. New prompts route
  /// over the prefill pool only; at first token each finished-prefill unit's
  /// KV migrates to the decode replica with the most KV headroom over a
  /// per-replica-pair link (per-pair gpusim::CopyStream, FIFO), or falls
  /// back to the prefill replica's own decode loop when no decode replica
  /// can take it. Off by default: the unified driver is untouched.
  bool disaggregated = false;
  int prefill_replicas = 1;
};

/// Per-replica aggregation of ServingMetrics plus router-level signals.
struct ClusterMetrics {
  std::vector<serving::ServingMetrics> per_replica;
  /// Merged view: concatenated TTFT/ITL samples, summed counters, makespan =
  /// max over replicas (replicas run concurrently).
  serving::ServingMetrics aggregate;
  /// Busy fraction of the cluster makespan, per replica.
  std::vector<double> replica_utilization;
  /// Requests routed to each replica.
  std::vector<int64_t> replica_requests;
  /// max/mean over replicas of processed tokens (prefill + decode): 1.0 is
  /// perfectly balanced.
  double load_imbalance = 1.0;
  /// Matched prompt tokens / total prompt tokens across routed requests
  /// (requests without token ids are excluded).
  double prefix_hit_rate = 0.0;
  RouterStats router;
  double makespan_s = 0.0;

  // --- Disaggregated mode (zero/empty when ClusterConfig::disaggregated is
  // off) ---------------------------------------------------------------------
  /// Pool of each replica: 0 = prefill, 1 = decode. Empty in unified mode.
  std::vector<int> replica_pool;
  /// Pool-level metric aggregates (same merge as `aggregate`, split by
  /// pool): decode_pool's ITL distribution is the isolation headline.
  /// Units shipped prefill -> decode over the migration links are
  /// `aggregate.num_migrations_out`; units no decode replica could take (they
  /// decode on their prefill replica) are `aggregate.num_migrations_retained`.
  serving::ServingMetrics prefill_pool;
  serving::ServingMetrics decode_pool;

  double ThroughputTokS() const {
    return makespan_s > 0.0
               ? static_cast<double>(aggregate.total_output_tokens) / makespan_s
               : 0.0;
  }
};

class ClusterEngine {
 public:
  explicit ClusterEngine(ClusterConfig cfg);
  ~ClusterEngine();

  /// Routes and simulates the full workload across all replicas.
  ClusterMetrics Run(const std::vector<serving::Request>& workload);

  /// Merged trace of the last Run(): one track per replica ("replica i",
  /// that engine's events) plus a "router" track of kRouteDecision instants
  /// stamped at each request's arrival (a=target replica, b=matched prefix
  /// tokens). Empty when `cfg.engine.trace` is disabled.
  const std::vector<obs::TraceTrack>& LastTrace() const noexcept {
    return last_trace_;
  }

  /// Cluster-wide metrics registry of the last Run(): every replica's
  /// registry merged under a `replica="i"` label (per-replica instances stay
  /// distinct in the merged exposition). Nullptr when
  /// `cfg.engine.telemetry` is disabled.
  const obs::MetricsRegistry* Telemetry() const noexcept { return telemetry_.get(); }

 private:
  struct Replica;

  /// Disaggregated mode: drains every prefill replica's exportable pool —
  /// each unit either migrates to the decode replica with the most KV
  /// headroom (its transfer charged to the pair link's CopyStream from the
  /// unit's export time) or is retained on its source. Always empties the
  /// pools, so no unit waits more than one processing round and no engine
  /// stays blocked on the cluster.
  void ProcessMigrations();
  /// Replica i's load as routers and migration-target selection see it.
  ReplicaView ViewOf(size_t i) const;

  ClusterConfig cfg_;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<obs::TraceTrack> last_trace_;
  std::unique_ptr<obs::MetricsRegistry> telemetry_;

  // --- Disaggregated mode state (rebuilt per Run) ---------------------------
  /// One migration link per (prefill, decode) replica pair, indexed
  /// src * decode_replicas + (dst - prefill_replicas). FIFO per pair: a
  /// unit's transfer queues behind earlier units on the same link, and the
  /// queueing delay is visible in the destination's ready_s gate.
  std::vector<gpusim::CopyStream> pair_streams_;
};

}  // namespace flashinfer::cluster

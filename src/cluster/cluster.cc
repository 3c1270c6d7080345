#include "cluster/cluster.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace flashinfer::cluster {

using serving::Request;
using serving::ServingEngine;
using serving::ServingMetrics;

namespace {

/// Inter-replica KV migration link (NVLink/RDMA-class, one per replica
/// pair): bandwidth in GB/s and fixed latency per transfer.
constexpr double kMigrationGbps = 64.0;
constexpr double kMigrationLatencyUs = 150.0;
/// Per-page migration overhead, microseconds: paged KV crosses the link as
/// block-granular gather/scatter copies, like the PCIe swap path.
constexpr double kMigrationPageOverheadUs = 10.0;

/// Merges one replica's metrics into a running aggregate: sample vectors
/// concatenate, every kMetricFields counter sums, the ITL sketch and the
/// acceptance histogram merge. The caller owns makespan (max over replicas,
/// since replicas run concurrently).
void MergeInto(ServingMetrics& agg, const ServingMetrics& m) {
  agg.ttft_ms.insert(agg.ttft_ms.end(), m.ttft_ms.begin(), m.ttft_ms.end());
  agg.ttft_priority.insert(agg.ttft_priority.end(), m.ttft_priority.begin(),
                           m.ttft_priority.end());
  agg.itl_ms.insert(agg.itl_ms.end(), m.itl_ms.begin(), m.itl_ms.end());
  agg.itl_sketch.MergeFrom(m.itl_sketch);
  for (const serving::MetricField& f : serving::kMetricFields) f.AddTo(agg, m);
  agg.branch_stalls.insert(agg.branch_stalls.end(), m.branch_stalls.begin(),
                           m.branch_stalls.end());
  if (agg.accepted_len_hist.size() < m.accepted_len_hist.size()) {
    agg.accepted_len_hist.resize(m.accepted_len_hist.size(), 0);
  }
  for (size_t k = 0; k < m.accepted_len_hist.size(); ++k) {
    agg.accepted_len_hist[k] += m.accepted_len_hist[k];
  }
}

/// `r` without its prompt ids, which the engine never reads (workload.h):
/// the router and the mirrors read the workload's own copy.
Request WithoutPrompt(const Request& r) {
  Request out;
  out.id = r.id;
  out.arrival_s = r.arrival_s;
  out.input_len = r.input_len;
  out.output_len = r.output_len;
  out.parallel_n = r.parallel_n;
  out.cached_prefix_len = r.cached_prefix_len;
  out.tenant = r.tenant;
  out.accept_prob = r.accept_prob;
  out.priority = r.priority;
  return out;
}

}  // namespace

struct ClusterEngine::Replica {
  explicit Replica(const serving::EngineConfig& cfg)
      : engine(cfg), prefix_cache(cfg.page_size) {}

  ServingEngine engine;
  RadixTree prefix_cache;  // Router-side mirror keyed by prompt token ids.
  int64_t requests = 0;
};

ClusterEngine::ClusterEngine(ClusterConfig cfg) : cfg_(std::move(cfg)) {
  FI_CHECK_GE(cfg_.num_replicas, 1);
  if (cfg_.disaggregated) {
    // At least one replica in each pool.
    FI_CHECK_GE(cfg_.prefill_replicas, 1);
    FI_CHECK_LT(cfg_.prefill_replicas, cfg_.num_replicas);
  }
}

ClusterEngine::~ClusterEngine() = default;

void ClusterEngine::ProcessMigrations() {
  const size_t prefill_n = static_cast<size_t>(cfg_.prefill_replicas);
  const size_t decode_n = replicas_.size() - prefill_n;
  const double kv_bytes_per_token =
      cfg_.engine.model.KvBytesPerToken(cfg_.engine.backend.kv_dtype);
  for (size_t src = 0; src < prefill_n; ++src) {
    replicas_[src]->engine.HandOffExportable([&](const serving::MigrationUnit& u) {
      // Destination candidates: decode replicas that can take the unit's
      // full reservation right now. CanAcceptMigration is the ground truth;
      // PickByKvHeadroom then prefers the emptiest device.
      std::vector<ReplicaView> dviews;
      for (size_t d = prefill_n; d < replicas_.size(); ++d) {
        if (replicas_[d]->engine.CanAcceptMigration(u)) dviews.push_back(ViewOf(d));
      }
      const int dst = dviews.empty() ? -1 : PickByKvHeadroom(dviews, u.kv_charge);
      // No decode replica fits: the unit decodes where it prefilled.
      if (dst < 0) return false;
      // Transfer priced like the swap path (latency + per-page scatter
      // overhead + bytes over the link), issued at the unit's export time so
      // the pair link's FIFO backlog is measured from when the KV was ready,
      // not from when the driver got around to processing it.
      const double t_us =
          kMigrationLatencyUs + static_cast<double>(u.pages) * kMigrationPageOverheadUs +
          static_cast<double>(u.kv_tokens) * kv_bytes_per_token / (kMigrationGbps * 1e3);
      gpusim::CopyStream& link =
          pair_streams_[src * decode_n + (static_cast<size_t>(dst) - prefill_n)];
      replicas_[static_cast<size_t>(dst)]->engine.AdmitMigratedUnit(
          u, link.Enqueue(u.export_s, t_us));
      return true;
    });
  }
}

ReplicaView ClusterEngine::ViewOf(size_t i) const {
  const Replica& rep = *replicas_[i];
  ReplicaView v;
  v.replica = static_cast<int>(i);
  v.queued_tokens = rep.engine.QueuedTokens();
  v.running_tokens = rep.engine.RunningTokens();
  v.kv_tokens_in_use = rep.engine.KvTokensInUse();
  v.kv_token_budget = rep.engine.KvTokenBudget();
  v.prefix_cache = &rep.prefix_cache;
  return v;
}

ClusterMetrics ClusterEngine::Run(const std::vector<Request>& workload) {
  // Full reset: fresh router stats and cold prefix-cache mirrors, so
  // back-to-back Run() calls on one ClusterEngine are independent.
  router_ = CreateRouter(cfg_.policy);
  replicas_.clear();
  for (int i = 0; i < cfg_.num_replicas; ++i) {
    serving::EngineConfig ecfg = cfg_.engine;
    if (cfg_.disaggregated && i < cfg_.prefill_replicas) {
      ecfg.export_at_first_token = true;
    }
    replicas_.push_back(std::make_unique<Replica>(ecfg));
  }
  // Routing pool: all replicas in unified mode, the prefill pool in
  // disaggregated mode (decode replicas never see raw prompts).
  const size_t prefill_n =
      cfg_.disaggregated ? static_cast<size_t>(cfg_.prefill_replicas) : replicas_.size();
  pair_streams_.clear();
  if (cfg_.disaggregated) {
    pair_streams_.resize(prefill_n * (replicas_.size() - prefill_n));
  }

  // Arrival order, by pointer: the prompts are never copied.
  std::vector<const Request*> sorted(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) sorted[i] = &workload[i];
  std::stable_sort(sorted.begin(), sorted.end(), [](const Request* a, const Request* b) {
    return a->arrival_s < b->arrival_s;
  });

  const int64_t cache_pages =
      cfg_.prefix_cache_pages > 0
          ? cfg_.prefix_cache_pages
          : replicas_.empty() ? 0
                              : replicas_[0]->engine.KvTokenBudget() / cfg_.engine.page_size;

  int64_t matched_prompt_tokens = 0;
  int64_t total_prompt_tokens = 0;
  const bool tracing = cfg_.engine.trace.enabled;
  std::vector<obs::TraceEvent> router_events;
  // The mirrors never read page ids: one placeholder buffer backs every
  // Insert.
  std::vector<int64_t> no_page_ids;

  // Routes `r` to one of the first `prefill_n` replicas, applies the
  // prefix-cache mirror, and admits. Caller has already advanced every
  // replica to r.arrival_s, so the views are live load.
  auto route_and_admit = [&](const Request& r) {
    std::vector<ReplicaView> views;
    views.reserve(prefill_n);
    for (size_t i = 0; i < prefill_n; ++i) views.push_back(ViewOf(i));
    const int target = router_->Route(r, views);
    FI_CHECK_GE(target, 0);
    FI_CHECK_LT(target, static_cast<int>(prefill_n));
    Replica& rep = *replicas_[static_cast<size_t>(target)];

    Request routed = WithoutPrompt(r);
    if (!r.prompt_tokens.empty()) {
      // One walk mirrors the prompt into the replica's cache; the full pages
      // it did not add are the cached prefix (see radix.h).
      const int64_t full_pages =
          static_cast<int64_t>(r.prompt_tokens.size()) / cfg_.engine.page_size;
      no_page_ids.resize(std::max(no_page_ids.size(), static_cast<size_t>(full_pages)));
      const int64_t added = rep.prefix_cache.Insert(r.prompt_tokens, no_page_ids);
      routed.cached_prefix_len = (full_pages - added) * cfg_.engine.page_size;
      matched_prompt_tokens += routed.cached_prefix_len;
      total_prompt_tokens += routed.input_len;
      if (cache_pages > 0 && rep.prefix_cache.TotalCachedPages() > cache_pages) {
        rep.prefix_cache.EvictLru(rep.prefix_cache.TotalCachedPages() - cache_pages);
      }
    }
    if (tracing) {
      obs::TraceEvent e;
      e.ts_us = r.arrival_s * 1e6;
      e.name = obs::TraceName::kRouteDecision;
      e.req = r.id;
      e.a = target;
      e.b = routed.cached_prefix_len;
      router_events.push_back(e);
    }
    rep.engine.Admit(std::move(routed));
    ++rep.requests;
  };

  // Each arrival first advances every replica to its time (each executes the
  // steps it would have started by now, so the router sees live load), then
  // is routed. Disaggregated mode also steps the prefill pool event by event:
  // each fine step can park exportable units, and processing them while the
  // destination clocks still trail the transfer end keeps the decode side's
  // ready_s gating exact. The decode pool needs no fine stepping — its
  // admissions carry absolute ready times, so batch-advancing it at arrival
  // barriers reproduces the same step sequence. ProcessMigrations always
  // empties the exportable pools (ship or retain), so every round makes
  // progress and no engine is left blocked on the driver.
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t k = 0;; ++k) {
    const double t_arrival = k < sorted.size() ? sorted[k]->arrival_s : inf;
    while (cfg_.disaggregated) {
      ProcessMigrations();
      double t_prefill = inf;
      for (size_t i = 0; i < prefill_n; ++i) {
        t_prefill = std::min(t_prefill, replicas_[i]->engine.NextEventTime());
      }
      if (t_prefill == inf || t_prefill > t_arrival) break;
      for (size_t i = 0; i < prefill_n; ++i) replicas_[i]->engine.StepTo(t_prefill);
    }
    if (k == sorted.size()) break;
    for (auto& rep : replicas_) rep->engine.StepTo(t_arrival);
    route_and_admit(*sorted[k]);
  }
  // The prefill pool is fully drained (incl. retained fallbacks) by the final
  // fine-stepping loop; this Drain finishes every other replica's work.
  for (auto& rep : replicas_) rep->engine.Drain();

  // --- Merged telemetry: every replica's registry under replica="i". -------
  telemetry_.reset();
  if (cfg_.engine.telemetry.enabled) {
    telemetry_ = std::make_unique<obs::MetricsRegistry>(cfg_.engine.telemetry.window);
    for (size_t i = 0; i < replicas_.size(); ++i) {
      telemetry_->MergeFrom(*replicas_[i]->engine.Telemetry(), static_cast<int>(i));
    }
  }

  // --- Merged trace: one track per replica plus the router's decisions. ----
  last_trace_.clear();
  if (tracing) {
    for (size_t i = 0; i < replicas_.size(); ++i) {
      last_trace_.push_back(
          {"replica " + std::to_string(i), replicas_[i]->engine.TraceEvents()});
    }
    last_trace_.push_back({"router", std::move(router_events)});
  }

  // --- Aggregate ------------------------------------------------------------
  ClusterMetrics out;
  out.router = router_->Stats();
  size_t ttft_samples = 0, itl_samples = 0, stalls = 0;
  for (auto& rep : replicas_) {
    const ServingMetrics& m = out.per_replica.emplace_back(rep->engine.TakeMetrics());
    ttft_samples += m.ttft_ms.size();
    itl_samples += m.itl_ms.size();
    stalls += m.branch_stalls.size();
  }
  // Sized once: the aggregate concatenates every replica's samples.
  out.aggregate.ttft_ms.reserve(ttft_samples);
  out.aggregate.ttft_priority.reserve(ttft_samples);
  out.aggregate.itl_ms.reserve(itl_samples);
  out.aggregate.branch_stalls.reserve(stalls);
  std::vector<double> work_tokens;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const ServingMetrics& m = out.per_replica[i];
    out.replica_requests.push_back(replicas_[i]->requests);
    out.makespan_s = std::max(out.makespan_s, m.makespan_s);
    work_tokens.push_back(
        static_cast<double>(m.total_prefill_tokens + m.total_output_tokens));
    MergeInto(out.aggregate, m);
  }
  out.aggregate.makespan_s = out.makespan_s;

  if (cfg_.disaggregated) {
    out.replica_pool.resize(replicas_.size());
    for (size_t i = 0; i < replicas_.size(); ++i) {
      const bool prefill = i < prefill_n;
      out.replica_pool[i] = prefill ? 0 : 1;
      ServingMetrics& pool = prefill ? out.prefill_pool : out.decode_pool;
      MergeInto(pool, out.per_replica[i]);
      pool.makespan_s = std::max(pool.makespan_s, out.per_replica[i].makespan_s);
    }
  }

  for (const auto& m : out.per_replica) {
    out.replica_utilization.push_back(
        out.makespan_s > 0.0 ? m.BusyMs() * 1e-3 / out.makespan_s : 0.0);
  }
  const double mean_work =
      std::accumulate(work_tokens.begin(), work_tokens.end(), 0.0) /
      static_cast<double>(work_tokens.size());
  const double max_work = *std::max_element(work_tokens.begin(), work_tokens.end());
  out.load_imbalance = mean_work > 0.0 ? max_work / mean_work : 1.0;
  out.prefix_hit_rate =
      total_prompt_tokens > 0
          ? static_cast<double>(matched_prompt_tokens) / static_cast<double>(total_prompt_tokens)
          : 0.0;
  return out;
}

}  // namespace flashinfer::cluster

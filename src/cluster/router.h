// Request routers for the data-parallel cluster (src/cluster/cluster.h).
//
// A router picks which replica serves each arriving request, observing only
// per-replica load signals and a router-side mirror of each replica's prefix
// cache (a RadixTree over prompt token ids — the same structure SGLang's
// RadixAttention keeps per engine, lifted to the router as in prefix-aware
// cluster schedulers).
//
// The affinity / imbalance tradeoff: routing every request to the replica
// with the longest cached prefix maximizes KV reuse (prefill recomputes only
// the uncached suffix), but tenant popularity is Zipf-skewed, so pure
// affinity piles the hottest system prompts onto a few replicas and P99 TTFT
// collapses while other replicas idle. PrefixAffinity therefore carries a
// load-imbalance cap: when the affinity target's queued+running tokens
// exceed 1.5 times the cluster mean (with an absolute floor of 2,048 tokens
// so near-idle clusters never trigger it), the request falls back to the
// least-loaded replica. The fallback deliberately *replicates* a hot prefix
// onto a second replica — its next insertion seeds that replica's cache, so
// popular tenants end up cached on as many replicas as their traffic share
// warrants, which is exactly the steady state a static prefix-sharding
// scheme cannot reach.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "kvcache/radix.h"
#include "serving/workload.h"

namespace flashinfer::cluster {

enum class RouterPolicy {
  kRoundRobin,
  /// Fewest queued + running tokens.
  kLeastLoaded,
  /// Longest router-side cached prefix, falling back to least-loaded when
  /// the affinity target is overloaded.
  kPrefixAffinity,
};

const char* RouterPolicyName(RouterPolicy policy);

/// Router-visible snapshot of one replica.
struct ReplicaView {
  int replica = 0;
  /// Prompt + output tokens admitted but not yet prefilled.
  int64_t queued_tokens = 0;
  /// Output tokens still to decode.
  int64_t running_tokens = 0;
  /// KV tokens charged against the replica's device budget / its capacity.
  /// Routers use the headroom to steer new work away from KV-pressured
  /// replicas (which would otherwise queue, preempt, or reject it).
  int64_t kv_tokens_in_use = 0;
  int64_t kv_token_budget = 0;
  /// Router-side mirror of the replica's prefix cache (may be null). Routers
  /// only peek (PeekPrefixTokens); ClusterEngine's Insert of the prompt,
  /// which LRU-bumps the matched path, goes to the replica that wins the
  /// request.
  const RadixTree* prefix_cache = nullptr;

  int64_t LoadTokens() const noexcept { return queued_tokens + running_tokens; }
  /// Free device-KV tokens (0 when the budget is unknown or exhausted).
  int64_t KvHeadroomTokens() const noexcept {
    return kv_token_budget > kv_tokens_in_use ? kv_token_budget - kv_tokens_in_use
                                              : 0;
  }
};

struct RouterStats {
  int64_t routed = 0;           // Total routing decisions.
  int64_t affinity_hits = 0;    // Routed to a replica with a matching prefix.
  int64_t load_fallbacks = 0;   // Affinity target rejected by the imbalance cap.
  int64_t pressure_fallbacks = 0;  // Target rejected for lacking KV headroom.
};

class Router {
 public:
  virtual ~Router() = default;

  /// Picks the replica for `r`; `replicas` is non-empty.
  virtual int Route(const serving::Request& r, const std::vector<ReplicaView>& replicas) = 0;

  const RouterStats& Stats() const noexcept { return stats_; }

 protected:
  RouterStats stats_;
};

/// Factory. kPrefixAffinity's load fallback fires when the affinity target's
/// load exceeds 1.5 * max(mean cluster load, 2048 tokens) (kImbalanceCap and
/// kImbalanceFloorTokens in router.cc).
std::unique_ptr<Router> CreateRouter(RouterPolicy policy);

/// Migration-target selection for the disaggregated decode pool: the replica
/// with the most free device KV among those with headroom for `need`, -1
/// when none fits. Max-headroom rather than least-loaded because the decode
/// pool's binding resource is resident KV — a migrated unit pins its whole
/// reservation immediately, while queued-token load says little about
/// whether the unit's pages fit.
int PickByKvHeadroom(const std::vector<ReplicaView>& replicas, int64_t need);

}  // namespace flashinfer::cluster

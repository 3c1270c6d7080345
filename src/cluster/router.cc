#include "cluster/router.h"

#include <algorithm>
#include <limits>

#include "serving/engine.h"
#include "util/check.h"

namespace flashinfer::cluster {

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin: return "RoundRobin";
    case RouterPolicy::kLeastLoaded: return "LeastLoaded";
    case RouterPolicy::kPrefixAffinity: return "PrefixAffinity";
  }
  return "?";
}

namespace {

/// PrefixAffinity's imbalance cap: the affinity target sheds to the
/// least-loaded replica when its load exceeds
/// kImbalanceCap * max(mean cluster load, kImbalanceFloorTokens).
constexpr double kImbalanceCap = 1.5;
constexpr int64_t kImbalanceFloorTokens = 2048;

/// KV tokens `r` will pin on whichever replica serves it: prompt + every
/// parallel branch's output and per-branch decode slack, mirroring the
/// engine's admission charge. Spec-enabled replicas additionally reserve a
/// draft tree per branch, which the router cannot see — the estimate is a
/// slight lower bound there, so headroom shedding stays heuristic.
int64_t RequestKvTokens(const serving::Request& r) {
  const int64_t branches = std::max(1, r.parallel_n);
  return r.input_len +
         branches * (std::max<int64_t>(r.output_len, 1) + serving::kDecodeSlackTokens);
}

int LeastLoadedReplica(const std::vector<ReplicaView>& replicas) {
  int best = 0;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  for (const auto& v : replicas) {
    if (v.LoadTokens() < best_load) {
      best_load = v.LoadTokens();
      best = v.replica;
    }
  }
  return best;
}

/// Least-loaded among replicas with KV headroom for `need`; when every
/// replica is pressured, falls back to plain least-loaded (the request will
/// queue or preempt wherever it lands). `pressured` reports whether the
/// headroom filter excluded anybody.
int LeastLoadedWithHeadroom(const std::vector<ReplicaView>& replicas, int64_t need,
                            bool* pressured = nullptr) {
  int best = -1;
  int64_t best_load = std::numeric_limits<int64_t>::max();
  bool excluded = false;
  for (const auto& v : replicas) {
    if (v.kv_token_budget > 0 && v.KvHeadroomTokens() < need) {
      excluded = true;
      continue;
    }
    if (v.LoadTokens() < best_load) {
      best_load = v.LoadTokens();
      best = v.replica;
    }
  }
  if (pressured != nullptr) *pressured = excluded && best >= 0;
  return best >= 0 ? best : LeastLoadedReplica(replicas);
}

class RoundRobinRouter final : public Router {
 public:
  int Route(const serving::Request&, const std::vector<ReplicaView>& replicas) override {
    ++stats_.routed;
    return replicas[static_cast<size_t>(next_++ % static_cast<int64_t>(replicas.size()))]
        .replica;
  }

 private:
  int64_t next_ = 0;
};

class LeastLoadedRouter final : public Router {
 public:
  int Route(const serving::Request& r, const std::vector<ReplicaView>& replicas) override {
    ++stats_.routed;
    bool pressured = false;
    const int pick =
        LeastLoadedWithHeadroom(replicas, RequestKvTokens(r), &pressured);
    if (pressured) ++stats_.pressure_fallbacks;
    return pick;
  }
};

class PrefixAffinityRouter final : public Router {
 public:
  int Route(const serving::Request& r, const std::vector<ReplicaView>& replicas) override {
    ++stats_.routed;
    // Longest cached prefix wins; ties go to the lighter replica.
    int best = -1;
    int64_t best_match = 0;
    int64_t best_load = std::numeric_limits<int64_t>::max();
    int64_t best_headroom = 0;
    bool best_has_budget = false;
    int64_t total_load = 0;
    for (const auto& v : replicas) {
      total_load += v.LoadTokens();
      if (v.prefix_cache == nullptr || r.prompt_tokens.empty()) continue;
      // Read-only probe: scoring a replica must not refresh its LRU stamps
      // (only the replica actually routed to takes ClusterEngine's Insert).
      const int64_t matched = v.prefix_cache->PeekPrefixTokens(r.prompt_tokens);
      if (matched > best_match ||
          (matched == best_match && matched > 0 && v.LoadTokens() < best_load)) {
        best = v.replica;
        best_match = matched;
        best_load = v.LoadTokens();
        best_headroom = v.KvHeadroomTokens();
        best_has_budget = v.kv_token_budget > 0;
      }
    }
    const int64_t need = RequestKvTokens(r);
    if (best < 0) {
      // No prefix cached anywhere.
      return LeastLoadedWithHeadroom(replicas, need);
    }

    if (best_has_budget && best_headroom < need) {
      // Affinity target is KV-pressured: routing there would queue behind
      // (or preempt) its resident branches. Shed to a replica with room.
      ++stats_.pressure_fallbacks;
      return LeastLoadedWithHeadroom(replicas, need);
    }
    const double mean_load =
        static_cast<double>(total_load) / static_cast<double>(replicas.size());
    const double cap =
        kImbalanceCap * std::max(mean_load, static_cast<double>(kImbalanceFloorTokens));
    if (static_cast<double>(best_load) > cap) {
      // Affinity target overloaded: shed to the least-loaded replica (whose
      // cache the subsequent insert seeds, replicating the hot prefix).
      ++stats_.load_fallbacks;
      return LeastLoadedWithHeadroom(replicas, need);
    }
    ++stats_.affinity_hits;
    return best;
  }
};

}  // namespace

std::unique_ptr<Router> CreateRouter(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin: return std::make_unique<RoundRobinRouter>();
    case RouterPolicy::kLeastLoaded: return std::make_unique<LeastLoadedRouter>();
    case RouterPolicy::kPrefixAffinity: return std::make_unique<PrefixAffinityRouter>();
  }
  FI_CHECK(false);
  return nullptr;
}

int PickByKvHeadroom(const std::vector<ReplicaView>& replicas, int64_t need) {
  int best = -1;
  int64_t best_headroom = -1;
  for (const auto& v : replicas) {
    const int64_t headroom = v.KvHeadroomTokens();
    if (v.kv_token_budget > 0 && headroom < need) continue;
    if (headroom > best_headroom) {
      best_headroom = headroom;
      best = v.replica;
    }
  }
  return best;
}

}  // namespace flashinfer::cluster

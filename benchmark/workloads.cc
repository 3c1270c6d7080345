#include "workloads.h"

namespace fi_bench {

using namespace flashinfer;
using namespace flashinfer::serving;

namespace {

EngineConfig BaseEngine() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

/// HBM capacity that leaves exactly `tokens` of KV budget after weights and
/// the engine's 10% activation slack.
double HbmForKvTokens(const EngineConfig& cfg, int64_t tokens) {
  const double kv_bytes =
      static_cast<double>(tokens) * cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / 0.9;
  return (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
}

std::vector<Request> ShareGpt(Rng& rng, int n, double rate) {
  return ShareGptWorkload(rng, n, rate);
}

std::vector<Request> ShareGptN4(Rng& rng, int n, double rate) {
  return ShareGptWorkload(rng, n, rate, /*parallel_n=*/4);
}

std::vector<Request> Tenants(Rng& rng, int n, double rate) {
  TenantPoolConfig pool;
  pool.num_tenants = 1024;
  pool.zipf_s = 1.0;
  return MultiTenantWorkload(rng, n, rate, pool);
}

std::vector<Request> LongPrompts(Rng& rng, int n, double rate) {
  auto reqs = UniformWorkload(rng, n, rate, 1024, 4096, /*output_len=*/256);
  // Priority rises with arrival order (adaptive LIFO): every arrival outranks
  // every running branch, so a full KV budget turns into preemption (swap or
  // recompute) instead of admission queueing, and TTFT stays bounded by
  // prefill. Fixed priority classes make the TTFT tail a handful of queueing
  // episodes per run, too few for a percentile that repeats across seeds.
  for (Request& r : reqs) r.priority = r.id;
  return reqs;
}

std::vector<Workload> Build() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "sharegpt";
    w.why = "Paper Fig. 7 traffic on one replica: decode-heavy batches make attention "
            "pricing dominate; router, prefix cache, preemption, composable formats "
            "and telemetry are bypassed.";
    w.requests = 1800;
    w.rate_rps = 60.0;
    w.cluster.engine = BaseEngine();
    w.cluster.num_replicas = 1;
    w.generate = ShareGpt;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "tenant_prefix";
    w.why = "The only workload with shared prefixes and routing: 4 prefix-affinity "
            "replicas over 1024 Zipf tenants with prefix mirrors kept full and evicting.";
    w.requests = 1800;
    w.rate_rps = 300.0;
    w.cluster.engine = BaseEngine();
    w.cluster.num_replicas = 4;
    w.cluster.policy = cluster::RouterPolicy::kPrefixAffinity;
    // An eighth of the KV budget: the mirrors stay full, so every insert of
    // a new tenant evicts.
    w.cluster.prefix_cache_pages =
        ServingEngine(w.cluster.engine).KvTokenBudget() / w.cluster.engine.page_size / 8;
    w.generate = Tenants;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "kv_pressure";
    w.why = "The only workload that writes KV out: a 30k-token budget under long "
            "prompts with arrival-ordered priorities preempts, swaps through the "
            "int8+lz4 host tier and recomputes; the only one with telemetry on.";
    w.requests = 400;
    w.rate_rps = 3.0;
    EngineConfig& e = w.cluster.engine;
    e = BaseEngine();
    e.hbm_capacity_gb = HbmForKvTokens(e, 30000);
    e.preemption.enabled = true;
    e.preemption.restore = RestorePolicy::kAuto;
    e.preemption.overlap_swap = true;
    e.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
    e.preemption.host_capacity_gb = 2.0;
    e.telemetry.enabled = true;
    w.cluster.num_replicas = 1;
    w.generate = LongPrompts;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "parallel_n4";
    w.why = "Paper Fig. 10: n=4 parallel generation with composable formats, the only "
            "workload with shared-prefix groups and KV forks; preemption and routing "
            "are bypassed.";
    w.requests = 400;
    w.rate_rps = 24.0;
    w.cluster.engine = BaseEngine();
    w.cluster.engine.backend.composable = true;
    w.cluster.num_replicas = 1;
    w.generate = ShareGptN4;
    out.push_back(w);
  }
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = Build();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Request> MakeRequests(const Workload& w, uint64_t seed, int window, int requests) {
  Rng seeder(seed);
  uint64_t window_seed = 0;
  for (int i = 0; i <= window; ++i) window_seed = seeder.NextU64();
  Rng rng(window_seed);
  return w.generate(rng, requests, w.rate_rps);
}

std::vector<Request> ScaleRate(std::vector<Request> reqs, double multiplier) {
  for (Request& r : reqs) r.arrival_s /= multiplier;
  return reqs;
}

}  // namespace fi_bench

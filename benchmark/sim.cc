#include "sim.h"

#include <chrono>
#include <cstdio>
#include <type_traits>

namespace fi_bench {

using namespace flashinfer;

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool Checks::Expect(bool ok, const std::string& what) {
  ++total_;
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
  return ok;
}

namespace {

/// Output tokens the engine emits for `r`: the first token once per request
/// (also for parallel_n > 1), then output_len - 1 per branch.
int64_t ExpectedOutputTokens(const Request& r) {
  return 1 + static_cast<int64_t>(r.parallel_n) * (r.output_len - 1);
}

/// Appends the raw bytes of trivially copyable values and vectors.
class Bytes {
 public:
  template <typename T>
  void Add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    s_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(v.size());
    if (!v.empty()) s_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  std::string Take() { return std::move(s_); }

 private:
  std::string s_;
};

}  // namespace

SimRun Simulate(const Workload& w, const ClusterConfig& cfg,
                const std::vector<Request>& reqs, Checks& checks) {
  SimRun run;
  if (w.IsCluster()) {
    cluster::ClusterEngine engine(cfg);
    const double t0 = NowS();
    run.cluster = engine.Run(reqs);
    run.wall_s = NowS() - t0;
    run.metrics = run.cluster.aggregate;
  } else {
    serving::ServingEngine engine(cfg.engine);
    const double t0 = NowS();
    run.metrics = engine.Run(reqs);
    run.wall_s = NowS() - t0;
    checks.Expect(engine.KvTokensInUse() == 0 && engine.HostKvTokensInUse() == 0 &&
                      engine.SpecKvLivePages() == 0,
                  w.name + ": drained engine still holds KV (device " +
                      std::to_string(engine.KvTokensInUse()) + " tokens, host " +
                      std::to_string(engine.HostKvTokensInUse()) + " tokens, " +
                      std::to_string(engine.SpecKvLivePages()) + " structural pages)");
  }
  const ServingMetrics& m = run.metrics;
  int64_t tokens = 0, itl_samples = 0;
  for (const Request& r : reqs) {
    tokens += ExpectedOutputTokens(r);
    itl_samples += ExpectedOutputTokens(r) - 1;
  }
  checks.Expect(m.rejected_requests == 0,
                w.name + ": " + std::to_string(m.rejected_requests) + " requests rejected");
  checks.Expect(m.total_output_tokens == tokens,
                w.name + ": output tokens " + std::to_string(m.total_output_tokens) +
                    " != expected " + std::to_string(tokens));
  checks.Expect(static_cast<int64_t>(m.ttft_ms.size()) == static_cast<int64_t>(reqs.size()) &&
                    m.ItlCount() == itl_samples &&
                    static_cast<int64_t>(m.ttft_ms.size()) + m.ItlCount() ==
                        m.total_output_tokens,
                w.name + ": TTFT/ITL sample counts " + std::to_string(m.ttft_ms.size()) +
                    "/" + std::to_string(m.ItlCount()) + " do not match the requests");
  return run;
}

std::string Fingerprint(const ServingMetrics& m) {
  Bytes b;
  b.Add(m.ttft_ms);
  b.Add(m.ttft_priority);
  b.Add(m.itl_ms);
  b.Add(m.itl_sketch.Count());
  b.Add(m.itl_sketch.MinValue());
  b.Add(m.itl_sketch.MaxValue());
  b.Add(m.itl_sketch.Mean());
  for (int64_t i = 0; i < m.itl_sketch.NumBuckets(); ++i) b.Add(m.itl_sketch.BucketCount(i));
  b.Add(m.bounded_itl);
  for (double v : {m.makespan_s, m.total_attention_ms, m.total_gemm_ms, m.total_host_ms,
                   m.total_comm_ms, m.total_idle_s, m.total_swap_ms, m.swap_hidden_ms,
                   m.swap_stall_ms, m.evicted_logical_bytes, m.evicted_stored_bytes,
                   m.codec_encode_ms, m.codec_decode_ms, m.quant_mse_sum,
                   m.total_migration_ms, m.migration_hidden_ms, m.migration_stall_ms,
                   m.total_draft_ms}) {
    b.Add(v);
  }
  for (int64_t v :
       {m.total_output_tokens, m.num_steps, m.total_prefill_tokens, m.cached_prefix_tokens,
        m.num_idle_skips, m.mixed_steps, m.prefill_only_steps, m.decode_only_steps,
        m.prefill_chunks, m.chunked_requests, m.itl_stall_steps, m.steps_with_stalls,
        m.num_preemptions, m.rejected_requests, m.evicted_pages, m.restored_pages,
        m.recompute_tokens, m.num_swap_restores, m.num_recompute_restores,
        m.preempt_stall_steps, m.quant_mse_pages, m.num_migrations_out, m.num_migrations_in,
        m.num_migrations_retained, m.migrated_kv_tokens, m.spec_steps,
        m.spec_committed_tokens}) {
    b.Add(v);
  }
  b.Add(m.branch_stalls);
  b.Add(m.accepted_len_hist);
  return b.Take();
}

std::string Fingerprint(const ClusterMetrics& m) {
  std::string s = Fingerprint(m.aggregate);
  for (const ServingMetrics& r : m.per_replica) s += Fingerprint(r);
  Bytes b;
  b.Add(m.replica_utilization);
  b.Add(m.replica_requests);
  b.Add(m.load_imbalance);
  b.Add(m.prefix_hit_rate);
  b.Add(m.makespan_s);
  b.Add(m.router.routed);
  b.Add(m.router.affinity_hits);
  b.Add(m.router.load_fallbacks);
  b.Add(m.router.pressure_fallbacks);
  return s + b.Take();
}

std::string Fingerprint(const Workload& w, const SimRun& r) {
  return w.IsCluster() ? Fingerprint(r.cluster) : Fingerprint(r.metrics);
}

}  // namespace fi_bench

// Serving workload generation (Sec. 4.1 datasets).
//
// The attention engine only sees sequence lengths and arrival times, so the
// datasets are reproduced as length distributions: a ShareGPT-like
// log-normal mixture (matching the published prompt/response statistics of
// the ShareGPT_Vicuna_unfiltered dump), the paper's synthetic "Variable"
// uniform workload, a Zipf-skewed distribution (Sec. 4.2), and an
// MT-Bench-like multi-turn workload (Sec. 4.3). Arrivals are Poisson at a
// configurable request rate.
//
// For the cluster subsystem (src/cluster/) requests additionally carry
// token-id prompts: MultiTenantWorkload() models a serving fleet where each
// tenant front-loads a fixed system prompt, tenant popularity is
// Zipf-distributed, and only the user turn differs per request — the setting
// where prefix-affinity routing pays off (RadixAttention / PackInfer).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace flashinfer::serving {

struct Request {
  int id = 0;
  double arrival_s = 0.0;
  int64_t input_len = 0;
  int64_t output_len = 0;
  /// OpenAI "n" parameter: parallel generations sharing the prompt (Sec. 4.4).
  int parallel_n = 1;
  /// Prompt token ids, `input_len` long when present (may be empty: the
  /// engine itself never inspects ids, and the cluster admits its routed
  /// requests without them; the cluster router matches prefixes).
  std::vector<int32_t> prompt_tokens;
  /// Prompt tokens already resident in the serving replica's prefix cache
  /// (set by the cluster layer before Admit); prefill recomputes only the
  /// remainder.
  int64_t cached_prefix_len = 0;
  /// Tenant (system-prompt pool) index, -1 for single-tenant workloads.
  int tenant = -1;
  /// Per-request draft acceptance probability for speculative decoding
  /// (how predictable this request's continuation is to the draft model);
  /// < 0 means "use SpecDecodeConfig::default_accept_prob".
  double accept_prob = -1.0;
  /// Scheduling priority under KV pressure (higher = more important). A
  /// preemption-enabled engine evicts the lowest-priority (then youngest)
  /// running branches to admit a higher-priority arrival that does not fit.
  int priority = 0;
};

/// ShareGPT-like conversation lengths: log-normal prompt (~mean 220) and
/// response (~mean 190), clipped to [4, 2048].
std::vector<Request> ShareGptWorkload(Rng& rng, int num_requests, double request_rate,
                                      int parallel_n = 1);

/// The paper's "Variable" workload: input U(lo, hi), fixed output length.
std::vector<Request> UniformWorkload(Rng& rng, int num_requests, double request_rate,
                                     int64_t lo, int64_t hi, int64_t output_len = 256);

/// Multi-tenant system-prompt pool for cluster routing experiments.
struct TenantPoolConfig {
  /// Number of distinct tenants (each owns one fixed system prompt), at
  /// most 2,147 so that every tenant's token ids fit in an int32_t.
  int num_tenants = 32;
  /// Zipf exponent over tenant popularity (rank 1 = most popular).
  double zipf_s = 1.1;
  /// System-prompt length drawn once per tenant, uniform in [lo, hi],
  /// 0 <= lo <= hi.
  int64_t prefix_len_lo = 256;
  int64_t prefix_len_hi = 1024;
  /// Per-request unique user turn, log-normal with this mean, clip [4, 512].
  int64_t user_len_mean = 64;
  /// Response length, log-normal with this mean, clip [4, 1024].
  int64_t output_len_mean = 128;
};

/// Requests with real token-id prompts: `tenant prefix + unique user turn`,
/// tenant picked by Zipf popularity, Poisson arrivals. Token ids are drawn
/// per tenant from disjoint id ranges so prefixes collide only by sharing a
/// tenant. Every tenant's length is drawn up front, but its prompt only when
/// a request first picks it, from a copy of `rng` saved at the prompt's
/// stream position (`rng` itself skips the prompt with Rng::Discard). The
/// requests and `rng`'s final state are therefore the same as when every
/// prompt was drawn up front.
std::vector<Request> MultiTenantWorkload(Rng& rng, int num_requests, double request_rate,
                                         const TenantPoolConfig& cfg = {});

/// Bursty long-prompt mix for the chunked-prefill experiments: steady
/// short-prompt decode traffic (Poisson) overlaid with periodic bursts of
/// long prompts arriving together. Under a prefill-alone engine every burst
/// head-of-line-blocks the running decodes; chunked mixed batching absorbs
/// the same work one chunk at a time.
struct BurstyPrefillConfig {
  /// Steady traffic: short prompts that keep a decode batch resident.
  int num_steady = 200;
  double steady_rate = 30.0;
  int64_t steady_input_lo = 64;
  int64_t steady_input_hi = 256;
  int64_t steady_output = 128;
  /// Bursts: `burst_size` long prompts arriving at the same instant, every
  /// `burst_period_s` seconds starting at `first_burst_s`.
  int num_bursts = 4;
  int burst_size = 4;
  double first_burst_s = 1.0;
  double burst_period_s = 1.5;
  int64_t burst_input_lo = 4096;
  int64_t burst_input_hi = 8192;
  int64_t burst_output = 32;
  /// Prompt prefix already resident in the serving replica's prefix cache
  /// for burst requests (Request::cached_prefix_len): chunking then covers
  /// only the uncached suffix. 0 = cold cache.
  int64_t burst_cached_prefix = 0;
};

/// Requests sorted by arrival, ids reassigned in arrival order.
std::vector<Request> BurstyLongPrefillWorkload(Rng& rng, const BurstyPrefillConfig& cfg = {});

/// Assigns every request a priority level drawn from {0 .. weights.size()-1}
/// with probability proportional to `weights[level]` (e.g. {0.8, 0.2} models
/// 20% interactive traffic over a batch tier). Higher levels preempt lower
/// ones under KV pressure.
void AssignPriorities(Rng& rng, std::vector<Request>& workload,
                      const std::vector<double>& weights);

/// Assigns every request a draft-acceptance probability drawn uniformly from
/// [lo, hi] — the per-request acceptance model for speculative decoding
/// (some requests are boilerplate the draft nails, some are not). Pass
/// lo == hi for a homogeneous sweep point.
void AssignAcceptance(Rng& rng, std::vector<Request>& workload, double lo, double hi);

/// Batch of sequence lengths (no arrivals) for kernel-level benches:
/// constant / uniform / Zipf-skewed with a target mean (Sec. 4.2).
enum class LengthDist { kConstant, kUniform, kSkewed };
std::vector<int64_t> SampleLengths(Rng& rng, LengthDist dist, int batch, int64_t mean_len);

}  // namespace flashinfer::serving

// Latency metrics for serving experiments: TTFT (time-to-first-token) and
// ITL (inter-token latency), reported as medians/percentiles like the paper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/stats.h"
#include "util/check.h"

namespace flashinfer::serving {

/// p in [0,1]; linear interpolation between order statistics. Takes the
/// samples by const reference (sorting an internal copy) — callers pass
/// metric vectors that can hold one sample per emitted token.
double Percentile(const std::vector<double>& values, double p);
double Median(const std::vector<double>& values);

/// Aggregated serving metrics for one run.
struct ServingMetrics {
  std::vector<double> ttft_ms;       // Per request.
  /// Per emitted token (gaps), the one store every ITL query reads.
  /// ServingEngine::Run() sizes it once, to every branch's later tokens, so
  /// only Admit()/StepTo() drivers grow it as tokens land.
  std::vector<double> itl_ms;
  /// itl_ms bucketed by AddItl (log buckets, exact count/min/max/mean); the
  /// cluster merges it. No accessor reads it: fi_bench's Fingerprint and
  /// golden_test hash it.
  obs::Histogram itl_sketch;
  /// Always false: itl_ms holds every sample. Only fi_bench's Fingerprint
  /// reads it (golden_test hashes it the same way).
  static constexpr bool bounded_itl = false;
  double makespan_s = 0.0;           // Total simulated time.
  int64_t total_output_tokens = 0;
  double total_attention_ms = 0.0;   // Attention kernel time summed.
  double total_gemm_ms = 0.0;
  double total_host_ms = 0.0;
  double total_comm_ms = 0.0;        // Tensor-parallel all-reduce time.
  int64_t num_steps = 0;
  /// Prompt tokens actually computed in prefill steps (prefix-cache misses).
  int64_t total_prefill_tokens = 0;
  /// Prompt tokens skipped because the replica's prefix cache held them.
  int64_t cached_prefix_tokens = 0;

  // --- Idle accounting (StepTo returns executed work steps only). ----------
  /// Idle skips: the engine had nothing runnable and jumped to an arrival.
  int64_t num_idle_skips = 0;
  /// Simulated seconds spent idle (no running work, waiting on arrivals).
  double total_idle_s = 0.0;

  // --- Chunked prefill / mixed batching (StepPlan executor). ---------------
  /// Steps whose plan carried both prefill chunks and decode (or spec
  /// verify) tokens — the unified batches the balanced scheduler absorbs.
  int64_t mixed_steps = 0;
  /// Steps that ran prefill chunks with no decode tokens: either no branch
  /// was running, or (BatchPolicy::kPrefillAlone) prefill ran alone and
  /// every running branch stalled.
  int64_t prefill_only_steps = 0;
  /// Steps with decode/spec-verify tokens only (no prefill in flight).
  int64_t decode_only_steps = 0;
  /// Prefill chunk launches (one per whole prompt under kPrefillAlone).
  int64_t prefill_chunks = 0;
  /// Requests whose prompt spanned more than one chunk.
  int64_t chunked_requests = 0;
  /// Sum over steps of running branches that emitted no token that step
  /// (head-of-line blocking behind a prefill-alone step).
  int64_t itl_stall_steps = 0;
  /// Steps during which at least one running branch stalled.
  int64_t steps_with_stalls = 0;
  /// Per finished branch: number of work steps it sat through without
  /// emitting a token. All zeros once mixed batching is on.
  std::vector<int64_t> branch_stalls;

  // --- Preemption / host KV tier (populated when preemption is enabled;
  // rejected_requests can also count on vanilla engines — the graceful form
  // of the old tight-budget admission wedge). ------------------------------
  /// Running branches evicted to relieve KV pressure.
  int64_t num_preemptions = 0;
  /// Requests refused admission because their KV need exceeds the *total*
  /// device budget — they could never run, even on an empty engine.
  int64_t rejected_requests = 0;
  /// Device KV pages released by evictions (swapped out or dropped).
  int64_t evicted_pages = 0;
  /// Pages swapped back in from the host tier by restores.
  int64_t restored_pages = 0;
  /// PCIe transfer time for swap-outs + swap-ins, milliseconds: the summed
  /// durations of every transfer on the two copy streams. It never lands in
  /// a step (see swap_hidden_ms / swap_stall_ms for where it went).
  double total_swap_ms = 0.0;
  /// Copy-stream busy time that overlapped executed compute steps,
  /// milliseconds (0 with serialized swaps; always <= total_swap_ms).
  double swap_hidden_ms = 0.0;
  /// Swap time the request path actually waited on. Serialized swaps stall
  /// the whole engine while either stream is busy, so this is the streams'
  /// busy time: total_swap_ms less the time the two directions overlapped.
  /// With overlap_swap, only the idle time spent waiting for an in-flight
  /// swap-in with nothing else runnable counts.
  double swap_stall_ms = 0.0;
  /// Context tokens re-prefilled by recompute restores (not counted in
  /// total_prefill_tokens: this is restore work, not prompt work).
  int64_t recompute_tokens = 0;
  int64_t num_swap_restores = 0;
  int64_t num_recompute_restores = 0;
  /// Sum over work steps of preempted branches waiting out the step — the
  /// stall a victim's user experiences, analogous to itl_stall_steps.
  int64_t preempt_stall_steps = 0;
  /// --- Host-tier codec (codec time and MSE stay zero unless
  /// PreemptionConfig::host_codec is enabled; with it off, stored bytes equal
  /// logical). Byte totals are model-level KV bytes (tokens *
  /// KvBytesPerToken), scaled by each branch's stored/logical ratio from the
  /// engine's host page table for the stored side. -------------------------
  /// Logical KV bytes of every page swapped out to the host tier.
  double evicted_logical_bytes = 0.0;
  /// Encoded bytes those pages actually occupied in the host tier.
  double evicted_stored_bytes = 0.0;
  /// Time spent encoding pages on eviction, ms (priced into swap-out).
  double codec_encode_ms = 0.0;
  /// Time spent decoding pages on restore, ms (priced into the restore's
  /// H2D transfer).
  double codec_decode_ms = 0.0;
  /// Accuracy proxy: sum of per-page quantization MSE over every page the
  /// codec quantized on eviction, and the page count it sums over.
  double quant_mse_sum = 0.0;
  int64_t quant_mse_pages = 0;
  /// Request priority per TTFT sample (parallel to ttft_ms) so benches can
  /// split latency tails by priority class under KV pressure.
  std::vector<int> ttft_priority;

  // --- Disaggregated prefill/decode migration (populated on engines that
  // export at first token / import migrated branches). ---------------------
  /// Migration units extracted from this (prefill) replica at first token.
  int64_t num_migrations_out = 0;
  /// Migration units admitted on this (decode) replica.
  int64_t num_migrations_in = 0;
  /// Units the cluster offered back after a decode-pool rejection — the
  /// prefill replica kept the branches and decodes them locally.
  int64_t num_migrations_retained = 0;
  /// KV tokens shipped out of this replica (unique tokens; shared prefixes
  /// counted once).
  int64_t migrated_kv_tokens = 0;
  /// Inter-replica link transfer time for migrations landing on this
  /// replica, milliseconds (charged on the importing side).
  double total_migration_ms = 0.0;
  /// Migration transfer time that overlapped executed compute steps on the
  /// importing replica, milliseconds (always <= total_migration_ms).
  double migration_hidden_ms = 0.0;
  /// Idle time the importing replica spent waiting on an in-flight
  /// migration with nothing else runnable, milliseconds.
  double migration_stall_ms = 0.0;

  // --- Speculative decoding (populated when spec decode is enabled). -------
  /// Verify steps executed (each replaces one vanilla decode step).
  int64_t spec_steps = 0;
  /// Tokens committed by verify steps (accepted draft + bonus tokens).
  int64_t spec_committed_tokens = 0;
  /// Histogram over accepted draft-prefix lengths: index k counts branch
  /// verifications that accepted exactly k draft tokens (size depth+1).
  std::vector<int64_t> accepted_len_hist;
  /// Draft-model time (GEMM + per-pass host), milliseconds.
  double total_draft_ms = 0.0;

  /// The only sanctioned way to record a TTFT sample: keeps ttft_ms and
  /// ttft_priority in lockstep (every consumer that splits the tail by
  /// priority indexes one with the other).
  void AddTtft(double ms, int priority) {
    ttft_ms.push_back(ms);
    ttft_priority.push_back(priority);
  }

  /// The only sanctioned way to record an ITL sample: appends it to itl_ms
  /// and buckets it into itl_sketch.
  void AddItl(double ms) { AddItlAt(itl_sketch.IndexOf(ms), ms); }
  /// AddItl for a caller that already bucketed the sample:
  /// `index` == itl_sketch.IndexOf(ms).
  void AddItlAt(int64_t index, double ms) {
    itl_sketch.AddAt(index, ms);
    itl_ms.push_back(ms);
  }

  int64_t ItlCount() const { return static_cast<int64_t>(itl_ms.size()); }

  double MedianTtftMs() const { return Median(ttft_ms); }
  double MedianItlMs() const { return ItlPercentileMs(0.5); }
  double P99TtftMs() const { return Percentile(ttft_ms, 0.99); }
  double P99ItlMs() const { return ItlPercentileMs(0.99); }
  /// Worst single inter-token gap — the stall a user actually notices.
  double MaxItlMs() const {
    return itl_ms.empty() ? 0.0 : *std::max_element(itl_ms.begin(), itl_ms.end());
  }
  /// Arbitrary-percentile helpers (p in [0,1]).
  double TtftPercentileMs(double p) const { return Percentile(ttft_ms, p); }
  double ItlPercentileMs(double p) const { return Percentile(itl_ms, p); }
  double ThroughputTokS() const {
    return makespan_s > 0.0 ? static_cast<double>(total_output_tokens) / makespan_s : 0.0;
  }
  /// Wall-clock the simulated GPU spent executing steps, milliseconds.
  double BusyMs() const {
    return total_attention_ms + total_gemm_ms + total_host_ms + total_comm_ms +
           total_draft_ms;
  }

  // --- Chunked-prefill derived metrics -------------------------------------
  /// Fraction of work steps that batched prefill chunks with decode tokens
  /// (mixed-batch occupancy; 0 under BatchPolicy::kPrefillAlone).
  double MixedStepFrac() const {
    return num_steps > 0
               ? static_cast<double>(mixed_steps) / static_cast<double>(num_steps)
               : 0.0;
  }
  /// Mean stalled steps per finished branch (steps where it emitted nothing).
  double MeanBranchStalls() const {
    if (branch_stalls.empty()) return 0.0;
    int64_t total = 0;
    for (int64_t s : branch_stalls) total += s;
    return static_cast<double>(total) / static_cast<double>(branch_stalls.size());
  }

  // --- Preemption derived metrics ------------------------------------------
  /// Fraction of swap transfer time hidden under executed compute steps.
  /// nullopt when no swap traffic occurred at all — distinct from 0.0, which
  /// means transfers happened and NONE overlapped (serialized swaps).
  /// Callers that conflated the two read a perfect-looking 0 "efficiency"
  /// out of runs that never swapped; use value_or(0.0) only where that is
  /// actually the right collapse (e.g. summing stall budgets).
  /// Capped at 1: hidden and total time are summed over different intervals,
  /// so rounding alone can push the raw ratio a few ulps past 1.
  std::optional<double> SwapOverlapEfficiency() const {
    if (total_swap_ms <= 0.0) return std::nullopt;
    return std::min(1.0, swap_hidden_ms / total_swap_ms);
  }

  /// Fraction of migration transfer time hidden under executed compute steps
  /// on the importing replica. nullopt when no migration traffic occurred
  /// (same disambiguation and cap as SwapOverlapEfficiency).
  std::optional<double> MigrationOverlapEfficiency() const {
    if (total_migration_ms <= 0.0) return std::nullopt;
    return std::min(1.0, migration_hidden_ms / total_migration_ms);
  }

  // --- Host-tier codec derived metrics -------------------------------------
  /// Stored/logical byte ratio of everything evicted to the host tier
  /// (1.0 when nothing was evicted or the codec is off). The capacity
  /// multiplier of the codec tier is the reciprocal.
  double HostStoredRatio() const {
    return evicted_logical_bytes > 0.0 ? evicted_stored_bytes / evicted_logical_bytes
                                       : 1.0;
  }
  /// Mean per-page quantization MSE over every page quantized on eviction
  /// (the accuracy proxy; 0 when the quantizer never ran).
  double MeanPageQuantMse() const {
    return quant_mse_pages > 0 ? quant_mse_sum / static_cast<double>(quant_mse_pages)
                               : 0.0;
  }

  /// TTFT percentile over requests of one priority class (p in [0,1]).
  double TtftPercentileMsForPriority(int priority, double p) const {
    // Parallel-vector invariant: every TTFT sample carries a priority tag
    // (AddTtft is the only writer). Silently truncating to the shorter
    // vector would misattribute tail samples.
    FI_CHECK_EQ(ttft_ms.size(), ttft_priority.size());
    std::vector<double> v;
    for (std::size_t i = 0; i < ttft_ms.size(); ++i) {
      if (ttft_priority[i] == priority) v.push_back(ttft_ms[i]);
    }
    return Percentile(v, p);
  }

  // --- Speculative-decoding derived metrics --------------------------------
  /// Output tokens committed per branch verification (accepted + bonus; a
  /// vanilla decode step commits exactly 1.0 per branch by construction, so
  /// this is the per-step speedup knob spec decoding turns).
  double TokensPerSpecStep() const {
    int64_t verifications = 0;
    for (int64_t c : accepted_len_hist) verifications += c;
    return verifications > 0 ? static_cast<double>(spec_committed_tokens) /
                                   static_cast<double>(verifications)
                             : 0.0;
  }
  /// Mean accepted draft-prefix length over all branch verifications.
  double MeanAcceptedLen() const {
    int64_t verifications = 0, accepted = 0;
    for (std::size_t k = 0; k < accepted_len_hist.size(); ++k) {
      verifications += accepted_len_hist[k];
      accepted += static_cast<int64_t>(k) * accepted_len_hist[k];
    }
    return verifications > 0
               ? static_cast<double>(accepted) / static_cast<double>(verifications)
               : 0.0;
  }
  /// Fraction of busy time spent drafting (the overhead spec decode pays).
  double DraftOverheadFrac() const {
    const double busy = BusyMs();
    return busy > 0.0 ? total_draft_ms / busy : 0.0;
  }
};

/// One scalar counter of ServingMetrics: the int64_t or double member it
/// reads and, for the fields the engine publishes, the registry counter
/// family that mirrors it (nullptr for the unpublished ones).
struct MetricField {
  constexpr MetricField(int64_t ServingMetrics::*m, const char* fam = nullptr)
      : i64(m), family(fam) {}
  constexpr MetricField(double ServingMetrics::*m, const char* fam = nullptr)
      : f64(m), family(fam) {}

  double Value(const ServingMetrics& m) const {
    return i64 ? static_cast<double>(m.*i64) : m.*f64;
  }
  /// agg.field += m.field, in the field's own type.
  void AddTo(ServingMetrics& agg, const ServingMetrics& m) const {
    if (i64) {
      agg.*i64 += m.*i64;
    } else {
      agg.*f64 += m.*f64;
    }
  }

  int64_t ServingMetrics::*i64 = nullptr;
  double ServingMetrics::*f64 = nullptr;
  const char* family = nullptr;
};

/// Every scalar counter of ServingMetrics, the single list behind the
/// engine's registry counters, the cluster merge and the reconciliation
/// tests. The engine writes only the fields; its telemetry flush moves each
/// named family's counter to the field's exact value, plus the total it had
/// when ServingEngine::TakeMetrics() last moved the fields out.
inline constexpr MetricField kMetricFields[] = {
    {&ServingMetrics::total_output_tokens, "fi_output_tokens_total"},
    {&ServingMetrics::total_attention_ms},
    {&ServingMetrics::total_gemm_ms},
    {&ServingMetrics::total_host_ms},
    {&ServingMetrics::total_comm_ms},
    {&ServingMetrics::num_steps, "fi_steps_total"},
    {&ServingMetrics::total_prefill_tokens, "fi_prefill_tokens_total"},
    {&ServingMetrics::cached_prefix_tokens},
    {&ServingMetrics::num_idle_skips},
    {&ServingMetrics::total_idle_s},
    {&ServingMetrics::mixed_steps},
    {&ServingMetrics::prefill_only_steps},
    {&ServingMetrics::decode_only_steps},
    {&ServingMetrics::prefill_chunks},
    {&ServingMetrics::chunked_requests},
    {&ServingMetrics::itl_stall_steps},
    {&ServingMetrics::steps_with_stalls},
    {&ServingMetrics::num_preemptions, "fi_preemptions_total"},
    {&ServingMetrics::rejected_requests, "fi_requests_rejected_total"},
    {&ServingMetrics::evicted_pages, "fi_evicted_pages_total"},
    {&ServingMetrics::restored_pages, "fi_restored_pages_total"},
    {&ServingMetrics::total_swap_ms, "fi_swap_ms_total"},
    {&ServingMetrics::swap_hidden_ms, "fi_swap_hidden_ms_total"},
    {&ServingMetrics::swap_stall_ms, "fi_swap_stall_ms_total"},
    {&ServingMetrics::recompute_tokens, "fi_recompute_tokens_total"},
    {&ServingMetrics::num_swap_restores, "fi_swap_restores_total"},
    {&ServingMetrics::num_recompute_restores, "fi_recompute_restores_total"},
    {&ServingMetrics::preempt_stall_steps},
    {&ServingMetrics::evicted_logical_bytes, "fi_kv_evicted_logical_bytes_total"},
    {&ServingMetrics::evicted_stored_bytes, "fi_kv_evicted_stored_bytes_total"},
    {&ServingMetrics::codec_encode_ms, "fi_codec_encode_ms_total"},
    {&ServingMetrics::codec_decode_ms, "fi_codec_decode_ms_total"},
    {&ServingMetrics::quant_mse_sum, "fi_quant_mse_sum_total"},
    {&ServingMetrics::quant_mse_pages, "fi_quant_mse_pages_total"},
    {&ServingMetrics::spec_steps},
    {&ServingMetrics::spec_committed_tokens},
    {&ServingMetrics::total_draft_ms},
    {&ServingMetrics::num_migrations_out, "fi_migrations_out_total"},
    {&ServingMetrics::num_migrations_in, "fi_migrations_in_total"},
    {&ServingMetrics::num_migrations_retained, "fi_migrations_retained_total"},
    {&ServingMetrics::migrated_kv_tokens, "fi_migrated_kv_tokens_total"},
    {&ServingMetrics::total_migration_ms, "fi_migration_ms_total"},
    {&ServingMetrics::migration_hidden_ms, "fi_migration_hidden_ms_total"},
    {&ServingMetrics::migration_stall_ms, "fi_migration_stall_ms_total"},
};

}  // namespace flashinfer::serving

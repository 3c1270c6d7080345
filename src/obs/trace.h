// Engine-wide event tracing (the observability floor under src/serving,
// src/cluster, and the benches).
//
// A TraceRecorder collects typed span/instant/counter events in *simulated*
// time into a bounded ring buffer: when the buffer fills, the oldest events
// are overwritten, so what survives is always the trailing window — exactly
// what a failure dump wants. The hot path is allocation-free: one POD store
// per event into a preallocated buffer, and every engine emission site is
// gated on the recorder pointer, so a disabled trace costs one branch.
//
// Events are closed at record time (spans carry begin + duration; there are
// no dangling "open" markers), so a ring overwrite can never orphan half a
// span and exporters never need matching state.
//
// Event vocabulary. kTraceNames gives each TraceName its display name, kind,
// Perfetto row and payload export keys; what a row cannot say:
//
//   * Times are simulated microseconds: ts/dur and every *_us payload.
//     kv_len / kv_tokens / *_tokens payloads count tokens, *_bytes bytes.
//   * Step track: a replica's step spans never overlap, and its phase spans
//     (draft/attention/gemm/comm/host) lie end to end inside their step and
//     sum exactly to its duration. kChunk's c is the entry's Resume kind
//     (serving/engine.h): 0 a new request's prompt, 1 recompute, 2 swap-in
//     transfer, 3 migration transfer (migrate-in).
//   * Request lifecycle: a request's queued -> prefill -> decode (split by
//     preemption) / preempted / swap-in / recompute / migrate-in spans tile
//     arrival -> finish. kReqPreempted's b is 1 when the victim swapped out;
//     kReqFinish is recorded per finished branch.
//   * Copy streams: every swap's PCIe time lands on the copy row, never in a
//     step. With overlap_swap the transfers run under steps and may trail the
//     last one; without it no step overlaps them. kCopyMigrate is recorded on
//     the destination replica, and queue_delay_us runs from issue to stream
//     start (the replica-pair link's for a migration).
//   * kKvEncode is recorded at eviction with the host codec on only;
//     kKvDecode's decode_us is priced into the swap-in.
//   * kReqMigrateOut is recorded on the prefill replica at first token
//     (disaggregated mode), kRouteDecision on the cluster's router track.
//   * kSloAlert / kSloRecover are edge-triggered per SLO spec (obs/slo.h).
//   * Counters are sampled after every executed step; v is the value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace flashinfer::obs {

enum class TraceKind : uint8_t { kSpan, kInstant, kCounter };

/// Where the Perfetto export draws an event: a thread row of its track's
/// process (the value is the tid), or the request's async row.
enum class TraceRow : uint8_t { kSteps, kKv, kCopy, kRequest };

/// Event names. golden_test hashes each event's numeric name, so no value
/// shifts when a name goes: 5 is unused.
enum class TraceName : uint8_t {
  // Step track spans.
  kStep,
  kPhaseDraft,
  kPhaseAttn,
  kPhaseGemm,
  kPhaseComm,
  kPhaseHost = 6,
  // Request lifecycle spans.
  kReqQueued,
  kReqPrefill,
  kReqDecode,
  kReqPreempted,
  kReqSwapIn,
  kReqRecompute,
  kReqMigrateIn,
  // Copy-stream spans.
  kCopyD2H,
  kCopyH2D,
  kCopyMigrate,
  // Instants.
  kChunk,
  kReqAdmit,
  kReqFirstToken,
  kReqFinish,
  kReqReject,
  kKvEvictSwap,
  kKvEvictDrop,
  kKvRestoreSwap,
  kKvRestoreRecompute,
  kKvEncode,
  kKvDecode,
  kReqMigrateOut,
  kRouteDecision,
  kSloAlert,
  kSloRecover,
  // Counters.
  kCtrKvDevice,
  kCtrKvHost,
  kCtrQueueDepth,
  kCtrRunning,
  kCtrPreempted,
  kCtrTokPerS,
  kCtrHostStoredBytes,
};

/// kStep flag bits.
inline constexpr uint16_t kStepFlagSpec = 1;  // Verify (spec-decode) step.

/// What the exporters know of one TraceName. `keys` name payloads a..d
/// (nullptr: not exported), `flag` the kStepFlagSpec bit and `v` the value
/// field; the request id is exported as "req" whenever it is set.
struct TraceNameInfo {
  const char* name;  // Display name: the Perfetto slice / counter-track name.
  TraceKind kind;    // Span vs instant vs counter is a property of the name.
  TraceRow row;
  const char* keys[4] = {};
  const char* flag = nullptr;
  const char* v = nullptr;
};

/// One row per TraceName value, in value order.
inline constexpr TraceNameInfo kTraceNames[] = {
    {"step", TraceKind::kSpan, TraceRow::kSteps,
     {"prefill_tokens", "decode_branches", "stalled_branches", "preempted_waiting"}, "spec"},
    {"draft", TraceKind::kSpan, TraceRow::kSteps},
    {"attention", TraceKind::kSpan, TraceRow::kSteps},
    {"gemm", TraceKind::kSpan, TraceRow::kSteps},
    {"comm", TraceKind::kSpan, TraceRow::kSteps},
    {"?", TraceKind::kSpan, TraceRow::kSteps},  // 5: unused.
    {"host", TraceKind::kSpan, TraceRow::kSteps},
    {"queued", TraceKind::kSpan, TraceRow::kRequest},
    {"prefill", TraceKind::kSpan, TraceRow::kRequest,
     {"computed_tokens", "cached_tokens", "chunks"}},
    {"decode", TraceKind::kSpan, TraceRow::kRequest, {"kv_len"}},
    {"preempted", TraceKind::kSpan, TraceRow::kRequest, {"kv_len", "swapped"}},
    {"swap_in_flight", TraceKind::kSpan, TraceRow::kRequest, {"kv_len"}},
    {"recompute_restore", TraceKind::kSpan, TraceRow::kRequest, {"kv_len"}},
    {"migrate_in_flight", TraceKind::kSpan, TraceRow::kRequest, {"kv_tokens", "branches"}},
    {"copy_d2h", TraceKind::kSpan, TraceRow::kCopy, {"kv_len", "pages", "queue_delay_us"}},
    {"copy_h2d", TraceKind::kSpan, TraceRow::kCopy, {"kv_len", "pages", "queue_delay_us"}},
    {"copy_migrate", TraceKind::kSpan, TraceRow::kCopy, {"kv_tokens", "pages", "queue_delay_us"}},
    {"chunk", TraceKind::kInstant, TraceRow::kSteps, {"tokens", "completes", "restore"}},
    {"admit", TraceKind::kInstant, TraceRow::kRequest, {"new_prompt_tokens", "kv_need"}},
    {"first_token", TraceKind::kInstant, TraceRow::kRequest},
    {"finish", TraceKind::kInstant, TraceRow::kRequest},
    {"reject", TraceKind::kInstant, TraceRow::kRequest, {"kv_need", "kv_token_budget"}},
    {"kv_evict_swap", TraceKind::kInstant, TraceRow::kKv, {"kv_len", "pages"}},
    {"kv_evict_drop", TraceKind::kInstant, TraceRow::kKv, {"kv_len", "pages"}},
    {"kv_restore_swap", TraceKind::kInstant, TraceRow::kKv, {"kv_len"}},
    {"kv_restore_recompute", TraceKind::kInstant, TraceRow::kKv, {"kv_len"}},
    {"kv_encode", TraceKind::kInstant, TraceRow::kKv, {"logical_bytes", "stored_bytes"}},
    {"kv_decode", TraceKind::kInstant, TraceRow::kKv, {"kv_len", "decode_us"}},
    {"migrate_out", TraceKind::kInstant, TraceRow::kRequest, {"kv_tokens", "pages", "branches"}},
    {"route", TraceKind::kInstant, TraceRow::kSteps, {"replica", "matched_prefix_tokens"}},
    {"slo_alert", TraceKind::kInstant, TraceRow::kSteps, {"spec"}, nullptr, "fast_burn"},
    {"slo_recover", TraceKind::kInstant, TraceRow::kSteps, {"spec"}, nullptr, "fast_burn"},
    {"kv_device_tokens", TraceKind::kCounter, TraceRow::kSteps},
    {"kv_host_tokens", TraceKind::kCounter, TraceRow::kSteps},
    {"queue_depth", TraceKind::kCounter, TraceRow::kSteps},
    {"running_branches", TraceKind::kCounter, TraceRow::kSteps},
    {"preempted_branches", TraceKind::kCounter, TraceRow::kSteps},
    {"tokens_per_s", TraceKind::kCounter, TraceRow::kSteps},
    {"kv_host_stored_bytes", TraceKind::kCounter, TraceRow::kSteps},
};
static_assert(std::size(kTraceNames) == static_cast<size_t>(TraceName::kCtrHostStoredBytes) + 1,
              "one kTraceNames row per TraceName value");

/// The row of `n`; TraceNameStr reads its name.
constexpr const TraceNameInfo& InfoOf(TraceName n) noexcept {
  return kTraceNames[static_cast<size_t>(n)];
}
constexpr const char* TraceNameStr(TraceName n) noexcept { return InfoOf(n).name; }

/// One recorded event. POD; payload field meanings are per-name (see
/// kTraceNames and the header comment). Timestamps are simulated microseconds.
struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = 0.0;  // Spans only; 0 for instants/counters.
  TraceName name{};
  uint16_t flags = 0;
  int32_t req = -1;  // Request id, or -1 when not request-scoped.
  int64_t a = 0, b = 0, c = 0, d = 0;
  double v = 0.0;  // Counter value; an SLO event's burn rate.
};

/// Tracing knob carried by EngineConfig. Off by default: a disabled trace
/// records nothing and changes no engine behavior (pinned by tests that
/// compare metrics bit-for-bit against a traced run).
struct TraceConfig {
  bool enabled = false;
  /// Ring capacity in events; the oldest events are overwritten when full,
  /// leaving the trailing window. 64Ki events ≈ 4.5 MB.
  int64_t capacity = 1 << 16;
};

/// Bounded ring buffer of TraceEvents in simulated time.
class TraceRecorder {
 public:
  explicit TraceRecorder(int64_t capacity);

  void Clear() noexcept;

  /// Appends one event (overwriting the oldest when full). Never allocates.
  void Record(const TraceEvent& e) noexcept {
    buf_[static_cast<size_t>(head_)] = e;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++recorded_;
  }

  /// Events currently held (<= capacity).
  int64_t size() const noexcept {
    return recorded_ < capacity_ ? recorded_ : capacity_;
  }
  /// Events overwritten by ring wraparound.
  int64_t dropped() const noexcept {
    return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
  }
  int64_t capacity() const noexcept { return capacity_; }

  /// Copies the held events oldest-first (the export/query path; allocates).
  std::vector<TraceEvent> Events() const;

 private:
  int64_t capacity_ = 0;
  int64_t head_ = 0;      // Next write slot.
  int64_t recorded_ = 0;  // Total Record() calls since Clear().
  std::vector<TraceEvent> buf_;
};

}  // namespace flashinfer::obs

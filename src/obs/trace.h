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
// Event vocabulary (TraceName) and payload conventions:
//
//   Step track (per replica; spans never overlap, phases tile their step):
//     kStep         span   a=prefill_tokens b=decode_branches
//                          c=stalled_branches d=preempted_waiting
//                          flags: kStepFlagSpec
//     kPhaseDraft/Attn/Gemm/Comm/Host
//                   span   component times laid end-to-end inside the step
//                          (they sum exactly to the step duration).
//     kChunk        inst   req a=tokens b=completes c=the entry's Resume
//                          kind (serving/engine.h): 0 a new request's
//                          prompt, 1 recompute, 2 swap-in transfer,
//                          3 migration transfer (migrate-in)
//
//   Request lifecycle (async per request id; phases tile arrival→finish):
//     kReqQueued    span   arrival -> admission
//     kReqPrefill   span   admission -> first token; a=computed_tokens
//                          b=cached_tokens c=chunks
//     kReqDecode    span   decode segment (split by preemption); a=kv_len
//     kReqPreempted span   eviction -> restore start; a=kv_len b=swapped
//     kReqSwapIn    span   swap-in transfer in flight; a=kv_len
//     kReqRecompute span   recompute restore rebuild; a=kv_len
//     kReqMigrateIn span   migration import in flight on the decode replica
//                          (admit -> branches resume); a=kv_tokens b=branches
//     kReqAdmit     inst   a=new_prompt_tokens b=kv_need
//     kReqFirstToken inst
//     kReqFinish    inst   per finished branch
//     kReqReject    inst   a=kv_need b=kv_token_budget
//
//   KV events (device <-> host tier traffic):
//     kKvEvictSwap / kKvEvictDrop        inst  req a=kv_len b=pages
//     kKvRestoreSwap / kKvRestoreRecompute inst req a=kv_len
//     kKvEncode     inst  host-codec encode at eviction (codec-on only);
//                         req a=logical_bytes b=stored_bytes
//     kKvDecode     inst  host-codec decode priced into the swap-in;
//                         req a=kv_len b=decode_us
//
//   Copy streams ("copy" track; every swap's PCIe time lands here, never in
//   a step. With overlap_swap they run under steps and may trail the last
//   one; without it no step overlaps them):
//     kCopyD2H / kCopyH2D  span  req a=kv_len b=pages
//                          c=queue_delay_us (issue -> stream start)
//     kCopyMigrate  span   inter-replica KV migration transfer (recorded on
//                          the destination replica); req a=kv_tokens b=pages
//                          c=queue_delay_us on the replica-pair link
//
//   Migration (disaggregated prefill/decode mode):
//     kReqMigrateOut inst  branch extracted from the prefill replica at first
//                          token; a=kv_tokens b=pages c=branches
//
//   Router (cluster track):
//     kRouteDecision inst  req a=replica b=matched_prefix_tokens
//
//   SLO burn-rate monitor (obs/slo.h; edge-triggered per spec):
//     kSloAlert / kSloRecover inst  a=spec_index v=fast-window burn rate
//
//   Counters (sampled after every executed step):
//     kCtrKvDevice kCtrKvHost kCtrQueueDepth kCtrRunning kCtrPreempted
//     kCtrTokPerS kCtrHostStoredBytes   v=value
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flashinfer::obs {

enum class TraceKind : uint8_t { kSpan, kInstant, kCounter };

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
  // Copy-stream spans (one Perfetto track per engine).
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

/// Stable display name (also the Perfetto slice / counter-track name).
const char* TraceNameStr(TraceName n);

/// Span vs instant vs counter is a property of the name, not per-event state.
TraceKind KindOf(TraceName n) noexcept;

/// kStep flag bits.
inline constexpr uint16_t kStepFlagSpec = 1;  // Verify (spec-decode) step.

/// One recorded event. POD; payload field meanings are per-name (see the
/// header comment). Timestamps are simulated microseconds.
struct TraceEvent {
  double ts_us = 0.0;
  double dur_us = 0.0;  // Spans only; 0 for instants/counters.
  TraceName name{};
  uint16_t flags = 0;
  int32_t req = -1;  // Request id, or -1 when not request-scoped.
  int64_t a = 0, b = 0, c = 0, d = 0;
  double v = 0.0;  // Counter value.
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

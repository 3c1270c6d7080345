#include "obs/trace.h"

#include "util/check.h"

namespace flashinfer::obs {

const char* TraceNameStr(TraceName n) {
  switch (n) {
    case TraceName::kStep: return "step";
    case TraceName::kPhaseDraft: return "draft";
    case TraceName::kPhaseAttn: return "attention";
    case TraceName::kPhaseGemm: return "gemm";
    case TraceName::kPhaseComm: return "comm";
    case TraceName::kPhaseHost: return "host";
    case TraceName::kReqQueued: return "queued";
    case TraceName::kReqPrefill: return "prefill";
    case TraceName::kReqDecode: return "decode";
    case TraceName::kReqPreempted: return "preempted";
    case TraceName::kReqSwapIn: return "swap_in_flight";
    case TraceName::kReqRecompute: return "recompute_restore";
    case TraceName::kReqMigrateIn: return "migrate_in_flight";
    case TraceName::kCopyD2H: return "copy_d2h";
    case TraceName::kCopyH2D: return "copy_h2d";
    case TraceName::kCopyMigrate: return "copy_migrate";
    case TraceName::kChunk: return "chunk";
    case TraceName::kReqAdmit: return "admit";
    case TraceName::kReqFirstToken: return "first_token";
    case TraceName::kReqFinish: return "finish";
    case TraceName::kReqReject: return "reject";
    case TraceName::kKvEvictSwap: return "kv_evict_swap";
    case TraceName::kKvEvictDrop: return "kv_evict_drop";
    case TraceName::kKvRestoreSwap: return "kv_restore_swap";
    case TraceName::kKvRestoreRecompute: return "kv_restore_recompute";
    case TraceName::kKvEncode: return "kv_encode";
    case TraceName::kKvDecode: return "kv_decode";
    case TraceName::kReqMigrateOut: return "migrate_out";
    case TraceName::kRouteDecision: return "route";
    case TraceName::kSloAlert: return "slo_alert";
    case TraceName::kSloRecover: return "slo_recover";
    case TraceName::kCtrKvDevice: return "kv_device_tokens";
    case TraceName::kCtrKvHost: return "kv_host_tokens";
    case TraceName::kCtrQueueDepth: return "queue_depth";
    case TraceName::kCtrRunning: return "running_branches";
    case TraceName::kCtrPreempted: return "preempted_branches";
    case TraceName::kCtrTokPerS: return "tokens_per_s";
    case TraceName::kCtrHostStoredBytes: return "kv_host_stored_bytes";
  }
  return "?";
}

TraceKind KindOf(TraceName n) noexcept {
  if (n <= TraceName::kCopyMigrate) return TraceKind::kSpan;
  if (n <= TraceName::kSloRecover) return TraceKind::kInstant;
  return TraceKind::kCounter;
}

TraceRecorder::TraceRecorder(int64_t capacity) : capacity_(capacity) {
  FI_CHECK_GT(capacity, 0);
  buf_.resize(static_cast<size_t>(capacity));
}

void TraceRecorder::Clear() noexcept {
  head_ = 0;
  recorded_ = 0;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(static_cast<size_t>(size()));
  if (recorded_ <= capacity_) {
    out.assign(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(recorded_));
  } else {
    // Wrapped: oldest surviving event sits at head_.
    out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(head_), buf_.end());
    out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

}  // namespace flashinfer::obs

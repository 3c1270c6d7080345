#include "obs/trace.h"

#include "util/check.h"

namespace flashinfer::obs {

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

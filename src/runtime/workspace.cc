#include "runtime/workspace.h"

#include "util/check.h"

namespace flashinfer {

namespace {
// Fixed fraction of the buffer reserved for plan metadata; kept constant so
// section offsets never move (Appendix D.1).
constexpr int64_t kPlanBytes = 1 << 20;
}  // namespace

int64_t Workspace::EstimateBytes(int num_ctas, int tile_rows, int head_dim) {
  // 2 x #CTA partial tiles, each tile_rows rows of (D + 1) fp32 values.
  const int64_t partial_rows = 2LL * num_ctas * tile_rows;
  return kPlanBytes + partial_rows * (head_dim + 1) * 4;
}

Workspace::Workspace(int64_t bytes) {
  FI_CHECK_GT(bytes, kPlanBytes);
  buffer_.resize(static_cast<size_t>(bytes));
}

void Workspace::Bind(int head_dim) {
  FI_CHECK_GE(head_dim, 1);
  const int64_t payload = Bytes() - kPlanBytes;
  const int64_t row_bytes = static_cast<int64_t>(head_dim + 1) * 4;
  max_partial_rows_ = payload / row_bytes;
  FI_CHECK_GT(max_partial_rows_, 0);
  auto* base = buffer_.data() + kPlanBytes;
  partial_o_ = reinterpret_cast<float*>(base);
  partial_lse_ = partial_o_ + max_partial_rows_ * head_dim;
}

}  // namespace flashinfer

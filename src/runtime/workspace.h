// User-allocated workspace buffer (Sec. 3.4, Appendix D).
//
// One contiguous allocation split into fixed-offset sections: plan metadata
// (the scheduler's work queues and reduction map, copied in per generation
// step) and split-KV partial outputs (fp32 O rows + LSE). Offsets never move
// after construction, so kernels captured into a CUDA graph keep seeing the
// same pointers across plan() updates (Appendix D.1); capacity follows the
// Appendix D.3 upper bound 2 x #CTA x Tq x Hqo x (D+1).
#pragma once

#include <cstdint>
#include <vector>

namespace flashinfer {

class Workspace {
 public:
  /// Appendix D.3 size estimate, bytes. `tile_rows` is the fused query tile
  /// size (already including the head-group factor); with head fusion the
  /// head multiplicity lives in the work units, so the bound multiplies CTAs
  /// rather than Hqo separately.
  static int64_t EstimateBytes(int num_ctas, int tile_rows, int head_dim);

  explicit Workspace(int64_t bytes);

  /// Partial O section: [MaxPartialRows(), head_dim] fp32 (head_dim fixed at
  /// Bind time).
  float* PartialO() noexcept { return partial_o_; }
  float* PartialLse() noexcept { return partial_lse_; }
  int64_t MaxPartialRows() const noexcept { return max_partial_rows_; }

  /// Plan-metadata section ("async-copied" scheduler output).
  void* PlanRegion() noexcept { return buffer_.data(); }

  /// Lays out sections for a given head_dim. Must be called before use;
  /// re-binding with a different head_dim is allowed (offsets stay fixed,
  /// row capacity changes).
  void Bind(int head_dim);

  /// Stable base address (CUDA-graph pointer validation).
  const void* Base() const noexcept { return buffer_.data(); }
  int64_t Bytes() const noexcept { return static_cast<int64_t>(buffer_.size()); }

 private:
  std::vector<std::byte> buffer_;
  float* partial_o_ = nullptr;
  float* partial_lse_ = nullptr;
  int64_t max_partial_rows_ = 0;
};

}  // namespace flashinfer

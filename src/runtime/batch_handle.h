// BatchAttentionHandle — the engine's user-facing wrapper, mirroring the
// paper's PyTorch AttentionWrapper (Listing 1) and its Inspector-Executor
// split:
//
//   handle.Plan(bsr, qo_indptr, kv_len);   // CPU: scheduler -> plan cache
//   handle.Run(q, kv, &o);                 // GPU: persistent attention +
//                                          //      contraction kernels
//
// Kernels are resolved at construction ("init time JIT") from the built-in
// registry or injected from the JIT compiler; plans are cached by sequence-
// length signature so all layers of one generation step reuse one plan; Run
// is CUDA-graph-capturable because every launch reads its mutable state from
// fixed workspace addresses.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "gpusim/graph.h"
#include "runtime/scheduler.h"
#include "runtime/workspace.h"

namespace flashinfer {

class BatchAttentionHandle {
 public:
  /// Compile-time task information (Fig. 1 "task information" input).
  struct TaskInfo {
    VariantKind variant = VariantKind::kVanilla;
    DType kv_dtype = DType::kF16;
    int num_qo_heads = 32;
    int num_kv_heads = 32;
    int head_dim = 128;
    bool head_fusion = true;
    bool sparse = true;
    /// Average fused query rows per tile, used for tile-size selection at
    /// init time (decode: group size; prefill: typical chunk length x group).
    double avg_qlen_hint = 1.0;
    SchedulerKind scheduler = SchedulerKind::kBalanced;
  };

  BatchAttentionHandle(gpusim::DeviceSpec dev, TaskInfo info, Workspace* workspace);

  /// Injects a JIT-compiled kernel (overrides the built-in for `variant`).
  void SetKernel(WorkItemFn fn, bool use_softmax);

  /// Variant runtime parameters (scale, soft cap, window, ...).
  VariantParams& MutableVariantParams() noexcept { return variant_params_; }

  const KernelConfig& config() const noexcept { return cfg_; }
  const gpusim::DeviceSpec& device() const noexcept { return sim_.device(); }
  int NumCtas() const noexcept { return num_ctas_; }

  /// Inspector: runs the scheduler on this step's sequence-length
  /// information. Cached: planning with an identical signature is a no-op.
  /// The BSR must stay alive until the next Plan.
  void Plan(const sparse::BsrMatrix* bsr, std::vector<int64_t> qo_indptr,
            std::vector<int64_t> kv_len);

  /// Executor: runs the persistent attention kernel over the cached plan,
  /// then the contraction kernel. Returns the combined simulated report.
  gpusim::SimReport Run(const RaggedTensor& q, const PagedKVCache& kv, RaggedTensor* o,
                        std::vector<float>* lse = nullptr);

  /// Captures a Run call into `graph` under `slot`, freezing the argument
  /// pointers (q/kv/o/workspace). Subsequent Plan() calls only rewrite
  /// workspace contents, so Replay stays valid.
  void CaptureRun(gpusim::CudaGraph& graph, const std::string& slot, const RaggedTensor& q,
                  const PagedKVCache& kv, RaggedTensor* o, std::vector<float>* lse = nullptr);

  const ::flashinfer::Plan& plan() const {
    FI_CHECK(plan_.has_value());
    return *plan_;
  }
  int64_t plan_cache_hits() const noexcept { return plan_cache_hits_; }

 private:
  /// The planned batch's parameters (BSR, lengths, heads, fusion, variant),
  /// without tensors: Plan schedules them and Run adds q, o, lse and kv.
  AttentionParams PlannedParams() const;

  gpusim::SimExecutor sim_;
  TaskInfo info_;
  Workspace* workspace_;
  KernelConfig cfg_;
  WorkItemFn kernel_;
  bool use_softmax_ = true;
  VariantParams variant_params_;
  int num_ctas_ = 1;
  double auto_l2_fraction_ = 0.0;  // Intra-batch tile reuse, set by Plan().

  std::optional<::flashinfer::Plan> plan_;
  const sparse::BsrMatrix* bsr_ = nullptr;
  std::vector<int64_t> qo_indptr_;
  std::vector<int64_t> kv_len_;
  uint64_t plan_signature_ = 0;
  int64_t plan_cache_hits_ = 0;
};

}  // namespace flashinfer

// Serving-backend models and the plan-driven attention time estimator.
//
// A backend bundles the attention engine configuration an LLM server would
// use: scheduler policy, kernel efficiency scale (Triton kernels trail
// CUDA/CUTLASS — Appendix C), host-side overheads (Table 8's Python
// bookkeeping), RoPE fusion and composable-format support. The estimator
// runs the *real* scheduler (runtime/scheduler.h) over the step's sequence
// lengths and prices its schedule with the kernel cost model — the serving
// engine never hand-waves attention time.
#pragma once

#include <string>
#include <vector>

#include "gpusim/cost.h"
#include "gpusim/device.h"
#include "runtime/batch_handle.h"

namespace flashinfer::serving {

struct BackendConfig {
  std::string name = "FlashInfer v0.2";
  SchedulerKind scheduler = SchedulerKind::kBalanced;
  DType kv_dtype = DType::kF16;
  /// Multiplier on attention kernel time (1.0 = CUDA/CUTLASS templates).
  double kernel_time_scale = 1.0;
  /// Achieved fraction of peak for dense GEMMs.
  double gemm_eff = 0.72;
  /// Host CPU time per engine step, microseconds (scheduling, batching).
  double host_us_per_step = 150.0;
  /// Host CPU time per batched request per step (Python array ops in the
  /// integration layer; the vLLM-default backend sets this high).
  double host_us_per_req = 2.0;
  /// CUDA-graph replay for decode steps (cuts per-layer launch overhead).
  bool use_cuda_graph = true;
  /// RoPE fused into the attention kernel (vs a separate pass over Q/K).
  bool fused_rope = true;
  /// Shared-prefix composable formats (Sec. 3.1.2) for parallel generation.
  bool composable = false;
  /// GQA head-group fusion (Appendix A).
  bool head_fusion = true;
  /// PackInfer-style compute/I/O-aware tile packing for heterogeneous
  /// batches (mixed prefill-chunk + decode/verify qo_lens). The default
  /// heuristic picks ONE query tile from the batch-average fused length, so
  /// a mixed batch compromises: a large tile starves decode rows of memory
  /// parallelism, a small tile shreds prefill chunks into many low-
  /// efficiency tiles. Packed mode splits the batch into a compute-bound
  /// class (large fused rows, priced at their natural large tile) and a
  /// bandwidth-bound class (small fused rows, priced at a high-occupancy
  /// small tile), both packed into one persistent launch. Engages only when
  /// both classes are present — homogeneous batches already match the
  /// average heuristic. Off by default (baseline pinned by benches).
  bool packed_tiles = false;
};

/// FlashInfer v0.2 backend (balanced scheduler, fused kernels, graphs).
BackendConfig FlashInferBackend();
/// SGLang's Triton backend: no balanced scheduler, Triton kernel efficiency.
BackendConfig TritonBackend();
/// FlashAttention-library backend: fixed tiles, no balanced scheduler.
BackendConfig FlashAttentionBackend();
/// vLLM default attention backend (Table 8 comparison).
BackendConfig VllmDefaultBackend();

/// One step's attention shape.
struct AttnSimInput {
  std::vector<int64_t> qo_lens;  // Query tokens per request.
  std::vector<int64_t> kv_lens;  // Total KV length per request.
  /// Shared-prefix groups (composable formats); members index qo_lens.
  struct Group {
    int64_t prefix_len = 0;
    std::vector<int> members;
  };
  std::vector<Group> groups;
  int num_qo_heads = 32;
  int num_kv_heads = 8;
  int head_dim = 128;
  int page_size = 16;  // Pricing does not depend on it: pages hold every KV token.
  bool causal = true;
  /// Fraction of KV traffic served from L2 (cross-CTA page reuse; used to
  /// model single-format shared-prefix reads and unfused GQA).
  double kv_l2_fraction = 0.0;
  /// Bench overrides (0/auto by default): fixed query tile, forced template
  /// generation (2 = FA2, 3 = FA3), forced dense (contiguous) KV path.
  int tile_q_override = 0;
  int force_template = 0;
  bool force_dense = false;
};

/// Simulates one attention launch (per layer) for the step: derives the
/// query tiles from the lengths, runs the backend's scheduler, charges each
/// chunk's roofline cost to its CTA in assignment order, and returns the
/// launch report — bit-identical to materializing the Plan and walking it. With `backend.composable` and non-empty
/// groups, prefix KV is processed once per group at large Br (level 0) and
/// suffixes at small Br (level 1), plus the extra contraction.
gpusim::SimReport SimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                         const BackendConfig& backend, const AttnSimInput& in);

/// Prices one attention launch over an *explicit* BSR — masks that qo/kv
/// lengths cannot describe (tree-attention verification for speculative
/// decoding). The BSR must already live in the fused-row space (rows
/// expanded by the GQA group size when `backend.head_fusion`) with
/// `bsr.br` equal to the query tile it was built at; the backend's scheduler
/// runs over exactly the mask's non-zero blocks (causal trimming is off: the
/// mask IS the structure). `qo_lens`/`kv_lens` are per-request token rows
/// and KV extents, used for request attribution and pricing context only.
gpusim::SimReport SimulateMaskedAttention(const gpusim::DeviceSpec& dev,
                                          const BackendConfig& backend,
                                          const AttnSimInput& in,
                                          const sparse::BsrMatrix& bsr,
                                          const std::vector<int64_t>& qo_lens,
                                          const std::vector<int64_t>& kv_lens);

}  // namespace flashinfer::serving

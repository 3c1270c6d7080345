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
  /// Host CPU time per engine step, microseconds (scheduling, batching).
  double host_us_per_step = 150.0;
  /// Host CPU time per batched request per step (Python array ops in the
  /// integration layer; the vLLM-default backend sets this high).
  double host_us_per_req = 2.0;
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
/// chunk's roofline cost to its CTA as the scheduler places it (so in
/// assignment order), and returns the full launch report: launch time,
/// every CTA's time and the byte/flop totals, bit-identical to
/// materializing the Plan and walking it. With `backend.composable` and
/// non-empty groups, prefix KV is processed once per group at large Br
/// (level 0) and suffixes at small Br (level 1), plus the extra
/// contraction.
gpusim::SimReport SimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                         const BackendConfig& backend, const AttnSimInput& in);

/// The launch time alone: exactly SimulateBatchAttention(dev, backend,
/// in).time_us, bit for bit, for every backend and input. Both share one
/// pricer; this one skips what only the report needs (per-CTA times in the
/// report, byte/flop totals) and charges a run of equal-cost chunks that
/// all take the same time with one lookup. The serving engine prices every
/// step here: one pass over Algorithm 1 that lists no assignments, places
/// and charges groups of gcd(#SMs, heads) CTAs (4 for 8 kv heads on 132
/// SMs), whose CTAs take identical times, and whose key sort starts from
/// the thread's previous order when the step has the previous step's chunk
/// counts (a decode step that grew every row by a token mostly does).
double BatchAttentionTimeUs(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                            const AttnSimInput& in);

/// One request's attention mask, lowered once for launches that repeat it
/// for every request of the batch (speculative verification's draft-tree
/// tail, spec/verify.h): the mask's block rows in the fused-row space, all
/// owned by request 0, and the query tile they were lowered at.
struct MaskRows {
  int64_t qo_len = 0;  // Query tokens per request.
  int tile_q = 1;
  std::vector<BlockRowShape> rows;
};

/// Reads the block rows off one request's mask BSR: its `qo_len` tokens'
/// rows already expanded by the GQA group size under head fusion, tiled at
/// `bsr.br`. The mask IS the structure: no causal trimming.
MaskRows MaskRowsFromBsr(const sparse::BsrMatrix& bsr, int64_t qo_len);

/// Simulates one per-layer verify launch over branches with committed KV
/// lengths `context_lens`, in two levels merged like the composable
/// formats': level 0, each branch's mask.qo_len tokens attend its whole
/// context (SimulateBatchAttention's pricer, causal trimming off); level 1,
/// `mask` repeated once per branch through the same scheduler and cost
/// model at mask.tile_q; then the contraction merging both levels per
/// fused row. Reads only the geometry of `in`. The report's per-CTA times
/// are level 0's.
gpusim::SimReport SimulateVerifyAttention(const gpusim::DeviceSpec& dev,
                                          const BackendConfig& backend,
                                          const AttnSimInput& in, const MaskRows& mask,
                                          const std::vector<int64_t>& context_lens);

/// The verify launch time alone: exactly SimulateVerifyAttention(...)
/// .time_us, bit for bit, as BatchAttentionTimeUs is to
/// SimulateBatchAttention. The serving engine prices every spec step here.
double VerifyAttentionTimeUs(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                             const AttnSimInput& in, const MaskRows& mask,
                             const std::vector<int64_t>& context_lens);

}  // namespace flashinfer::serving

// Load-balanced scheduling (Sec. 3.3.1, Algorithm 1).
//
// The scheduler consumes sequence-length information and produces the
// plan: the work queue of every CTA plus the reduction map between partial
// and final outputs. Long KV rows are split into chunks of at most Lkv
// tokens (Lkv = ceil(total work / #CTA)); chunks are assigned
// longest-processing-time-first onto a min-heap of CTAs. Inspired by
// Stream-K but with deterministic aggregation order instead of atomics:
// identical sequence lengths always produce identical plans and identical
// outputs.
//
// Algorithm 1 needs only each query tile's shape — its rows and the KV
// tokens it reads — never the page indices. So scheduling runs in two
// layers:
//   1. Block rows: BlockRowsFromBsr reads the shapes off a BSR (any mask);
//      BlockRowsFromLengths derives them straight from (qo_lens, kv_lens)
//      for the paged layout BuildBatchBsr would build, without building it.
//      Both apply the same causal trim.
//   2. ScheduleBalanced / ScheduleNaive / ScheduleFixedSplit turn block rows
//      into a ChunkSchedule: every KV chunk and its CTA, in assignment
//      order, plus each row's split.
// The serving cost model prices a ChunkSchedule directly from the lengths
// at every generation step (serving/backends.cc), so the per-step path
// builds no BSR and no Plan. The Make*Plan functions materialize the same
// schedule into a Plan — WorkItem queues and the ReductionMap — because
// BatchAttentionHandle executes real kernel math over it and caches it
// across layers, exactly like FlashInfer's plan/run split.
//
// Two baselines used by the evaluation ablations:
//   naive       — one CTA per (tile, head), no splitting (the
//                 FlashAttention batch kernel's strategy).
//   fixed split — FlashDecoding-style fixed split count per tile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/contraction.h"
#include "core/params.h"

namespace flashinfer {

/// Scheduling policy (ablation knob for Tables 6-7).
enum class SchedulerKind : uint8_t {
  kBalanced,    // Algorithm 1.
  kNaive,       // One CTA per work unit, no splitting.
  kFixedSplit,  // FlashDecoding-style constant split count.
};

/// A complete execution plan for one attention launch.
struct Plan {
  /// Per-CTA work queues (persistent kernel: grid size == queues.size()).
  std::vector<std::vector<WorkItem>> cta_queues;
  /// Partial->final output mapping for the contraction kernel.
  ReductionMap rmap;
  /// Partial rows required in the workspace.
  int64_t num_partial_rows = 0;
  /// The KV chunk cap used (diagnostic; Algorithm 1 line 3).
  int64_t lkv_chunk = 0;
  /// Scheduling-cost hyperparameters actually applied.
  double alpha = 1.0;
  double beta = 1.0;

  int NumCtas() const noexcept { return static_cast<int>(cta_queues.size()); }
  int64_t NumWorkItems() const noexcept {
    int64_t n = 0;
    for (const auto& q : cta_queues) n += static_cast<int64_t>(q.size());
    return n;
  }
  /// Scheduled cost of the most/least loaded CTA (for balance assertions).
  double MaxCtaCost(int tile_q) const noexcept;
  double MinCtaCost(int tile_q) const noexcept;
};

/// Algorithm 1. `num_ctas` is the persistent grid size (k x #SM). Head
/// multiplicity comes from the params (kv heads when fused, qo heads
/// otherwise). `max_partial_rows` bounds workspace usage (checked).
Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows, double alpha = 1.0, double beta = 1.0);

/// Baseline: no KV splitting; CTA i runs work unit i (grid = #units).
Plan MakeNaivePlan(const AttentionParams& p, const KernelConfig& cfg);

/// Baseline: every work unit's KV is split into exactly `num_splits` chunks
/// (when long enough), round-robin over `num_ctas` CTAs.
Plan MakeFixedSplitPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                        int num_splits, int64_t max_partial_rows);

/// One query tile (BSR block row) as the scheduler sees it.
struct BlockRowShape {
  int32_t request;  // Owning request.
  int rows;         // Fused rows in the tile.
  int64_t kv_len;   // KV tokens the tile reads, after causal trimming.
};

/// Block rows of `p.bsr`: RowKvLen per row, causally trimmed when
/// `p.variant.causal`.
std::vector<BlockRowShape> BlockRowsFromBsr(const AttentionParams& p);

/// Block rows of the paged batch BSR over (qo_lens, kv_lens), without
/// building it: request r's qo_lens[r] * `fuse` fused rows are tiled at
/// `tile_q`, and every tile reads the request's whole KV (a page table's
/// RowKvLen is exactly kv_lens[r]). Causally trimmed when `causal`.
/// Overwrites `out`.
void BlockRowsFromLengths(const std::vector<int64_t>& qo_lens,
                          const std::vector<int64_t>& kv_lens, int fuse, int tile_q,
                          bool causal, std::vector<BlockRowShape>* out);

/// Work units before chunking: every (block_row, head) pair. Exposed for
/// tests and the serial kernel driver.
struct WorkUnit {
  int32_t block_row;
  int32_t request;
  int32_t kv_head;
  int32_t qo_head;  // -1 under head fusion.
  int64_t kv_len;   // Row KV length.
  int rows;         // Fused rows in the tile.
};
std::vector<WorkUnit> EnumerateWorkUnits(const AttentionParams& p);

/// A scheduler's decisions over block rows, before materialization. Work
/// unit (block_row, head) — head is the kv head under fusion, the qo head
/// otherwise — is cut into chunks of `splits[block_row].chunk_len` tokens.
struct ChunkSchedule {
  struct RowSplit {
    int64_t chunk_len = 0;  // >= the row's KV length when unsplit.
    int32_t num_chunks = 1;
    /// First partial-output row of the row's split units; unit `head`'s
    /// chunk k writes rows at partial_base + (head * num_chunks + k) * rows.
    int64_t partial_base = -1;

    /// Chunk k covers the row's valid KV tokens [ChunkBegin(k), ChunkEnd(k)).
    int64_t ChunkBegin(int32_t k) const noexcept { return int64_t{k} * chunk_len; }
    int64_t ChunkEnd(int32_t k, int64_t kv_len) const noexcept {
      return std::min(kv_len, ChunkBegin(k) + chunk_len);
    }
  };
  /// One chunk and the CTA it runs on. Listed in assignment order, so each
  /// CTA's queue is the subsequence of its assignments.
  struct Assignment {
    int32_t block_row;
    int32_t head;
    int32_t chunk;  // k, see RowSplit::ChunkBegin.
    int32_t cta;
  };
  int num_ctas = 0;
  int64_t lkv_chunk = 0;  // Algorithm 1 line 3 (0 for the baselines).
  int64_t num_partial_rows = 0;
  std::vector<RowSplit> splits;  // Per block row.
  std::vector<Assignment> assignments;
};

/// Algorithm 1 over `rows` x `num_heads` work units, `num_ctas` persistent
/// CTAs and chunk cost alpha * rows + beta * kv_tokens. Overwrites `out`.
/// Thread-safe: its scratch is thread-local.
void ScheduleBalanced(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                      int num_ctas, double alpha, double beta, ChunkSchedule* out);
/// One CTA per work unit, unsplit.
void ScheduleNaive(const std::vector<BlockRowShape>& rows, int num_heads, ChunkSchedule* out);
/// `num_splits` tile-aligned chunks per unit, round-robin over `num_ctas`.
void ScheduleFixedSplit(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                        int num_ctas, int num_splits, ChunkSchedule* out);

/// Fraction of the launch's KV reads served by L2 rather than HBM due to
/// intra-batch reuse: every query tile of a request re-reads the request's
/// KV, but only the first read per (request, kv head) misses to HBM. Decode
/// (one tile per request) returns 0; long prefill approaches
/// 1 - 1/num_tiles. Fed into CostContext::kv_l2_fraction.
double IntraBatchKvReuseFraction(const AttentionParams& p);
/// The same over block rows, with `num_heads` work units per row.
double KvReuseFraction(const std::vector<BlockRowShape>& rows, int num_heads,
                       int num_kv_heads);

}  // namespace flashinfer

// Load-balanced scheduling (Sec. 3.3.1, Algorithm 1).
//
// The scheduler consumes sequence-length information and produces the
// plan: the work queue of every CTA plus the reduction map between partial
// and final outputs. Long KV rows are split into chunks of at most Lkv
// tokens (Lkv = ceil(total work / #CTA)); chunks are assigned
// longest-processing-time-first, each to the CTA with the least
// accumulated cost, the lowest index on ties. Inspired by Stream-K but
// with deterministic aggregation order instead of atomics: identical
// sequence lengths always produce identical plans and identical outputs.
//
// A chunk costs its rows plus its KV tokens, a whole number of at least 1,
// and a CTA's load is the exact sum of its chunks' costs. The least-loaded
// CTA is found with the same choices a min-heap over (load, index) would
// make, a whole run of equal-cost chunks at a time:
//   1. Direct first round. While CTAs are still empty, chunk i goes to
//      CTA i: CTAs 0..i-1 already carry positive loads, so i is the
//      lowest-indexed CTA at load zero. The round ends once every CTA is
//      loaded.
//   2. Equal-load classes. CTAs with equal loads share a class, a bitset of
//      their indices, and classes are kept in load order. Each run of the
//      first round loads an index range to its cost, one class. A run of m
//      chunks of cost c takes the least class's lowest indices in order and
//      moves them to the class at load + c; when the least class empties,
//      the run continues in the next least one. A run that takes a whole
//      class relabels it (or joins it to the class already at load + c)
//      without moving a bit.
//   3. CTA groups. Every head of a chunk costs the same, so each run holds
//      a multiple of num_heads chunks, and CTAs only ever move in aligned
//      groups of g = gcd(#CTAs, num_heads): the direct round starts at CTA 0
//      and advances by such counts, and by induction every class is a
//      union of groups whose CTAs hold equal loads. So the classes track
//      groups, not CTAs: with 8 kv heads a 132-CTA grid is 33 groups of 4,
//      a run of one key moves two groups, and the grid holds at most 33
//      distinct loads.
//
// The longest-first order comes from one sort key per (block_row, chunk),
// since every head of a block row has the same chunks. The order is
// (cost desc, block_row asc, chunk asc), a strict total order, so every
// correct sort yields it. Keys are generated in (block_row, chunk) order,
// so a stable sort by descending cost does: from kRadixSortMinKeys keys on
// that is an LSD radix sort over the bytes of the integer costs, skipping
// the bytes every key shares (costs below 65,536 take at most two passes);
// below it, std::sort with the same order is cheaper. A
// serving step usually has the previous step's chunk structure: each thread
// keeps its last order, and when a call's per-row chunk counts equal that
// order's, each key in the old order gets its new cost and is
// insertion-sorted among those before it, falling back to the full sort
// after keys.size() / 4 element moves, which rows unrelated to the last
// call's spend within a few keys.
//
// Algorithm 1 needs only each query tile's shape — its rows and the KV
// tokens it reads — never the page indices. So scheduling runs in two
// layers:
//   1. Block rows: BlockRowsFromBsr reads the shapes off a BSR (any mask);
//      BlockRowsFromLengths derives them straight from (qo_lens, kv_lens)
//      for the paged layout BuildBatchBsr would build, without building it.
//      Both apply the same causal trim.
//   2. ScheduleBalanced / ScheduleNaive / ScheduleFixedSplit split the block
//      rows into KV chunks and place every chunk on a CTA. They report the
//      split in a ChunkSchedule and each placement, in assignment order, to
//      a PlacementSink. AssignmentList is the sink that lists the
//      placements, for the callers that need them.
// The serving cost model prices a step straight from its lengths with a
// sink that charges each chunk's time to its CTA group as it is placed
// (serving/backends.cc: BatchAttentionTimeUs for the engine,
// SimulateBatchAttention for the full report), so the per-step path builds
// no BSR, no Plan and no assignment list. The Make*Plan functions
// materialize the same schedule into a Plan — WorkItem queues and the
// ReductionMap — because BatchAttentionHandle executes real kernel math
// over it and caches it across layers, exactly like FlashInfer's plan/run
// split.
//
// Two baselines used by the evaluation ablations:
//   naive       — one CTA per (tile, head), no splitting (the
//                 FlashAttention batch kernel's strategy).
//   fixed split — FlashDecoding-style fixed split count per tile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// kFixedSplit's split count: every work unit's KV is cut into this many
/// chunks.
inline constexpr int kFixedSplits = 4;

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

  int NumCtas() const noexcept { return static_cast<int>(cta_queues.size()); }
  int64_t NumWorkItems() const noexcept {
    int64_t n = 0;
    for (const auto& q : cta_queues) n += static_cast<int64_t>(q.size());
    return n;
  }
};

/// Algorithm 1. `num_ctas` is the persistent grid size (k x #SM). Head
/// multiplicity comes from the params (kv heads when fused, qo heads
/// otherwise). `max_partial_rows` bounds workspace usage (checked).
Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows);

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
  int num_ctas = 0;
  /// CTAs per placed group, g: a divisor of num_ctas and of the head count,
  /// set before the sink's Split. Group i is CTAs [i * g, i * g + g). Its
  /// CTAs take g consecutive chunks of a run, from one block row and of
  /// one cost, so they hold equal loads. 1 for the baselines.
  int cta_group = 1;
  int64_t lkv_chunk = 0;  // Algorithm 1 line 3 (0 for the baselines).
  int64_t num_partial_rows = 0;
  std::vector<RowSplit> splits;  // Per block row.
};

/// One (block_row, chunk) key: the chunk of every head of the block row.
struct ChunkKey {
  int64_t cost;  // Algorithm 1's sort key, rows + KV tokens; 0 for the baselines.
  int32_t block_row;
  int32_t chunk;
};

/// Some CTA groups (ChunkSchedule::cta_group) of one 64-group word of the
/// grid: group 64 * word + b for each set bit b of `ctas`, lowest first.
/// `ctas` is never 0.
struct CtaWord {
  int32_t word;
  uint64_t ctas;
};

/// Receives a schedule as the scheduler makes it: the split, then every
/// placement in assignment order, a run of keys at a time. A run's chunks
/// expand head-major per block row: each block row's keys in the run are
/// adjacent, and keys [a, b) of block row r stand for the chunks
/// (r, h, keys[j].chunk) for h = 0 .. num_heads - 1, each over j = a .. b - 1.
class PlacementSink {
 public:
  /// Every row is split as `s` says, and s.cta_group is the group size g
  /// of every placement to come. Called once, before the first run.
  virtual void Split(const ChunkSchedule& s) = 0;
  /// One run, never empty: its chunks, in order, go to the groups listed
  /// in `ctas`, g chunks per group. Group i takes the run's next g chunks,
  /// one per CTA i * g, ..., i * g + g - 1 in that order; they come from
  /// one block row and have one cost.
  virtual void Place(std::span<const ChunkKey> run, std::span<const CtaWord> ctas) = 0;

 protected:
  ~PlacementSink() = default;
};

/// Follows a run's chunks in assignment order (see PlacementSink): key()
/// and head() name the current chunk, Next() steps to the following one.
class RunChunks {
 public:
  RunChunks(std::span<const ChunkKey> run, int num_heads) noexcept
      : run_(run), num_heads_(num_heads) {
    FindRowEnd();
  }
  const ChunkKey& key() const noexcept { return run_[j_]; }
  int32_t head() const noexcept { return head_; }
  void Next() noexcept {
    if (++j_ < end_) return;
    if (++head_ < num_heads_) {
      j_ = begin_;
      return;
    }
    head_ = 0;
    begin_ = end_;
    FindRowEnd();
  }

 private:
  void FindRowEnd() noexcept {
    end_ = begin_;
    while (end_ < run_.size() && run_[end_].block_row == run_[begin_].block_row) ++end_;
  }

  std::span<const ChunkKey> run_;
  int num_heads_ = 1;
  size_t begin_ = 0;  // The current block row's keys are [begin_, end_).
  size_t end_ = 0;
  size_t j_ = 0;
  int32_t head_ = 0;
};

/// One chunk and the CTA it runs on.
struct ChunkAssignment {
  int32_t block_row;
  int32_t head;
  int32_t chunk;  // k, see ChunkSchedule::RowSplit::ChunkBegin.
  int32_t cta;
};

/// The sink that lists every placement in assignment order, one CTA per
/// chunk (each group expanded to its CTAs), so each CTA's queue is the
/// subsequence of its assignments: what Make*Plan materializes, and what
/// tests and benches inspect. `num_heads` is the scheduler's. Each schedule
/// written through it replaces the list.
class AssignmentList final : public PlacementSink {
 public:
  explicit AssignmentList(int num_heads) noexcept : num_heads_(num_heads) {}
  void Split(const ChunkSchedule& s) override;
  void Place(std::span<const ChunkKey> run, std::span<const CtaWord> ctas) override;
  const std::vector<ChunkAssignment>& assignments() const noexcept { return assignments_; }

 private:
  int num_heads_;
  int group_ = 1;
  std::vector<ChunkAssignment> assignments_;
};

/// ScheduleBalanced sorts its (block_row, chunk) keys with a stable radix
/// sort from this many keys on, and with std::sort below it: fewer keys do
/// not pay for the radix passes. Set by measurement on the serving
/// benchmark's captured steps, where the two sorts break even at ~40 keys.
inline constexpr size_t kRadixSortMinKeys = 40;

/// The schedulers below overwrite `out` with the split and report it and
/// each placement to `sink`. Thread-safe: their scratch is thread-local.
///
/// Algorithm 1 over `rows` x `num_heads` work units, `num_ctas` persistent
/// CTAs and chunk cost rows + kv_tokens. Each run is a maximal run of
/// equal-cost keys in sorted order. Places groups of gcd(num_ctas,
/// num_heads) CTAs (see the header comment).
void ScheduleBalanced(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                      int num_ctas, ChunkSchedule* out, PlacementSink& sink);
/// One CTA per work unit, unsplit: one run over every block row.
void ScheduleNaive(const std::vector<BlockRowShape>& rows, int num_heads, ChunkSchedule* out,
                   PlacementSink& sink);
/// `num_splits` tile-aligned chunks per unit, round-robin over `num_ctas`
/// in generation order: one run over every block row.
void ScheduleFixedSplit(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                        int num_ctas, int num_splits, ChunkSchedule* out,
                        PlacementSink& sink);

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

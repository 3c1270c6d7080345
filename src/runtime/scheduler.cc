#include "runtime/scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace flashinfer {

namespace {

/// Causal trimming: a tile whose last query token sits at `last_token`
/// (request-local) attends at most kv_len - qo_len + last_token + 1 tokens,
/// so later KV is dead work the kernel skips (fully-masked tiles are never
/// scheduled).
int64_t CausalTrim(int64_t row_kv, int64_t req_kv_len, int64_t qo_len,
                   int64_t last_token) noexcept {
  return std::min(row_kv, std::max<int64_t>(req_kv_len - qo_len + last_token + 1, 0));
}

int NumUnitHeads(const AttentionParams& p) noexcept {
  return p.head_fusion ? p.num_kv_heads : p.num_qo_heads;
}

/// Line 4: cuts each row's KV into chunks of at most `chunk_len(kv_len)`
/// tokens; single-chunk units write through (Appendix D.2). Split units
/// take partial-output rows in generation order (block_row, head, chunk).
template <typename ChunkLen>
void SplitRows(const std::vector<BlockRowShape>& rows, int num_heads, ChunkLen chunk_len,
               ChunkSchedule* out) {
  out->splits.resize(rows.size());
  int64_t next_partial_row = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const int64_t kv = rows[i].kv_len;
    const int64_t len = chunk_len(kv);
    auto& s = out->splits[i];
    s.chunk_len = len;
    s.num_chunks = kv <= len ? 1 : static_cast<int32_t>((kv + len - 1) / len);
    s.partial_base = -1;
    if (s.num_chunks > 1) {
      s.partial_base = next_partial_row;
      next_partial_row += int64_t{num_heads} * s.num_chunks * rows[i].rows;
    }
  }
  out->num_partial_rows = next_partial_row;
}

int64_t RoundUpToTile(int64_t len, int64_t tile) noexcept {
  return std::max<int64_t>(((len + tile - 1) / tile) * tile, tile);
}

/// Builds the reduction map rows for one split work unit, mirroring the
/// kernel's fused-row mapping (Appendix A). Chunk k's partial rows start at
/// first_base + k * rows.
void AppendMergeTasks(const AttentionParams& p, int32_t block_row, const BlockRowShape& row,
                      int kv_head, int qo_head, int64_t first_base, int num_chunks,
                      ReductionMap* rmap) {
  const int g = p.head_fusion ? p.GroupSize() : 1;
  const int64_t row0 = p.bsr->row_start[static_cast<size_t>(block_row)];
  const int64_t fused_begin = p.FusedBegin(row.request);
  for (int i = 0; i < row.rows; ++i) {
    const int64_t local = row0 + i - fused_begin;
    ReductionMap::Task task;
    task.token_row = p.qo_indptr[static_cast<size_t>(row.request)] + local / g;
    task.qo_head = p.head_fusion ? kv_head * g + static_cast<int>(local % g) : qo_head;
    task.begin = static_cast<int32_t>(rmap->slots.size());
    task.count = num_chunks;
    for (int k = 0; k < num_chunks; ++k) {
      rmap->slots.push_back(static_cast<int32_t>(first_base + int64_t{k} * row.rows + i));
    }
    rmap->tasks.push_back(task);
  }
}

/// Turns a schedule into WorkItem queues and the reduction map.
Plan Materialize(const AttentionParams& p, const std::vector<BlockRowShape>& rows,
                 const ChunkSchedule& s) {
  const int g = p.GroupSize();
  auto kv_head_of = [&](int h) { return p.head_fusion ? h : h / g; };
  auto qo_head_of = [&](int h) { return p.head_fusion ? -1 : h; };
  auto unit_base = [&](int32_t br, int h) {
    const auto& split = s.splits[static_cast<size_t>(br)];
    return split.partial_base +
           int64_t{h} * split.num_chunks * rows[static_cast<size_t>(br)].rows;
  };

  Plan plan;
  plan.lkv_chunk = s.lkv_chunk;
  plan.num_partial_rows = s.num_partial_rows;
  plan.cta_queues.resize(static_cast<size_t>(s.num_ctas));
  for (const auto& a : s.assignments) {
    const auto& row = rows[static_cast<size_t>(a.block_row)];
    const auto& split = s.splits[static_cast<size_t>(a.block_row)];
    const int64_t dest =
        split.num_chunks > 1 ? unit_base(a.block_row, a.head) + int64_t{a.chunk} * row.rows
                             : -1;
    plan.cta_queues[static_cast<size_t>(a.cta)].push_back(
        WorkItem{a.block_row, row.request, kv_head_of(a.head), qo_head_of(a.head),
                 split.ChunkBegin(a.chunk), split.ChunkEnd(a.chunk, row.kv_len),
                 static_cast<int32_t>(dest)});
  }
  const int num_heads = NumUnitHeads(p);
  for (size_t br = 0; br < rows.size(); ++br) {
    const auto& split = s.splits[br];
    if (split.num_chunks == 1) continue;
    for (int h = 0; h < num_heads; ++h) {
      AppendMergeTasks(p, static_cast<int32_t>(br), rows[br], kv_head_of(h), qo_head_of(h),
                       unit_base(static_cast<int32_t>(br), h), split.num_chunks, &plan.rmap);
    }
  }
  return plan;
}

}  // namespace

double Plan::MaxCtaCost(int tile_q) const noexcept {
  double worst = 0.0;
  for (const auto& queue : cta_queues) {
    double c = 0.0;
    for (const auto& it : queue) {
      c += alpha * tile_q + beta * static_cast<double>(it.kv_end - it.kv_begin);
    }
    worst = std::max(worst, c);
  }
  return worst;
}

double Plan::MinCtaCost(int tile_q) const noexcept {
  if (cta_queues.empty()) return 0.0;
  double best = -1.0;
  for (const auto& queue : cta_queues) {
    double c = 0.0;
    for (const auto& it : queue) {
      c += alpha * tile_q + beta * static_cast<double>(it.kv_end - it.kv_begin);
    }
    if (best < 0.0 || c < best) best = c;
  }
  return best;
}

std::vector<BlockRowShape> BlockRowsFromBsr(const AttentionParams& p) {
  const auto& bsr = *p.bsr;
  const int fuse = p.head_fusion ? p.GroupSize() : 1;
  std::vector<BlockRowShape> rows;
  rows.reserve(static_cast<size_t>(bsr.NumBlockRows()));
  int request = 0;
  const int num_reqs = static_cast<int>(p.qo_indptr.size()) - 1;
  for (int64_t br = 0; br < bsr.NumBlockRows(); ++br) {
    const int64_t row0 = bsr.row_start[static_cast<size_t>(br)];
    // Advance to the owning request (block rows are laid out per request).
    while (request + 1 < num_reqs && p.FusedBegin(request + 1) <= row0) ++request;
    int64_t kv_len = bsr.RowKvLen(br);
    if (p.variant.causal) {
      const int64_t last_local =
          bsr.row_start[static_cast<size_t>(br) + 1] - 1 - p.FusedBegin(request);
      kv_len = CausalTrim(kv_len, p.kv_len[static_cast<size_t>(request)], p.QoLen(request),
                          last_local / fuse);
    }
    rows.push_back({request, bsr.RowsInBlock(br), kv_len});
  }
  return rows;
}

void BlockRowsFromLengths(const std::vector<int64_t>& qo_lens,
                          const std::vector<int64_t>& kv_lens, int fuse, int tile_q,
                          bool causal, std::vector<BlockRowShape>* out) {
  FI_CHECK_EQ(qo_lens.size(), kv_lens.size());
  FI_CHECK_GE(tile_q, 1);
  out->clear();
  for (size_t r = 0; r < qo_lens.size(); ++r) {
    const int64_t fused = qo_lens[r] * fuse;
    for (int64_t lo = 0; lo < fused; lo += tile_q) {
      const int64_t hi = std::min<int64_t>(fused, lo + tile_q);
      int64_t kv_len = kv_lens[r];
      if (causal) kv_len = CausalTrim(kv_len, kv_lens[r], qo_lens[r], (hi - 1) / fuse);
      out->push_back({static_cast<int32_t>(r), static_cast<int>(hi - lo), kv_len});
    }
  }
}

std::vector<WorkUnit> EnumerateWorkUnits(const AttentionParams& p) {
  const auto rows = BlockRowsFromBsr(p);
  const int num_heads = NumUnitHeads(p);
  std::vector<WorkUnit> units;
  units.reserve(rows.size() * static_cast<size_t>(num_heads));
  for (size_t br = 0; br < rows.size(); ++br) {
    for (int h = 0; h < num_heads; ++h) {
      WorkUnit u;
      u.block_row = static_cast<int32_t>(br);
      u.request = rows[br].request;
      u.kv_head = p.head_fusion ? h : h / p.GroupSize();
      u.qo_head = p.head_fusion ? -1 : h;
      u.kv_len = rows[br].kv_len;
      u.rows = rows[br].rows;
      units.push_back(u);
    }
  }
  return units;
}

double KvReuseFraction(const std::vector<BlockRowShape>& rows, int num_heads,
                       int num_kv_heads) {
  // The underlying KV data is per (request, kv head): only its first read
  // misses to HBM. Re-reads come from (a) multiple query tiles of one
  // request (prefill) and (b) multiple qo heads sharing a kv head when
  // head-group fusion is off (unfused GQA) — both hit L2. Unique bytes per
  // (request, kv head) equal the largest tile read (the last causal tile
  // touches the whole visible KV); every head of a tile reads the same KV.
  int64_t total = 0;
  int64_t unique = 0;
  for (size_t i = 0; i < rows.size();) {
    int64_t largest = 0;
    size_t j = i;
    for (; j < rows.size() && rows[j].request == rows[i].request; ++j) {
      largest = std::max(largest, rows[j].kv_len);
      total += rows[j].kv_len;
    }
    unique += largest;
    i = j;
  }
  total *= num_heads;
  unique *= num_kv_heads;
  if (total <= 0) return 0.0;
  return std::max(0.0, 1.0 - static_cast<double>(unique) / static_cast<double>(total));
}

double IntraBatchKvReuseFraction(const AttentionParams& p) {
  return KvReuseFraction(BlockRowsFromBsr(p), NumUnitHeads(p), p.num_kv_heads);
}

void ScheduleBalanced(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                      int num_ctas, double alpha, double beta, ChunkSchedule* out) {
  FI_CHECK_GE(num_ctas, 1);
  out->num_ctas = num_ctas;
  out->assignments.clear();

  // Line 3: maximum KV chunk size, rounded up to the KV tile.
  int64_t total_kv = 0;
  for (const auto& r : rows) total_kv += r.kv_len * num_heads;
  const int64_t lkv =
      RoundUpToTile((total_kv + num_ctas - 1) / num_ctas, std::max(1, tile_kv));
  out->lkv_chunk = lkv;

  // Line 4.
  SplitRows(rows, num_heads, [lkv](int64_t) { return lkv; }, out);

  // Line 5: descending cost, ties in generation order (block_row, head,
  // chunk). Every head of a block row has the same chunks, so the sort runs
  // over (block_row, chunk) and heads are expanded afterwards: within a run
  // of equal cost from one block row, generation order is head-major.
  struct Key {
    double cost;
    int32_t block_row;
    int32_t chunk;
  };
  thread_local std::vector<Key> keys;
  keys.clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& split = out->splits[i];
    for (int32_t k = 0; k < split.num_chunks; ++k) {
      const int64_t tokens = split.ChunkEnd(k, rows[i].kv_len) - split.ChunkBegin(k);
      keys.push_back({alpha * static_cast<double>(rows[i].rows) +
                          beta * static_cast<double>(tokens),
                      static_cast<int32_t>(i), k});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.cost != b.cost) return a.cost > b.cost;
    if (a.block_row != b.block_row) return a.block_row < b.block_row;
    return a.chunk < b.chunk;
  });

  // Lines 6-13: longest-processing-time-first onto a min-heap of CTAs,
  // ordered by (accumulated cost, cta index).
  using HeapEntry = std::pair<double, int32_t>;
  thread_local std::vector<HeapEntry> heap;
  heap.clear();
  for (int32_t c = 0; c < num_ctas; ++c) heap.emplace_back(0.0, c);  // Already a heap.
  const size_t n = heap.size();
  out->assignments.reserve(keys.size() * static_cast<size_t>(num_heads));
  for (size_t a = 0; a < keys.size();) {
    size_t b = a + 1;
    while (b < keys.size() && keys[b].cost == keys[a].cost &&
           keys[b].block_row == keys[a].block_row) {
      ++b;
    }
    for (int32_t h = 0; h < num_heads; ++h) {
      for (size_t j = a; j < b; ++j) {
        // Pop the least-loaded CTA, charge the chunk, sift it back down.
        HeapEntry top = heap[0];
        out->assignments.push_back({keys[j].block_row, h, keys[j].chunk, top.second});
        top.first += keys[j].cost;
        size_t i = 0;
        for (size_t child = 1; child < n; child = 2 * i + 1) {
          if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
          if (!(heap[child] < top)) break;
          heap[i] = heap[child];
          i = child;
        }
        heap[i] = top;
      }
    }
    a = b;
  }
}

void ScheduleNaive(const std::vector<BlockRowShape>& rows, int num_heads, ChunkSchedule* out) {
  out->num_ctas = static_cast<int>(rows.size()) * num_heads;
  out->lkv_chunk = 0;
  out->num_partial_rows = 0;
  out->splits.resize(rows.size());
  out->assignments.clear();
  out->assignments.reserve(static_cast<size_t>(out->num_ctas));
  int32_t cta = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    out->splits[i] = {rows[i].kv_len, 1, -1};
    for (int32_t h = 0; h < num_heads; ++h) {
      out->assignments.push_back({static_cast<int32_t>(i), h, 0, cta++});
    }
  }
}

void ScheduleFixedSplit(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                        int num_ctas, int num_splits, ChunkSchedule* out) {
  FI_CHECK_GE(num_ctas, 1);
  FI_CHECK_GE(num_splits, 1);
  out->num_ctas = num_ctas;
  out->lkv_chunk = 0;
  out->assignments.clear();
  const int64_t tkv = std::max(1, tile_kv);
  SplitRows(
      rows, num_heads,
      [&](int64_t kv) { return RoundUpToTile((kv + num_splits - 1) / num_splits, tkv); },
      out);
  int32_t cta = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int32_t h = 0; h < num_heads; ++h) {
      for (int32_t k = 0; k < out->splits[i].num_chunks; ++k) {
        out->assignments.push_back({static_cast<int32_t>(i), h, k, cta});
        cta = (cta + 1) % num_ctas;
      }
    }
  }
}

Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows, double alpha, double beta) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  ScheduleBalanced(rows, NumUnitHeads(p), cfg.tile_kv, num_ctas, alpha, beta, &s);
  FI_CHECK_LE(s.num_partial_rows, max_partial_rows);
  Plan plan = Materialize(p, rows, s);
  plan.alpha = alpha;
  plan.beta = beta;
  return plan;
}

Plan MakeNaivePlan(const AttentionParams& p, const KernelConfig&) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  ScheduleNaive(rows, NumUnitHeads(p), &s);
  return Materialize(p, rows, s);
}

Plan MakeFixedSplitPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                        int num_splits, int64_t max_partial_rows) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  ScheduleFixedSplit(rows, NumUnitHeads(p), cfg.tile_kv, num_ctas, num_splits, &s);
  FI_CHECK_LE(s.num_partial_rows, max_partial_rows);
  return Materialize(p, rows, s);
}

}  // namespace flashinfer

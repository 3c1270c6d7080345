#include "runtime/scheduler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <span>
#include <utility>

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

/// Bits [lo, hi) of one 64-bit word, clamped to it.
uint64_t WordRange(int32_t lo, int32_t hi) noexcept {
  lo = std::clamp(lo, 0, 64);
  hi = std::clamp(hi, 0, 64);
  if (lo >= hi) return 0;
  const uint64_t below_hi = hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & ~((uint64_t{1} << lo) - 1);
}

/// Algorithm 1's CTA choice (lines 7-9) for a run of equal-cost chunks,
/// over `n` placement units (ScheduleBalanced's CTA groups, which move
/// together): Place(cost, count, out) puts each of the run's `count` units
/// of chunks, in order, on the unit that minimizes (accumulated load,
/// index), adds `cost` to that unit's load and appends the unit to `out`.
/// Costs are positive, and runs come in decreasing cost order.
///
/// Units with equal loads share a class, a bitset of their indices, and
/// classes are kept in load order. Until every unit is loaded, chunk i
/// lands on unit i: units 0..i-1 already hold positive loads and i is the
/// lowest-indexed empty one, so each such run's units form one class, an
/// index range at load `cost`. From then on a chunk goes to the least
/// class's lowest index and moves it to the class at load + cost, so a run
/// takes the least class's lowest indices in order and moves them
/// together; when the least class empties, the run continues in the next
/// one. A run that takes the whole least class relabels it at load + cost,
/// or ORs it into the class already there.
class LeastLoadedCtas {
 public:
  void Reset(int n) {
    // Every live class holds a unit (a move of a whole class relabels or
    // releases it, and a partial move leaves the least class members), so
    // at most n are live and n ids suffice. Their bitsets take
    // n * ceil(n / 64) words: 264 bytes for 33 groups of 4 CTAs. Ids are
    // taken as classes appear, so a call writes only the bitsets of the
    // classes it creates.
    n_ = n;
    words_ = (n + 63) / 64;
    const size_t pool = static_cast<size_t>(n);
    if (members_.size() < pool * static_cast<size_t>(words_)) {
      members_.resize(pool * static_cast<size_t>(words_));
    }
    if (size_.size() < pool) {
      size_.resize(pool);
      free_.resize(pool);
      order_.resize(pool);
    }
    next_id_ = 0;
    num_free_ = 0;
    live_ = 0;
    first_empty_ = 0;
  }

  void Place(int64_t cost, size_t count, std::vector<CtaWord>& out) {
    if (first_empty_ < n_) {
      const int32_t lo = first_empty_;
      const int32_t hi = static_cast<int32_t>(
          std::min<size_t>(static_cast<size_t>(n_), static_cast<size_t>(lo) + count));
      AddRange(lo, hi, cost);
      for (int32_t w = lo / 64; 64 * w < hi; ++w) {
        out.push_back({w, WordRange(lo - 64 * w, hi - 64 * w)});
      }
      first_empty_ = hi;
      count -= static_cast<size_t>(hi - lo);
    }
    while (count > 0) {
      const Class least = order_[static_cast<size_t>(live_ - 1)];
      const int64_t load = least.load + cost;
      uint64_t* from = Members(least.id);
      // The least class's lowest indices, in order: every word of a whole
      // class, and the lowest members one by one otherwise.
      const size_t first_word = out.size();
      const int32_t size = size_[least.id];
      const auto moved = static_cast<int32_t>(std::min<size_t>(count, static_cast<size_t>(size)));
      count -= static_cast<size_t>(moved);
      if (moved == size) {
        for (int32_t w = 0; w < words_; ++w) {
          if (from[w] != 0) out.push_back({w, from[w]});
        }
      } else {
        for (int32_t w = 0, left = moved; left > 0; ++w) {
          uint64_t rest = from[w];
          for (; rest != 0 && left > 0; --left) rest &= rest - 1;
          if (rest != from[w]) out.push_back({w, from[w] ^ rest});
        }
      }
      // They join the class at `load`. A whole class with no class there
      // is relabeled, taking its place in the order; no bit moves.
      const size_t j = FindAbove(load);
      if (moved == size && order_[j].load != load) {
        std::copy_backward(order_.begin() + static_cast<std::ptrdiff_t>(j),
                           order_.begin() + live_ - 1, order_.begin() + live_);
        order_[j] = {load, least.id};
        continue;
      }
      const int32_t target = order_[j].load == load ? order_[j].id : Insert(j, load);
      uint64_t* to = Members(target);
      for (auto it = out.begin() + static_cast<std::ptrdiff_t>(first_word); it != out.end();
           ++it) {
        to[it->word] |= it->ctas;
        from[it->word] ^= it->ctas;
      }
      size_[target] += moved;
      size_[least.id] -= moved;
      if (moved == size) {  // Emptied: released with an empty bitset.
        free_[static_cast<size_t>(num_free_++)] = least.id;
        --live_;
      }
    }
  }

 private:
  struct Class {
    int64_t load;  // The members' shared load.
    int32_t id;
  };

  uint64_t* Members(int32_t id) noexcept {
    return members_.data() + static_cast<size_t>(id) * static_cast<size_t>(words_);
  }

  /// A new class of the units [lo, hi), below every class so far.
  void AddRange(int32_t lo, int32_t hi, int64_t load) {
    const int32_t id = next_id_++;
    uint64_t* members = Members(id);
    for (int32_t w = 0; w < words_; ++w) members[w] = WordRange(lo - 64 * w, hi - 64 * w);
    size_[id] = hi - lo;
    order_[static_cast<size_t>(live_++)] = {load, id};
  }

  /// The position of the highest class at or below `load`, which is above
  /// the least class's load. A new load tends to land among the highest,
  /// so the search starts there.
  size_t FindAbove(int64_t load) const noexcept {
    size_t j = 0;
    while (order_[j].load > load) ++j;
    return j;
  }

  /// A new class at `load`, at position j of the order.
  int32_t Insert(size_t j, int64_t load) {
    int32_t id;
    if (num_free_ == 0) {
      id = next_id_++;
      std::fill_n(Members(id), words_, uint64_t{0});
      size_[id] = 0;
    } else {  // A released class: no members, and an empty bitset.
      id = free_[static_cast<size_t>(--num_free_)];
    }
    std::copy_backward(order_.begin() + static_cast<std::ptrdiff_t>(j),
                       order_.begin() + live_, order_.begin() + live_ + 1);
    order_[j] = {load, id};
    ++live_;
    return id;
  }

  int32_t n_ = 0;
  // The lowest empty unit, all later ones empty too; n_ once the first
  // round has loaded every unit.
  int32_t first_empty_ = 0;
  int32_t words_ = 0;              // Bitset words per class.
  std::vector<uint64_t> members_;  // Class id -> bitset of member units.
  std::vector<int32_t> size_;      // Class id -> member count.
  int32_t next_id_ = 0;            // Ids below it have been taken.
  // Fixed capacity n, sized by Reset: released class ids, the first
  // num_free_ of free_, and the live classes, highest load first, the
  // first live_ of order_.
  std::vector<int32_t> free_;
  int32_t num_free_ = 0;
  std::vector<Class> order_;
  int32_t live_ = 0;
};

/// Algorithm 1's line-5 order: descending cost, then block_row, then chunk.
/// A strict total order, since no two keys share (block_row, chunk).
bool SortsBefore(const ChunkKey& a, const ChunkKey& b) noexcept {
  if (a.cost != b.cost) return a.cost > b.cost;
  if (a.block_row != b.block_row) return a.block_row < b.block_row;
  return a.chunk < b.chunk;
}

/// Sorts keys generated in (block_row, chunk) order by descending cost,
/// ties in generation order. From kRadixSortMinKeys keys on this is a
/// stable LSD radix sort over the bytes of the non-negative costs; bytes
/// that every key shares take no pass. Fewer keys do not pay for its
/// passes.
void SortByDescendingCost(std::vector<ChunkKey>& keys, std::vector<ChunkKey>& spare) {
  if (keys.size() < kRadixSortMinKeys) {
    std::sort(keys.begin(), keys.end(), SortsBefore);
    return;
  }
  auto bits = [](const ChunkKey& k) { return static_cast<uint64_t>(k.cost); };
  uint64_t varying = 0;
  for (const auto& k : keys) varying |= bits(k) ^ bits(keys[0]);
  spare.resize(keys.size());
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    // Digit 0 is the highest byte value: descending order.
    auto digit = [&](const ChunkKey& k) { return 0xFF - ((bits(k) >> shift) & 0xFF); };
    std::array<uint32_t, 256> start{};
    for (const auto& k : keys) ++start[digit(k)];
    uint32_t sum = 0;
    for (auto& s : start) sum += std::exchange(s, sum);
    for (const auto& k : keys) spare[start[digit(k)]++] = k;
    keys.swap(spare);
  }
}

/// Gives each of `keys`, in order, its new cost(block_row, chunk) and
/// insertion-sorts it into SortsBefore order among the keys before it, with
/// at most keys.size() / 4 element moves in all. Returns false, leaving
/// `keys` unusable, once it needs more. Keys in an order unrelated to their
/// new costs spend the budget within about sqrt(keys.size()) keys, before
/// most of them are re-costed. A step that kept its order mostly needs no
/// move: on the serving benchmark's seed-1 steps, about 1% of the reused
/// orders of parallel_n4 and fewer elsewhere need more than the budget.
template <typename Cost>
bool ResortWithinBudget(std::vector<ChunkKey>& keys, const Cost& cost) {
  size_t budget = keys.size() / 4;
  for (size_t i = 0; i < keys.size(); ++i) {
    ChunkKey key = keys[i];
    key.cost = cost(key.block_row, key.chunk);
    size_t j = i;
    for (; j > 0 && SortsBefore(key, keys[j - 1]); --j) {
      if (budget-- == 0) return false;
      keys[j] = keys[j - 1];
    }
    keys[j] = key;
  }
  return true;
}

/// The schedulers' buffers, reused across calls. Thread-local, like the
/// pricer's: each thread keeps its own, and its sorted keys carry the last
/// order to the thread's next call.
struct ScheduleScratch {
  std::vector<ChunkKey> keys, spare;  // Line 5's sorted order, and the sort's spare.
  std::vector<int32_t> key_chunks;    // Chunks per row of the order in `keys`.
  LeastLoadedCtas ctas;
  std::vector<CtaWord> run_ctas;      // The current run's CTAs.
  std::vector<ChunkKey> in_order;     // The baselines' one run.
  std::vector<CtaWord> in_order_ctas;
};
thread_local ScheduleScratch t_scratch;

/// Line 5: every (block_row, chunk) key of the split rows in SortsBefore
/// order. The order stays in the thread's scratch, valid until its next
/// call. When this call's per-row chunk counts equal the
/// previous call's, its keys are that call's order re-costed and
/// insertion-sorted as they go: a decode step whose rows each grew by a
/// token mostly keeps its order. Past the move budget, which unrelated
/// rows with the same chunk counts reach within a few keys, the keys are
/// sorted afresh.
std::span<const ChunkKey> SortedKeys(const std::vector<BlockRowShape>& rows,
                                     const std::vector<ChunkSchedule::RowSplit>& splits) {
  ScheduleScratch& scratch = t_scratch;
  std::vector<ChunkKey>& keys = scratch.keys;
  std::vector<int32_t>& key_chunks = scratch.key_chunks;
  auto cost = [&](int32_t br, int32_t k) {
    const auto& split = splits[static_cast<size_t>(br)];
    const auto& row = rows[static_cast<size_t>(br)];
    return row.rows + split.ChunkEnd(k, row.kv_len) - split.ChunkBegin(k);
  };
  bool same_chunks = key_chunks.size() == rows.size();
  for (size_t i = 0; same_chunks && i < rows.size(); ++i) {
    same_chunks = key_chunks[i] == splits[i].num_chunks;
  }
  if (same_chunks && ResortWithinBudget(keys, cost)) return keys;
  keys.clear();
  key_chunks.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    key_chunks[i] = splits[i].num_chunks;
    for (int32_t k = 0; k < splits[i].num_chunks; ++k) {
      keys.push_back({cost(static_cast<int32_t>(i), k), static_cast<int32_t>(i), k});
    }
  }
  SortByDescendingCost(keys, scratch.spare);
  return keys;
}

/// The baselines' placement: every chunk in generation order (block_row,
/// head, chunk) as one run, round-robin over the grid from CTA 0.
void PlaceRoundRobin(const std::vector<BlockRowShape>& rows, int num_heads,
                     const ChunkSchedule& s, PlacementSink& sink) {
  ScheduleScratch& scratch = t_scratch;
  std::vector<ChunkKey>& keys = scratch.in_order;
  std::vector<CtaWord>& ctas = scratch.in_order_ctas;
  keys.clear();
  ctas.clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int32_t k = 0; k < s.splits[i].num_chunks; ++k) {
      keys.push_back({0, static_cast<int32_t>(i), k});
    }
  }
  if (keys.empty()) return;
  for (int64_t left = static_cast<int64_t>(keys.size()) * num_heads; left > 0;) {
    // One lap of the grid from CTA 0, or what is left of the chunks.
    const int32_t hi = static_cast<int32_t>(std::min<int64_t>(left, s.num_ctas));
    for (int32_t w = 0; 64 * w < hi; ++w) ctas.push_back({w, WordRange(-64 * w, hi - 64 * w)});
    left -= hi;
  }
  sink.Place(keys, ctas);
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
                 const ChunkSchedule& s, const std::vector<ChunkAssignment>& assignments) {
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
  for (const auto& a : assignments) {
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

void AssignmentList::Split(const ChunkSchedule& s) {
  size_t chunks = 0;
  for (const auto& split : s.splits) chunks += static_cast<size_t>(split.num_chunks);
  group_ = s.cta_group;
  assignments_.clear();
  assignments_.reserve(chunks * static_cast<size_t>(num_heads_));
}

void AssignmentList::Place(std::span<const ChunkKey> run, std::span<const CtaWord> ctas) {
  RunChunks chunk(run, num_heads_);
  for (const CtaWord& w : ctas) {
    for (uint64_t bits = w.ctas; bits != 0; bits &= bits - 1) {
      const int32_t first = (64 * w.word + std::countr_zero(bits)) * group_;
      for (int32_t cta = first; cta < first + group_; ++cta, chunk.Next()) {
        assignments_.push_back({chunk.key().block_row, chunk.head(), chunk.key().chunk, cta});
      }
    }
  }
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
                      int num_ctas, ChunkSchedule* out, PlacementSink& sink) {
  FI_CHECK_GE(num_ctas, 1);
  out->num_ctas = num_ctas;

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
  const std::span<const ChunkKey> keys = SortedKeys(rows, out->splits);

  // CTA groups (header comment).
  const int g = std::gcd(num_ctas, num_heads);
  out->cta_group = g;
  sink.Split(*out);

  // Lines 6-13: longest-processing-time-first, each chunk onto the CTA
  // with the least accumulated cost (lowest index on ties). Each maximal
  // run of equal cost is placed at once, a group of g chunks per group of
  // g CTAs.
  ScheduleScratch& scratch = t_scratch;
  LeastLoadedCtas& ctas = scratch.ctas;
  std::vector<CtaWord>& run_ctas = scratch.run_ctas;
  ctas.Reset(num_ctas / g);
  for (size_t a = 0, b; a < keys.size(); a = b) {
    for (b = a + 1; b < keys.size() && keys[b].cost == keys[a].cost;) ++b;
    run_ctas.clear();
    ctas.Place(keys[a].cost, (b - a) * static_cast<size_t>(num_heads / g), run_ctas);
    sink.Place(keys.subspan(a, b - a), run_ctas);
  }
}

void ScheduleNaive(const std::vector<BlockRowShape>& rows, int num_heads, ChunkSchedule* out,
                   PlacementSink& sink) {
  out->num_ctas = static_cast<int>(rows.size()) * num_heads;
  out->cta_group = 1;
  out->lkv_chunk = 0;
  SplitRows(rows, num_heads, [](int64_t kv) { return kv; }, out);
  sink.Split(*out);
  PlaceRoundRobin(rows, num_heads, *out, sink);
}

void ScheduleFixedSplit(const std::vector<BlockRowShape>& rows, int num_heads, int tile_kv,
                        int num_ctas, int num_splits, ChunkSchedule* out,
                        PlacementSink& sink) {
  FI_CHECK_GE(num_ctas, 1);
  FI_CHECK_GE(num_splits, 1);
  out->num_ctas = num_ctas;
  out->cta_group = 1;
  out->lkv_chunk = 0;
  const int64_t tkv = std::max(1, tile_kv);
  SplitRows(
      rows, num_heads,
      [&](int64_t kv) { return RoundUpToTile((kv + num_splits - 1) / num_splits, tkv); },
      out);
  sink.Split(*out);
  PlaceRoundRobin(rows, num_heads, *out, sink);
}

Plan MakeBalancedPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                      int64_t max_partial_rows) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  AssignmentList list(NumUnitHeads(p));
  ScheduleBalanced(rows, NumUnitHeads(p), cfg.tile_kv, num_ctas, &s, list);
  FI_CHECK_LE(s.num_partial_rows, max_partial_rows);
  return Materialize(p, rows, s, list.assignments());
}

Plan MakeNaivePlan(const AttentionParams& p, const KernelConfig&) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  AssignmentList list(NumUnitHeads(p));
  ScheduleNaive(rows, NumUnitHeads(p), &s, list);
  return Materialize(p, rows, s, list.assignments());
}

Plan MakeFixedSplitPlan(const AttentionParams& p, const KernelConfig& cfg, int num_ctas,
                        int num_splits, int64_t max_partial_rows) {
  const auto rows = BlockRowsFromBsr(p);
  ChunkSchedule s;
  AssignmentList list(NumUnitHeads(p));
  ScheduleFixedSplit(rows, NumUnitHeads(p), cfg.tile_kv, num_ctas, num_splits, &s, list);
  FI_CHECK_LE(s.num_partial_rows, max_partial_rows);
  return Materialize(p, rows, s, list.assignments());
}

}  // namespace flashinfer

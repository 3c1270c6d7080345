#include "serving/backends.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <span>

#include "core/tile_heuristics.h"
#include "runtime/scheduler.h"
#include "util/check.h"

namespace flashinfer::serving {

BackendConfig FlashInferBackend() {
  BackendConfig b;
  b.name = "FlashInfer v0.2";
  return b;
}

BackendConfig TritonBackend() {
  BackendConfig b;
  b.name = "Triton v3.0";
  // SGLang's Triton decode kernels use a static split-K heuristic: better
  // than no splitting on long sequences, but not sequence-length aware
  // (Appendix G.3 shows it between the two FlashInfer scheduler modes).
  b.scheduler = SchedulerKind::kFixedSplit;
  b.kernel_time_scale = 1.30;
  b.host_us_per_step = 220.0;
  b.fused_rope = false;
  b.composable = false;
  return b;
}

BackendConfig FlashAttentionBackend() {
  BackendConfig b;
  b.name = "FlashAttention";
  b.scheduler = SchedulerKind::kNaive;
  b.kernel_time_scale = 1.0;
  b.fused_rope = false;
  b.head_fusion = false;
  b.composable = false;
  return b;
}

BackendConfig VllmDefaultBackend() {
  BackendConfig b;
  b.name = "vLLM default";
  b.scheduler = SchedulerKind::kNaive;
  b.kernel_time_scale = 1.05;
  b.host_us_per_req = 14.0;  // Python-side array bookkeeping (Appendix G.4).
  b.host_us_per_step = 250.0;
  b.composable = false;
  return b;
}

namespace {

/// A block row's chunk times, indexed by "is the row's last chunk": every
/// chunk before the last is full (chunk_len tokens), the last holds the
/// rest. An unsplit row's one chunk is its last.
struct RowPrice {
  double us[2];
  int32_t last_chunk;
};
/// The same row's chunk costs, for the full report's byte/flop totals.
struct RowCost {
  gpusim::WorkCost wc[2];
};

/// Per-call buffers of the pricer, reused across calls. Thread-local: the
/// pricing entry points are free functions with no owner to hold buffers,
/// so engines stepped on different threads each reuse their own, lock-free.
struct PricingScratch {
  std::vector<BlockRowShape> rows;
  ChunkSchedule schedule;
  std::vector<RowPrice> row_prices;
  std::vector<RowCost> row_costs;     // Full report only.
  std::vector<gpusim::CtaCost> ctas;  // Full report only: per CTA group.
  std::vector<double> cta_us;         // Time only: per-CTA-group times.
  std::vector<double> merge_times;
  std::vector<int64_t> combined_qo, combined_kv;  // Composable launches.
  AttnSimInput verify_level0;                     // Verify launches.
};
thread_local PricingScratch t_scratch;

/// Prices a schedule as the scheduler makes it, without executing any math.
/// Once the rows are split, each row's two chunk shapes convert to roofline
/// costs; each placed chunk then charges its cost to its CTA, so each CTA
/// sums its queue in queue order. Report() list-schedules the CTA times and
/// prices the contraction kernel's merge tasks from the split counts alone.
/// With kReport the report carries every CTA's time and the byte/flop
/// totals; without, only time_us and num_ctas, computed identically, and a
/// run whose chunks all take the same time looks that time up once.
///
/// Charges go to CTA groups (ChunkSchedule::cta_group), one time or CtaCost
/// per group. Algorithm 1 costs a chunk at its rows plus KV tokens, so
/// chunks of one block row that cost the same read the same tokens, and
/// the same rows and partial flag: a group's g chunks take bit-identical
/// times and WorkCosts, so each member CTA's sum is the group's.
template <bool kReport>
class SchedulePricer final : public PlacementSink {
 public:
  SchedulePricer(const gpusim::DeviceSpec& dev, const KernelConfig& cfg, int head_dim,
                 DType kv_dtype, double kv_l2_fraction, const std::vector<BlockRowShape>& rows,
                 int num_heads)
      : dev_(dev), cfg_(cfg), head_dim_(head_dim), kvb_(DTypeBytes(kv_dtype)),
        kv_l2_fraction_(kv_l2_fraction), rows_(rows), num_heads_(num_heads) {}

  void Split(const ChunkSchedule& s) override {
    eff_ = EfficiencyModel(dev_, cfg_, head_dim_, kvb_);
    shape_ = ResidencyModel(dev_, OccupancyModel(dev_, cfg_, head_dim_, kvb_), s.num_ctas);
    eff_.mem *= shape_.mem_scale;

    // Each row's two chunk shapes convert once; a shape equal to the one
    // converted before it (every full chunk of a balanced schedule, rows of
    // equal length) reuses that conversion.
    struct Converted {
      int rows = -1;
      int64_t tokens = -1;
      bool partial = false;
      gpusim::WorkCost wc;
      double us = 0.0;
    };
    auto convert = [&](Converted& c, int rows_in_tile, int64_t tokens, bool partial) {
      if (rows_in_tile == c.rows && tokens == c.tokens && partial == c.partial) return;
      c.rows = rows_in_tile;
      c.tokens = tokens;
      c.partial = partial;
      c.wc = AttentionWorkItemCost(rows_in_tile, tokens, head_dim_, kvb_, false, partial);
      if (kv_l2_fraction_ > 0.0) {
        const double kv_bytes = static_cast<double>(tokens) * 2.0 * head_dim_ * kvb_;
        const double to_l2 = kv_bytes * kv_l2_fraction_;
        c.wc.hbm_bytes -= to_l2;
        c.wc.l2_bytes += to_l2;
      }
      c.us = gpusim::WorkItemTimeUs(dev_, eff_, c.wc, kvb_, shape_.slots);
    };
    prices_.resize(rows_.size());
    if constexpr (kReport) costs_.resize(rows_.size());
    Converted full, last;
    for (size_t i = 0; i < rows_.size(); ++i) {
      const auto& split = s.splits[i];
      const int32_t k = split.num_chunks - 1;
      const bool partial = k > 0;
      convert(last, rows_[i].rows, split.ChunkEnd(k, rows_[i].kv_len) - split.ChunkBegin(k),
              partial);
      if (partial) convert(full, rows_[i].rows, split.chunk_len, true);
      const Converted& first = partial ? full : last;
      prices_[i] = {{first.us, last.us}, k};
      if constexpr (kReport) costs_[i] = {{first.wc, last.wc}};
    }
    group_ = s.cta_group;
    const auto groups = static_cast<size_t>(s.num_ctas / group_);
    if constexpr (kReport) {
      ctas_.assign(groups, gpusim::CtaCost{});
    } else {
      times_.assign(groups, 0.0);
    }
  }

  void Place(std::span<const ChunkKey> run, std::span<const CtaWord> ctas) override {
    if constexpr (!kReport) {
      const double us = ChunkUs(run[0]);
      if (std::all_of(run.begin() + 1, run.end(), [&](const ChunkKey& k) {
            return std::bit_cast<uint64_t>(ChunkUs(k)) == std::bit_cast<uint64_t>(us);
          })) {
        for (const CtaWord& w : ctas) {
          double* times = times_.data() + 64 * static_cast<size_t>(w.word);
          for (uint64_t bits = w.ctas; bits != 0; bits &= bits - 1) {
            times[std::countr_zero(bits)] += us;
          }
        }
        return;
      }
    }
    RunChunks chunk(run, num_heads_);
    for (const CtaWord& w : ctas) {
      const size_t base = 64 * static_cast<size_t>(w.word);
      for (uint64_t bits = w.ctas; bits != 0; bits &= bits - 1) {
        const size_t group = base + static_cast<size_t>(std::countr_zero(bits));
        if constexpr (kReport) {
          const auto row = static_cast<size_t>(chunk.key().block_row);
          const int last = chunk.key().chunk == prices_[row].last_chunk;
          ctas_[group].Add(prices_[row].us[last], costs_[row].wc[last]);
        } else {
          times_[group] += ChunkUs(chunk.key());
        }
        for (int i = 0; i < group_; ++i) chunk.Next();
      }
    }
  }

  /// The launch once every chunk of `s` is placed.
  gpusim::SimReport Report(const ChunkSchedule& s) {
    gpusim::SimReport report;
    report.num_ctas = s.num_ctas;
    if constexpr (kReport) {
      // Every CTA in grid order, each its group's.
      report.cta_time_us.reserve(static_cast<size_t>(s.num_ctas));
      for (int cta = 0; cta < s.num_ctas; ++cta) {
        const gpusim::CtaCost& cost = ctas_[static_cast<size_t>(cta / group_)];
        report.cta_time_us.push_back(cost.time_us);
        report.total_hbm_bytes += cost.total.hbm_bytes;
        report.total_l2_bytes += cost.total.l2_bytes;
        report.total_tensor_flops += cost.total.tensor_flops;
        report.total_cuda_flops += cost.total.cuda_flops;
      }
    }
    // Groups come only from the balanced grid, one CTA per SM, which fits
    // its slots: its makespan is the largest CTA time, the largest group's.
    FI_CHECK(group_ == 1 || s.num_ctas <= shape_.slots);
    report.time_us =
        gpusim::SimExecutor::Makespan(kReport ? report.cta_time_us : times_, shape_.slots) +
        dev_.kernel_launch_us;

    // Contraction kernel: one merge task per fused row of every split unit,
    // folding as many partial states as the unit has chunks, strided over SMs.
    int64_t num_tasks = 0;
    for (size_t br = 0; br < rows_.size(); ++br) {
      if (s.splits[br].num_chunks > 1) num_tasks += int64_t{num_heads_} * rows_[br].rows;
    }
    if (num_tasks > 0) {
      const int64_t merge_ctas = std::min<int64_t>(num_tasks, dev_.num_sms);
      auto& merge_times = t_scratch.merge_times;
      merge_times.assign(static_cast<size_t>(merge_ctas), 0.0);
      size_t cta = 0;  // Task t runs on CTA t % merge_ctas.
      int count = 0;     // The chunk count `merge` and `merge_us` were priced for.
      gpusim::WorkCost merge;
      double merge_us = 0.0;
      for (size_t br = 0; br < rows_.size(); ++br) {
        if (s.splits[br].num_chunks == 1) continue;
        if (s.splits[br].num_chunks != count) {
          count = s.splits[br].num_chunks;
          merge.hbm_bytes = static_cast<double>(count) * (head_dim_ + 1) * 4.0 +
                            static_cast<double>(head_dim_) * 2.0;
          merge.cuda_flops = static_cast<double>(count) * (2.0 * head_dim_ + 8.0);
          merge_us = gpusim::WorkItemTimeUs(dev_, eff_, merge, kvb_, dev_.num_sms,
                                            gpusim::kMergeRowOverheadUs);
        }
        const int64_t tasks = int64_t{num_heads_} * rows_[br].rows;
        // The row's tasks take the next CTAs in turn, a lap of the grid at a
        // time, so each CTA still adds its tasks in task order.
        for (int64_t left = tasks; left > 0;) {
          const size_t end = std::min(merge_times.size(), cta + static_cast<size_t>(left));
          for (size_t c = cta; c < end; ++c) merge_times[c] += merge_us;
          left -= static_cast<int64_t>(end - cta);
          cta = end == merge_times.size() ? 0 : end;
        }
        if constexpr (kReport) {
          for (int64_t k = tasks; k > 0; --k) {
            report.total_hbm_bytes += merge.hbm_bytes;
            report.total_cuda_flops += merge.cuda_flops;
          }
        }
      }
      report.time_us += gpusim::SimExecutor::Makespan(merge_times, dev_.num_sms) +
                        dev_.kernel_launch_us;
    }
    return report;
  }

 private:
  double ChunkUs(const ChunkKey& k) const noexcept {
    const RowPrice& row = prices_[static_cast<size_t>(k.block_row)];
    return row.us[k.chunk == row.last_chunk];
  }

  const gpusim::DeviceSpec& dev_;
  const KernelConfig& cfg_;
  const int head_dim_;
  const int kvb_;
  const double kv_l2_fraction_;
  const std::vector<BlockRowShape>& rows_;
  const int num_heads_;
  int group_ = 1;  // CTAs per charged group.
  gpusim::KernelEfficiency eff_;
  LaunchShape shape_;
  std::vector<RowPrice>& prices_ = t_scratch.row_prices;
  std::vector<RowCost>& costs_ = t_scratch.row_costs;
  std::vector<gpusim::CtaCost>& ctas_ = t_scratch.ctas;
  std::vector<double>& times_ = t_scratch.cta_us;
};

/// Schedules `rows` with the backend's policy and prices the schedule as it
/// is placed, composing the caller's cross-request L2 reuse fraction with
/// intra-batch tile reuse.
template <bool kReport>
gpusim::SimReport ScheduleAndPrice(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                                   const AttnSimInput& in, const KernelConfig& cfg,
                                   const std::vector<BlockRowShape>& rows) {
  const int num_heads = backend.head_fusion ? in.num_kv_heads : in.num_qo_heads;
  const int num_ctas = dev.num_sms;  // Persistent grid, k = 1.
  const double auto_l2 = KvReuseFraction(rows, num_heads, in.num_kv_heads);
  const double l2_fraction = 1.0 - (1.0 - in.kv_l2_fraction) * (1.0 - auto_l2);
  SchedulePricer<kReport> pricer(dev, cfg, in.head_dim, backend.kv_dtype, l2_fraction, rows,
                                 num_heads);
  ChunkSchedule& schedule = t_scratch.schedule;
  switch (backend.scheduler) {
    case SchedulerKind::kBalanced:
      ScheduleBalanced(rows, num_heads, cfg.tile_kv, num_ctas, &schedule, pricer);
      break;
    case SchedulerKind::kNaive:
      ScheduleNaive(rows, num_heads, &schedule, pricer);
      break;
    case SchedulerKind::kFixedSplit:
      ScheduleFixedSplit(rows, num_heads, cfg.tile_kv, num_ctas, kFixedSplits, &schedule,
                         pricer);
      break;
  }
  auto report = pricer.Report(schedule);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

/// The kernel a launch runs: the heuristic's config for `avg_fused` fused
/// query rows per request on the sparse-gather or dense KV path, at query
/// tile `tile_q` when positive, with the backend's head fusion and the
/// template `in` forces.
KernelConfig LaunchConfig(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                          const AttnSimInput& in, double avg_fused, bool sparse, int tile_q) {
  KernelConfig cfg = SelectKernelConfig(dev, avg_fused, in.head_dim,
                                        DTypeBytes(backend.kv_dtype), sparse);
  cfg.head_fusion = backend.head_fusion;
  if (tile_q > 0) cfg.tile_q = tile_q;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;
  return cfg;
}

/// Prices one single-format attention launch over (qo_lens, kv_lens): the
/// paged batch's block rows come straight from the lengths. Reads only the
/// geometry of `in` (heads, head dim, causal, L2 fraction, overrides).
template <bool kReport>
gpusim::SimReport PriceSingleFormat(const gpusim::DeviceSpec& dev,
                                    const BackendConfig& backend, const AttnSimInput& in,
                                    const std::vector<int64_t>& qo_lens,
                                    const std::vector<int64_t>& kv_lens,
                                    int tile_q_override = 0) {
  FI_CHECK_EQ(qo_lens.size(), kv_lens.size());
  FI_CHECK(!qo_lens.empty());
  const int g = in.num_qo_heads / in.num_kv_heads;
  const int fuse = backend.head_fusion ? g : 1;
  const int64_t total_q = std::accumulate(qo_lens.begin(), qo_lens.end(), int64_t{0});
  const double avg_fused =
      static_cast<double>(total_q) / static_cast<double>(qo_lens.size()) * fuse;
  const KernelConfig cfg =
      LaunchConfig(dev, backend, in, avg_fused, /*sparse=*/!in.force_dense,
                   in.tile_q_override > 0 ? in.tile_q_override : tile_q_override);

  // Causal trimming on: planning skips the KV each tile's mask hides.
  BlockRowsFromLengths(qo_lens, kv_lens, fuse, cfg.tile_q, in.causal, &t_scratch.rows);
  return ScheduleAndPrice<kReport>(dev, backend, in, cfg, t_scratch.rows);
}

/// Fused-row boundary between the compute-bound ("large") and
/// bandwidth-bound ("small") tile classes: rows at or above it fill a
/// high-TileComputeFactor tile on their own; rows below it want the memory
/// parallelism of small tiles.
constexpr int64_t kPackedClassRows = 64;
/// Cross-class contention tax: the persistent packed grid co-schedules the
/// bandwidth-bound class with the compute-bound class, so the shorter class
/// mostly hides behind the longer — but they share L2, scheduler slots, and
/// the memory subsystem, so a fraction of the shorter class's time surfaces.
constexpr double kPackedContention = 0.35;

/// PackInfer-style packed-tile pricing (BackendConfig::packed_tiles).
///
/// The single-format path picks ONE query tile from the batch-average fused
/// length; on heterogeneous batches that average represents nobody, and the
/// whole launch pays the compromise. Packed mode instead:
///   1. splits requests into a compute-bound class (fused rows >=
///      kPackedClassRows) and a bandwidth-bound class (everything else);
///   2. prices each class through the real scheduler at its own tile — the
///      small class at the smallest high-occupancy tile covering its average
///      fused length (floored at 16: a degenerate 1-row tile forfeits the
///      MMA lanes entirely), the large class at its naturally selected big
///      tile;
///   3. combines the classes as one persistent launch that packs both tile
///      shapes into the same grid: they stress different rooflines, so the
///      shorter class hides behind the longer modulo kPackedContention, and
///      the launch overhead is paid once.
///
/// The cost model prices work at request granularity, so intra-tile row
/// sharing between requests is not modeled separately — its effect is
/// absorbed by the per-class tile geometry (a dense-MMA surrogate would
/// overcharge each shared tile by the full tile rows per member's KV).
///
/// Returns nullopt when the batch is homogeneous (either class empty): the
/// average heuristic already fits, and the caller keeps the baseline path.
template <bool kReport>
std::optional<gpusim::SimReport> TryPricePackedTiles(const gpusim::DeviceSpec& dev,
                                                     const BackendConfig& backend,
                                                     const AttnSimInput& in) {
  const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
  std::vector<int64_t> small_qo, small_kv, large_qo, large_kv;
  int64_t small_fused = 0;
  for (size_t i = 0; i < in.qo_lens.size(); ++i) {
    const int64_t qo = in.qo_lens[i];
    const int64_t fused = qo * g;
    if (fused >= kPackedClassRows) {
      large_qo.push_back(qo);
      large_kv.push_back(in.kv_lens[i]);
    } else {
      small_qo.push_back(qo);
      small_kv.push_back(in.kv_lens[i]);
      small_fused += fused;
    }
  }
  if (small_qo.empty() || large_qo.empty()) return std::nullopt;

  const double small_avg =
      static_cast<double>(small_fused) / static_cast<double>(small_qo.size());
  int small_tile = 16;
  while (small_tile < 64 && small_tile < small_avg) small_tile *= 2;

  const auto small_report =
      PriceSingleFormat<kReport>(dev, backend, in, small_qo, small_kv, small_tile);
  const auto large_report = PriceSingleFormat<kReport>(dev, backend, in, large_qo, large_kv);

  gpusim::SimReport out;
  out.num_ctas = std::max(small_report.num_ctas, large_report.num_ctas);
  if constexpr (kReport) {
    out.cta_time_us = small_report.cta_time_us;
    out.cta_time_us.insert(out.cta_time_us.end(), large_report.cta_time_us.begin(),
                           large_report.cta_time_us.end());
    out.total_hbm_bytes = small_report.total_hbm_bytes + large_report.total_hbm_bytes;
    out.total_l2_bytes = small_report.total_l2_bytes + large_report.total_l2_bytes;
    out.total_tensor_flops =
        small_report.total_tensor_flops + large_report.total_tensor_flops;
    out.total_cuda_flops = small_report.total_cuda_flops + large_report.total_cuda_flops;
  }
  const double hi = std::max(small_report.time_us, large_report.time_us);
  const double lo = std::min(small_report.time_us, large_report.time_us);
  // One persistent launch: the second class's launch overhead is not paid
  // (each sub-report charged dev.kernel_launch_us, scaled by the backend).
  out.time_us = std::max(
      hi, hi + lo * kPackedContention - dev.kernel_launch_us * backend.kernel_time_scale);
  return out;
}

/// The contraction kernel merging two levels' partial states per fused row
/// (composable shared-prefix launches, verify launches): a bandwidth-bound
/// pass over `fused_rows` rows, added after the attention launch.
template <bool kReport>
void AddLevelMerge(const gpusim::DeviceSpec& dev, int64_t fused_rows, int head_dim,
                   gpusim::SimReport& report) {
  const double rows = static_cast<double>(fused_rows);
  gpusim::WorkCost wc;
  wc.hbm_bytes = rows * (head_dim + 1) * 4.0 * 2.0 + rows * head_dim * 2.0;
  wc.cuda_flops = rows * (2.0 * head_dim + 8.0);
  gpusim::KernelEfficiency eff;  // Bandwidth-bound merge kernel.
  report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
  if constexpr (kReport) {
    report.total_hbm_bytes += wc.hbm_bytes;
    report.total_cuda_flops += wc.cuda_flops;
  }
}

/// SimulateBatchAttention with kReport, BatchAttentionTimeUs without.
template <bool kReport>
gpusim::SimReport SimulateBatch(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                                const AttnSimInput& in) {
  if (!backend.composable || in.groups.empty()) {
    // Packed tiles engage only on heterogeneous batches with no bench
    // overrides pinning the geometry; otherwise the baseline path runs
    // bit-identically. Like a real plan() heuristic, the packed layout is
    // priced against the single-tile layout and the cheaper one runs — on
    // mixes where the compromise tile happens to fit, packed mode ties the
    // baseline instead of regressing it.
    auto report = PriceSingleFormat<kReport>(dev, backend, in, in.qo_lens, in.kv_lens);
    if (backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0 &&
        in.qo_lens.size() > 1) {
      if (auto packed = TryPricePackedTiles<kReport>(dev, backend, in);
          packed.has_value() && packed->time_us < report.time_us) {
        return *packed;
      }
    }
    return report;
  }

  // --- Composable path (Sec. 3.1.2): both levels run as ONE persistent
  // launch — level 0 processes each shared prefix once per group at
  // Br = group rows, level 1 processes the unique suffixes at small Br, and
  // the balanced scheduler interleaves all their chunks over the same grid
  // (the paper merges attention and contraction stages into one persistent
  // kernel). We therefore price a single combined batch: one "request" per
  // group (prefix KV, concatenated member rows) plus one per real request
  // (suffix KV only).
  const int g = in.num_qo_heads / in.num_kv_heads;
  auto& combined_qo = t_scratch.combined_qo;
  auto& combined_kv = t_scratch.combined_kv;
  combined_qo.clear();
  combined_kv.clear();
  int max_group_rows = 1;
  for (const auto& group : in.groups) {
    int64_t rows = 0;
    for (int m : group.members) rows += in.qo_lens[static_cast<size_t>(m)];
    combined_qo.push_back(rows);
    combined_kv.push_back(group.prefix_len);
    max_group_rows =
        std::max<int>(max_group_rows, static_cast<int>(rows) * (backend.head_fusion ? g : 1));
  }
  const size_t num_groups = combined_kv.size();
  combined_qo.insert(combined_qo.end(), in.qo_lens.begin(), in.qo_lens.end());
  combined_kv.insert(combined_kv.end(), in.kv_lens.begin(), in.kv_lens.end());
  for (const auto& group : in.groups) {
    for (int m : group.members) {
      combined_kv[num_groups + static_cast<size_t>(m)] =
          in.kv_lens[static_cast<size_t>(m)] - group.prefix_len;
    }
  }

  // The prefix level's larger Br bounds the tile (and hence occupancy).
  auto report = PriceSingleFormat<kReport>(dev, backend, in, combined_qo, combined_kv,
                                           std::min(max_group_rows, 128));

  // --- Extra contraction: merge level-0 and level-1 states per fused row. --
  int64_t fused_rows = 0;
  for (const auto& group : in.groups) {
    for (int m : group.members) fused_rows += in.qo_lens[static_cast<size_t>(m)] * g;
  }
  AddLevelMerge<kReport>(dev, fused_rows * in.num_kv_heads, in.head_dim, report);
  return report;
}

/// SimulateVerifyAttention with kReport, VerifyAttentionTimeUs without.
template <bool kReport>
gpusim::SimReport SimulateVerify(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                                 const AttnSimInput& in, const MaskRows& mask,
                                 const std::vector<int64_t>& context_lens) {
  const size_t batch = context_lens.size();

  // --- Level 0: every mask token attends its branch's whole committed
  // context (paged, dense blocks, no causal trimming).
  AttnSimInput& level0 = t_scratch.verify_level0;
  level0 = in;
  level0.qo_lens.assign(batch, mask.qo_len);
  level0.kv_lens.assign(context_lens.begin(), context_lens.end());
  level0.groups.clear();
  level0.causal = false;
  auto report = SimulateBatch<kReport>(dev, backend, level0);

  // --- Level 1: the mask's block rows once per branch (request = branch),
  // at the tile they were lowered at.
  auto& rows = t_scratch.rows;
  rows.clear();
  for (size_t b = 0; b < batch; ++b) {
    for (BlockRowShape row : mask.rows) {
      row.request = static_cast<int32_t>(b);
      rows.push_back(row);
    }
  }
  const KernelConfig cfg =
      LaunchConfig(dev, backend, in, mask.tile_q, /*sparse=*/true, mask.tile_q);
  report.Append(ScheduleAndPrice<kReport>(dev, backend, in, cfg, rows));

  const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
  AddLevelMerge<kReport>(dev, static_cast<int64_t>(batch) * mask.qo_len * g * in.num_kv_heads,
                         in.head_dim, report);
  return report;
}

}  // namespace

gpusim::SimReport SimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                         const BackendConfig& backend,
                                         const AttnSimInput& in) {
  return SimulateBatch<true>(dev, backend, in);
}

double BatchAttentionTimeUs(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                            const AttnSimInput& in) {
  return SimulateBatch<false>(dev, backend, in).time_us;
}

MaskRows MaskRowsFromBsr(const sparse::BsrMatrix& bsr, int64_t qo_len) {
  AttentionParams p;  // One request; causal trimming off.
  p.bsr = &bsr;
  p.qo_indptr = {0, qo_len};
  p.kv_len = {qo_len};
  return {qo_len, bsr.br, BlockRowsFromBsr(p)};
}

gpusim::SimReport SimulateVerifyAttention(const gpusim::DeviceSpec& dev,
                                          const BackendConfig& backend,
                                          const AttnSimInput& in, const MaskRows& mask,
                                          const std::vector<int64_t>& context_lens) {
  return SimulateVerify<true>(dev, backend, in, mask, context_lens);
}

double VerifyAttentionTimeUs(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                             const AttnSimInput& in, const MaskRows& mask,
                             const std::vector<int64_t>& context_lens) {
  return SimulateVerify<false>(dev, backend, in, mask, context_lens).time_us;
}

}  // namespace flashinfer::serving

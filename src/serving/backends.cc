#include "serving/backends.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/tile_heuristics.h"
#include "kvcache/ragged.h"
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

/// Per-call buffers of the pricer, reused across calls. Thread-local:
/// cluster replicas price concurrently (ClusterConfig::step_threads).
struct PricingScratch {
  std::vector<BlockRowShape> rows;
  ChunkSchedule schedule;
  std::vector<gpusim::CtaCost> ctas;
  std::vector<double> merge_times;
};
thread_local PricingScratch t_scratch;

/// Prices a schedule without executing any math: charges every chunk's
/// roofline cost to its CTA in assignment order (so each CTA sums its queue
/// in queue order), list-schedules the CTA times, then prices the
/// contraction kernel's merge tasks from the split counts alone.
gpusim::SimReport PriceSchedule(const gpusim::DeviceSpec& dev, const KernelConfig& cfg,
                                int head_dim, DType kv_dtype, double kv_l2_fraction,
                                const std::vector<BlockRowShape>& rows, int num_heads,
                                const ChunkSchedule& s) {
  const int kvb = DTypeBytes(kv_dtype);
  auto eff = EfficiencyModel(dev, cfg, head_dim, kvb);
  const auto occ = OccupancyModel(dev, cfg, head_dim, kvb);
  const auto shape = ResidencyModel(dev, occ, s.num_ctas);
  eff.mem *= shape.mem_scale;

  auto& ctas = t_scratch.ctas;
  ctas.assign(static_cast<size_t>(s.num_ctas), gpusim::CtaCost{});
  // Runs of assignments share one shape (every head of a tile, every full
  // chunk), so each run converts its cost once.
  int last_rows = -1;
  int64_t last_tokens = -1;
  bool last_partial = false;
  gpusim::WorkCost wc;
  double item_us = 0.0;
  for (const auto& a : s.assignments) {
    const auto& row = rows[static_cast<size_t>(a.block_row)];
    const auto& split = s.splits[static_cast<size_t>(a.block_row)];
    const int64_t tokens = split.ChunkEnd(a.chunk, row.kv_len) - split.ChunkBegin(a.chunk);
    const bool partial = split.num_chunks > 1;
    if (row.rows != last_rows || tokens != last_tokens || partial != last_partial) {
      last_rows = row.rows;
      last_tokens = tokens;
      last_partial = partial;
      wc = AttentionWorkItemCost(row.rows, tokens, head_dim, kvb, false, partial);
      if (kv_l2_fraction > 0.0) {
        const double kv_bytes = static_cast<double>(tokens) * 2.0 * head_dim * kvb;
        const double to_l2 = kv_bytes * kv_l2_fraction;
        wc.hbm_bytes -= to_l2;
        wc.l2_bytes += to_l2;
      }
      item_us = gpusim::WorkItemTimeUs(dev, eff, wc, kvb, shape.slots);
    }
    ctas[static_cast<size_t>(a.cta)].Add(item_us, wc);
  }

  gpusim::SimReport report;
  report.num_ctas = s.num_ctas;
  report.cta_time_us.reserve(ctas.size());
  for (const auto& cost : ctas) {
    report.cta_time_us.push_back(cost.time_us);
    report.total_hbm_bytes += cost.total.hbm_bytes;
    report.total_l2_bytes += cost.total.l2_bytes;
    report.total_tensor_flops += cost.total.tensor_flops;
    report.total_cuda_flops += cost.total.cuda_flops;
  }
  report.time_us =
      gpusim::SimExecutor::Makespan(report.cta_time_us, shape.slots) + dev.kernel_launch_us;

  // Contraction kernel: one merge task per fused row of every split unit,
  // folding as many partial states as the unit has chunks, strided over SMs.
  int64_t num_tasks = 0;
  for (size_t br = 0; br < rows.size(); ++br) {
    if (s.splits[br].num_chunks > 1) num_tasks += int64_t{num_heads} * rows[br].rows;
  }
  if (num_tasks > 0) {
    const int64_t merge_ctas = std::min<int64_t>(num_tasks, dev.num_sms);
    auto& merge_times = t_scratch.merge_times;
    merge_times.assign(static_cast<size_t>(merge_ctas), 0.0);
    int64_t t = 0;
    for (size_t br = 0; br < rows.size(); ++br) {
      const int count = s.splits[br].num_chunks;
      if (count == 1) continue;
      gpusim::WorkCost merge;
      merge.hbm_bytes = static_cast<double>(count) * (head_dim + 1) * 4.0 +
                        static_cast<double>(head_dim) * 2.0;
      merge.cuda_flops = static_cast<double>(count) * (2.0 * head_dim + 8.0);
      const double merge_us = gpusim::WorkItemTimeUs(dev, eff, merge, kvb, dev.num_sms,
                                                     gpusim::kMergeRowOverheadUs);
      for (int64_t end = t + int64_t{num_heads} * rows[br].rows; t < end; ++t) {
        merge_times[static_cast<size_t>(t % merge_ctas)] += merge_us;
        report.total_hbm_bytes += merge.hbm_bytes;
        report.total_cuda_flops += merge.cuda_flops;
      }
    }
    report.time_us += gpusim::SimExecutor::Makespan(merge_times, dev.num_sms) +
                      dev.kernel_launch_us;
  }
  return report;
}

/// Schedules `rows` with the backend's policy and prices the schedule,
/// composing the caller's cross-request L2 reuse fraction with intra-batch
/// tile reuse.
gpusim::SimReport ScheduleAndPrice(const gpusim::DeviceSpec& dev, const BackendConfig& backend,
                                   const AttnSimInput& in, const KernelConfig& cfg,
                                   const std::vector<BlockRowShape>& rows) {
  const int num_heads = backend.head_fusion ? in.num_kv_heads : in.num_qo_heads;
  const int num_ctas = dev.num_sms;  // Persistent grid, k = 1.
  ChunkSchedule& schedule = t_scratch.schedule;
  switch (backend.scheduler) {
    case SchedulerKind::kBalanced:
      ScheduleBalanced(rows, num_heads, cfg.tile_kv, num_ctas, 1.0, 1.0, &schedule);
      break;
    case SchedulerKind::kNaive:
      ScheduleNaive(rows, num_heads, &schedule);
      break;
    case SchedulerKind::kFixedSplit:
      ScheduleFixedSplit(rows, num_heads, cfg.tile_kv, num_ctas, 4, &schedule);
      break;
  }
  const double auto_l2 = KvReuseFraction(rows, num_heads, in.num_kv_heads);
  const double l2_fraction = 1.0 - (1.0 - in.kv_l2_fraction) * (1.0 - auto_l2);
  auto report = PriceSchedule(dev, cfg, in.head_dim, backend.kv_dtype, l2_fraction, rows,
                              num_heads, schedule);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

/// Prices one single-format attention launch over (qo_lens, kv_lens): the
/// paged batch's block rows come straight from the lengths. Reads only the
/// geometry of `in` (heads, head dim, causal, L2 fraction, overrides).
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

  KernelConfig cfg = SelectKernelConfig(dev, avg_fused, in.head_dim,
                                        DTypeBytes(backend.kv_dtype),
                                        /*sparse=*/!in.force_dense);
  cfg.head_fusion = backend.head_fusion;
  if (tile_q_override > 0) cfg.tile_q = tile_q_override;
  if (in.tile_q_override > 0) cfg.tile_q = in.tile_q_override;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  // Causal trimming on: planning skips the KV each tile's mask hides.
  BlockRowsFromLengths(qo_lens, kv_lens, fuse, cfg.tile_q, in.causal, &t_scratch.rows);
  return ScheduleAndPrice(dev, backend, in, cfg, t_scratch.rows);
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
      PriceSingleFormat(dev, backend, in, small_qo, small_kv, small_tile);
  const auto large_report = PriceSingleFormat(dev, backend, in, large_qo, large_kv);

  gpusim::SimReport out;
  out.num_ctas = std::max(small_report.num_ctas, large_report.num_ctas);
  out.cta_time_us = small_report.cta_time_us;
  out.cta_time_us.insert(out.cta_time_us.end(), large_report.cta_time_us.begin(),
                         large_report.cta_time_us.end());
  out.total_hbm_bytes = small_report.total_hbm_bytes + large_report.total_hbm_bytes;
  out.total_l2_bytes = small_report.total_l2_bytes + large_report.total_l2_bytes;
  out.total_tensor_flops =
      small_report.total_tensor_flops + large_report.total_tensor_flops;
  out.total_cuda_flops = small_report.total_cuda_flops + large_report.total_cuda_flops;
  const double hi = std::max(small_report.time_us, large_report.time_us);
  const double lo = std::min(small_report.time_us, large_report.time_us);
  // One persistent launch: the second class's launch overhead is not paid
  // (each sub-report charged dev.kernel_launch_us, scaled by the backend).
  out.time_us = std::max(
      hi, hi + lo * kPackedContention - dev.kernel_launch_us * backend.kernel_time_scale);
  return out;
}

}  // namespace

gpusim::SimReport SimulateMaskedAttention(const gpusim::DeviceSpec& dev,
                                          const BackendConfig& backend,
                                          const AttnSimInput& in,
                                          const sparse::BsrMatrix& bsr,
                                          const std::vector<int64_t>& qo_lens,
                                          const std::vector<int64_t>& kv_lens) {
  FI_CHECK_EQ(qo_lens.size(), kv_lens.size());
  // The mask dictates the tile geometry: Br must match how it was lowered.
  KernelConfig cfg = SelectKernelConfig(dev, /*avg_fused_rows=*/bsr.br, in.head_dim,
                                        DTypeBytes(backend.kv_dtype), /*sparse=*/true);
  cfg.head_fusion = backend.head_fusion;
  cfg.tile_q = bsr.br;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  AttentionParams p;
  p.bsr = &bsr;
  p.qo_indptr = BuildIndptr(qo_lens);
  p.kv_len = kv_lens;
  p.num_qo_heads = in.num_qo_heads;
  p.num_kv_heads = in.num_kv_heads;
  p.head_fusion = backend.head_fusion;
  p.variant.causal = false;  // The mask IS the structure; nothing to trim.

  return ScheduleAndPrice(dev, backend, in, cfg, BlockRowsFromBsr(p));
}

gpusim::SimReport SimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                         const BackendConfig& backend,
                                         const AttnSimInput& in) {
  if (!backend.composable || in.groups.empty()) {
    // Packed tiles engage only on heterogeneous batches with no bench
    // overrides pinning the geometry; otherwise the baseline path runs
    // bit-identically. Like a real plan() heuristic, the packed layout is
    // priced against the single-tile layout and the cheaper one runs — on
    // mixes where the compromise tile happens to fit, packed mode ties the
    // baseline instead of regressing it.
    auto report = PriceSingleFormat(dev, backend, in, in.qo_lens, in.kv_lens);
    if (backend.packed_tiles && in.groups.empty() && in.tile_q_override == 0 &&
        in.qo_lens.size() > 1) {
      if (auto packed = TryPricePackedTiles(dev, backend, in);
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
  std::vector<int64_t> combined_qo, combined_kv;
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
  auto report = PriceSingleFormat(dev, backend, in, combined_qo, combined_kv,
                                  std::min(max_group_rows, 128));

  // --- Extra contraction: merge level-0 and level-1 states per fused row. --
  {
    int64_t fused_rows = 0;
    for (const auto& group : in.groups) {
      for (int m : group.members) {
        fused_rows += in.qo_lens[static_cast<size_t>(m)] * g;
      }
    }
    fused_rows *= in.num_kv_heads;
    gpusim::WorkCost wc;
    wc.hbm_bytes = static_cast<double>(fused_rows) * (in.head_dim + 1) * 4.0 * 2.0 +
                   static_cast<double>(fused_rows) * in.head_dim * 2.0;
    wc.cuda_flops = static_cast<double>(fused_rows) * (2.0 * in.head_dim + 8.0);
    gpusim::KernelEfficiency eff;  // Bandwidth-bound merge kernel.
    report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
    report.total_hbm_bytes += wc.hbm_bytes;
    report.total_cuda_flops += wc.cuda_flops;
  }
  return report;
}

}  // namespace flashinfer::serving

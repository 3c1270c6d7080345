// Shared fixtures: random attention problems over the paged cache, a
// serial (scheduler-free) kernel driver used to isolate kernel math, the
// plan-walking reference the serving attention pricer must match bit for bit,
// Algorithm 1 stated unit by unit and the list-scheduling bound its loads
// keep, the scanning prefix cache the indexed
// RadixTree must match, the registry-vs-ServingMetrics reconciliation, the
// log formula the histogram's bucket table encodes, and the pinned exporter
// outputs under tests/golden/.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/reference.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "kvcache/paged.h"
#include "kvcache/radix.h"
#include "kvcache/ragged.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "serving/metrics.h"
#include "serving/workload.h"
#include "sparse/bsr.h"
#include "util/rng.h"

namespace flashinfer::test {

struct ProblemSpec {
  std::vector<int64_t> qo_lens;
  std::vector<int64_t> kv_lens;  // kv_lens[i] >= qo_lens[i] (incremental prefill).
  int num_qo_heads = 4;
  int num_kv_heads = 2;
  int head_dim = 16;
  int page_size = 4;
  DType kv_dtype = DType::kF32;
  int tile_q = 16;
  bool head_fusion = true;
  uint64_t seed = 42;
};

struct Problem {
  ProblemSpec spec;
  std::unique_ptr<PagedKVCache> kv;
  std::vector<int> seq_ids;
  RaggedTensor q;
  RaggedTensor o;
  std::vector<float> lse;
  sparse::BsrMatrix bsr;
  std::vector<int64_t> qo_indptr;

  AttentionParams Params() {
    AttentionParams p;
    p.q = &q;
    p.o = &o;
    p.lse = &lse;
    p.kv = kv.get();
    p.bsr = &bsr;
    p.qo_indptr = qo_indptr;
    p.kv_len = spec.kv_lens;
    p.num_qo_heads = spec.num_qo_heads;
    p.num_kv_heads = spec.num_kv_heads;
    p.head_dim = spec.head_dim;
    p.head_fusion = spec.head_fusion;
    p.variant.sm_scale = 1.0f / std::sqrt(static_cast<float>(spec.head_dim));
    p.variant.num_qo_heads = spec.num_qo_heads;
    return p;
  }
};

inline Problem MakeProblem(ProblemSpec spec) {
  Problem prob;
  prob.spec = spec;
  Rng rng(spec.seed);
  const int num_reqs = static_cast<int>(spec.qo_lens.size());
  FI_CHECK_EQ(spec.qo_lens.size(), spec.kv_lens.size());

  int64_t total_pages = 8;
  for (int64_t len : spec.kv_lens) total_pages += (len + spec.page_size - 1) / spec.page_size;
  prob.kv = std::make_unique<PagedKVCache>(spec.kv_dtype, spec.num_kv_heads, spec.head_dim,
                                           spec.page_size, total_pages);

  const int hd = spec.num_kv_heads * spec.head_dim;
  std::vector<sparse::RequestKv> req_kv;
  for (int r = 0; r < num_reqs; ++r) {
    const int seq = prob.kv->CreateSequence();
    prob.seq_ids.push_back(seq);
    std::vector<float> k(static_cast<size_t>(spec.kv_lens[r]) * hd);
    std::vector<float> v(k.size());
    for (auto& x : k) x = static_cast<float>(rng.Normal(0.0, 1.0));
    for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
    prob.kv->AppendTokens(seq, k.data(), v.data(), spec.kv_lens[r]);
    req_kv.push_back(prob.kv->ExportKv(seq));
  }

  prob.qo_indptr = BuildIndptr(spec.qo_lens);
  prob.q = RaggedTensor::Zeros(prob.qo_indptr,
                               static_cast<int64_t>(spec.num_qo_heads) * spec.head_dim);
  for (auto& x : prob.q.data) x = static_cast<float>(rng.Normal(0.0, 1.0));
  prob.o = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  prob.lse.assign(static_cast<size_t>(prob.q.NumRows() * spec.num_qo_heads), 0.0f);

  const int g = spec.head_fusion ? spec.num_qo_heads / spec.num_kv_heads : 1;
  std::vector<int64_t> fused_lens(spec.qo_lens);
  for (auto& l : fused_lens) l *= g;
  prob.bsr =
      sparse::BuildBatchBsr(BuildIndptr(fused_lens), req_kv, spec.page_size, spec.tile_q);
  return prob;
}

/// Runs attention serially: every work unit executes in full (no KV split),
/// writing the final output directly.
inline void RunSerial(AttentionParams& p, const KernelConfig& cfg, WorkItemFn fn) {
  const auto units = EnumerateWorkUnits(p);
  PartialSink sink;
  for (const auto& u : units) {
    WorkItem item{u.block_row, u.request, u.kv_head, u.qo_head, 0, u.kv_len, -1};
    fn(p, cfg, item, sink, nullptr, nullptr);
  }
}

// --------------------------------------------------------------------------
// Reference attention pricing. The serving pricer derives block rows from
// the lengths and charges Algorithm 1's chunks as it assigns them; this is
// the materializing path it replaced: fake page tables, the batch BSR, the
// backend's Plan, then a walk over every CTA queue.

/// Sequential page tables covering `kv_lens` (structure only, no data).
inline std::vector<sparse::RequestKv> FakePages(const std::vector<int64_t>& kv_lens,
                                                int page_size) {
  std::vector<sparse::RequestKv> kv(kv_lens.size());
  int64_t next_page = 0;
  for (size_t r = 0; r < kv_lens.size(); ++r) {
    const int64_t len = kv_lens[r];
    const int64_t pages = (len + page_size - 1) / page_size;
    kv[r].pages.resize(static_cast<size_t>(pages));
    std::iota(kv[r].pages.begin(), kv[r].pages.end(), next_page);
    next_page += pages;
    kv[r].last_page_len = len == 0 ? 0 : static_cast<int>(len - (pages - 1) * page_size);
  }
  return kv;
}

/// IntraBatchKvReuseFraction by its definition: the largest tile read per
/// (request, kv head) misses to HBM, every other unit's read hits L2.
inline double MapKvReuseFraction(const AttentionParams& p) {
  std::map<std::pair<int32_t, int32_t>, int64_t> unique;
  double total = 0.0;
  for (const auto& u : EnumerateWorkUnits(p)) {
    auto& mx = unique[{u.request, u.kv_head}];
    mx = std::max(mx, u.kv_len);
    total += static_cast<double>(u.kv_len);
  }
  if (total <= 0.0) return 0.0;
  double unique_total = 0.0;
  for (const auto& [key, mx] : unique) unique_total += static_cast<double>(mx);
  return std::max(0.0, 1.0 - unique_total / total);
}

/// Prices a materialized plan: walks every CTA queue charging each item's
/// roofline cost, list-schedules the CTA times, then walks the merge tasks.
inline gpusim::SimReport PricePlan(const gpusim::DeviceSpec& dev, const AttentionParams& p,
                                   const KernelConfig& cfg, const Plan& plan, DType kv_dtype,
                                   double kv_l2_fraction) {
  const int kvb = DTypeBytes(kv_dtype);
  auto eff = EfficiencyModel(dev, cfg, p.head_dim, kvb);
  const auto occ = OccupancyModel(dev, cfg, p.head_dim, kvb);
  const auto shape = ResidencyModel(dev, occ, plan.NumCtas());
  eff.mem *= shape.mem_scale;

  gpusim::SimReport report;
  report.num_ctas = plan.NumCtas();
  for (const auto& queue : plan.cta_queues) {
    gpusim::CtaCost cost;
    for (const auto& item : queue) {
      const int rows = p.bsr->RowsInBlock(item.block_row);
      const int64_t kv_tokens = item.kv_end - item.kv_begin;
      auto wc =
          AttentionWorkItemCost(rows, kv_tokens, p.head_dim, kvb, false, item.dest >= 0);
      if (kv_l2_fraction > 0.0) {
        const double to_l2 =
            static_cast<double>(kv_tokens) * 2.0 * p.head_dim * kvb * kv_l2_fraction;
        wc.hbm_bytes -= to_l2;
        wc.l2_bytes += to_l2;
      }
      cost.Charge(dev, eff, wc, kvb, shape.slots);
    }
    report.cta_time_us.push_back(cost.time_us);
    report.total_hbm_bytes += cost.total.hbm_bytes;
    report.total_l2_bytes += cost.total.l2_bytes;
    report.total_tensor_flops += cost.total.tensor_flops;
    report.total_cuda_flops += cost.total.cuda_flops;
  }
  report.time_us =
      gpusim::SimExecutor::Makespan(report.cta_time_us, shape.slots) + dev.kernel_launch_us;

  if (!plan.rmap.Empty()) {
    const int num_tasks = static_cast<int>(plan.rmap.tasks.size());
    const int ctas = std::min(num_tasks, dev.num_sms);
    std::vector<double> merge_times(static_cast<size_t>(ctas), 0.0);
    for (int t = 0; t < num_tasks; ++t) {
      const auto& task = plan.rmap.tasks[static_cast<size_t>(t)];
      gpusim::WorkCost wc;
      wc.hbm_bytes = static_cast<double>(task.count) * (p.head_dim + 1) * 4.0 +
                     static_cast<double>(p.head_dim) * 2.0;
      wc.cuda_flops = static_cast<double>(task.count) * (2.0 * p.head_dim + 8.0);
      merge_times[static_cast<size_t>(t % ctas)] += gpusim::WorkItemTimeUs(
          dev, eff, wc, kvb, dev.num_sms, gpusim::kMergeRowOverheadUs);
      report.total_hbm_bytes += wc.hbm_bytes;
      report.total_cuda_flops += wc.cuda_flops;
    }
    report.time_us +=
        gpusim::SimExecutor::Makespan(merge_times, dev.num_sms) + dev.kernel_launch_us;
  }
  return report;
}

/// Materializes the backend's plan over `p` and prices it.
inline gpusim::SimReport ReferencePlanAndPrice(const gpusim::DeviceSpec& dev,
                                               const serving::BackendConfig& backend,
                                               const AttentionParams& p,
                                               const KernelConfig& cfg,
                                               double extra_l2_fraction) {
  Plan plan;
  switch (backend.scheduler) {
    case SchedulerKind::kBalanced:
      plan = MakeBalancedPlan(p, cfg, dev.num_sms, int64_t{1} << 40);
      break;
    case SchedulerKind::kNaive:
      plan = MakeNaivePlan(p, cfg);
      break;
    case SchedulerKind::kFixedSplit:
      plan = MakeFixedSplitPlan(p, cfg, dev.num_sms, kFixedSplits, int64_t{1} << 40);
      break;
  }
  const double auto_l2 = MapKvReuseFraction(p);
  const double l2_fraction = 1.0 - (1.0 - extra_l2_fraction) * (1.0 - auto_l2);
  auto report = PricePlan(dev, p, cfg, plan, backend.kv_dtype, l2_fraction);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

/// One single-format launch over (qo_lens, kv_lens), lowered the way the
/// reference pricer sees it: the kernel config the pricer selects and the
/// paged batch BSR over fake page tables. `p` views `bsr`, so a launch is
/// neither copied nor moved.
struct ReferenceLaunch {
  KernelConfig cfg;
  sparse::BsrMatrix bsr;
  AttentionParams p;

  ReferenceLaunch(const gpusim::DeviceSpec& dev, const serving::BackendConfig& backend,
                  const serving::AttnSimInput& in, const std::vector<int64_t>& qo_lens,
                  const std::vector<int64_t>& kv_lens, int tile_q_override = 0) {
    const int g = in.num_qo_heads / in.num_kv_heads;
    const int fuse = backend.head_fusion ? g : 1;
    const int64_t total_q = std::accumulate(qo_lens.begin(), qo_lens.end(), int64_t{0});
    const double avg_fused =
        static_cast<double>(total_q) / static_cast<double>(qo_lens.size()) * fuse;
    cfg = SelectKernelConfig(dev, avg_fused, in.head_dim, DTypeBytes(backend.kv_dtype),
                             !in.force_dense);
    cfg.head_fusion = backend.head_fusion;
    if (tile_q_override > 0) cfg.tile_q = tile_q_override;
    if (in.tile_q_override > 0) cfg.tile_q = in.tile_q_override;
    if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
    if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

    std::vector<int64_t> fused_lens(qo_lens);
    for (auto& l : fused_lens) l *= fuse;
    bsr = sparse::BuildBatchBsr(BuildIndptr(fused_lens), FakePages(kv_lens, in.page_size),
                                in.page_size, cfg.tile_q);
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(qo_lens);
    p.kv_len = kv_lens;
    p.num_qo_heads = in.num_qo_heads;
    p.num_kv_heads = in.num_kv_heads;
    p.head_dim = in.head_dim;
    p.head_fusion = backend.head_fusion;
    p.variant.causal = in.causal;
  }
  ReferenceLaunch(const ReferenceLaunch&) = delete;
  ReferenceLaunch& operator=(const ReferenceLaunch&) = delete;
};

/// One single-format launch over (qo_lens, kv_lens) through the batch BSR.
inline gpusim::SimReport ReferencePriceSingleFormat(const gpusim::DeviceSpec& dev,
                                                    const serving::BackendConfig& backend,
                                                    const serving::AttnSimInput& in,
                                                    const std::vector<int64_t>& qo_lens,
                                                    const std::vector<int64_t>& kv_lens,
                                                    int tile_q_override = 0) {
  const ReferenceLaunch launch(dev, backend, in, qo_lens, kv_lens, tile_q_override);
  return ReferencePlanAndPrice(dev, backend, launch.p, launch.cfg, in.kv_l2_fraction);
}

/// The contraction that merges two levels' partial states (composable and
/// verify launches): one bandwidth-bound pass over `fused_rows` rows.
inline void ReferenceAddLevelMerge(const gpusim::DeviceSpec& dev, double fused_rows,
                                   int head_dim, gpusim::SimReport& report) {
  gpusim::WorkCost wc;
  wc.hbm_bytes = fused_rows * (head_dim + 1) * 4.0 * 2.0 + fused_rows * head_dim * 2.0;
  wc.cuda_flops = fused_rows * (2.0 * head_dim + 8.0);
  gpusim::KernelEfficiency eff;
  report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
  report.total_hbm_bytes += wc.hbm_bytes;
  report.total_cuda_flops += wc.cuda_flops;
}

/// serving::SimulateBatchAttention over the reference single-format pricer:
/// the same packed-tile and composable compositions.
inline gpusim::SimReport ReferenceSimulateBatchAttention(const gpusim::DeviceSpec& dev,
                                                         const serving::BackendConfig& backend,
                                                         const serving::AttnSimInput& in) {
  const int g = in.num_qo_heads / in.num_kv_heads;
  if (!backend.composable || in.groups.empty()) {
    auto report = ReferencePriceSingleFormat(dev, backend, in, in.qo_lens, in.kv_lens);
    if (!backend.packed_tiles || !in.groups.empty() || in.tile_q_override != 0 ||
        in.qo_lens.size() <= 1) {
      return report;
    }
    const int fuse = backend.head_fusion ? g : 1;
    std::vector<int64_t> small_qo, small_kv, large_qo, large_kv;
    int64_t small_fused = 0;
    for (size_t i = 0; i < in.qo_lens.size(); ++i) {
      const bool large = in.qo_lens[i] * fuse >= 64;
      (large ? large_qo : small_qo).push_back(in.qo_lens[i]);
      (large ? large_kv : small_kv).push_back(in.kv_lens[i]);
      if (!large) small_fused += in.qo_lens[i] * fuse;
    }
    if (small_qo.empty() || large_qo.empty()) return report;
    const double small_avg =
        static_cast<double>(small_fused) / static_cast<double>(small_qo.size());
    int small_tile = 16;
    while (small_tile < 64 && small_tile < small_avg) small_tile *= 2;
    const auto small = ReferencePriceSingleFormat(dev, backend, in, small_qo, small_kv,
                                                  small_tile);
    const auto large = ReferencePriceSingleFormat(dev, backend, in, large_qo, large_kv);
    gpusim::SimReport packed;
    packed.num_ctas = std::max(small.num_ctas, large.num_ctas);
    packed.cta_time_us = small.cta_time_us;
    packed.cta_time_us.insert(packed.cta_time_us.end(), large.cta_time_us.begin(),
                              large.cta_time_us.end());
    packed.total_hbm_bytes = small.total_hbm_bytes + large.total_hbm_bytes;
    packed.total_l2_bytes = small.total_l2_bytes + large.total_l2_bytes;
    packed.total_tensor_flops = small.total_tensor_flops + large.total_tensor_flops;
    packed.total_cuda_flops = small.total_cuda_flops + large.total_cuda_flops;
    const double hi = std::max(small.time_us, large.time_us);
    const double lo = std::min(small.time_us, large.time_us);
    packed.time_us =
        std::max(hi, hi + lo * 0.35 - dev.kernel_launch_us * backend.kernel_time_scale);
    return packed.time_us < report.time_us ? packed : report;
  }

  // Composable: one prefix "request" per group, then every request's suffix.
  std::vector<int64_t> qo, kv;
  int max_group_rows = 1;
  for (const auto& group : in.groups) {
    int64_t rows = 0;
    for (int m : group.members) rows += in.qo_lens[static_cast<size_t>(m)];
    qo.push_back(rows);
    kv.push_back(group.prefix_len);
    max_group_rows =
        std::max<int>(max_group_rows, static_cast<int>(rows) * (backend.head_fusion ? g : 1));
  }
  std::vector<int64_t> suffix_kv(in.kv_lens);
  for (const auto& group : in.groups) {
    for (int m : group.members) {
      suffix_kv[static_cast<size_t>(m)] = in.kv_lens[static_cast<size_t>(m)] - group.prefix_len;
    }
  }
  qo.insert(qo.end(), in.qo_lens.begin(), in.qo_lens.end());
  kv.insert(kv.end(), suffix_kv.begin(), suffix_kv.end());
  auto report =
      ReferencePriceSingleFormat(dev, backend, in, qo, kv, std::min(max_group_rows, 128));
  int64_t fused_rows = 0;
  for (const auto& group : in.groups) {
    for (int m : group.members) fused_rows += in.qo_lens[static_cast<size_t>(m)] * g;
  }
  fused_rows *= in.num_kv_heads;
  ReferenceAddLevelMerge(dev, static_cast<double>(fused_rows), in.head_dim, report);
  return report;
}

/// Stacks `copies` copies of `unit` block-diagonally: copy c's block rows
/// follow copy c-1's, its column ids are offset by c * unit.num_col_blocks,
/// and its logical positions restart at each copy's own coordinate system
/// (block_pos is per-request in batch BSRs). The verify reference replicates
/// one branch's tree-mask BSR across the batch with it.
inline sparse::BsrMatrix TileBsrDiagonal(const sparse::BsrMatrix& unit, int copies) {
  FI_CHECK_GE(copies, 1);
  unit.Validate();
  sparse::BsrMatrix out;
  out.br = unit.br;
  out.bc = unit.bc;
  out.num_rows = unit.num_rows * copies;
  out.num_col_blocks = unit.num_col_blocks * copies;
  out.indptr.push_back(0);
  out.row_start.push_back(0);
  for (int c = 0; c < copies; ++c) {
    for (int64_t e = 0; e < unit.Nnz(); ++e) {
      const auto i = static_cast<size_t>(e);
      out.indices.push_back(unit.indices[i] + c * unit.num_col_blocks);
      out.block_pos.push_back(unit.block_pos[i]);
      out.block_valid.push_back(unit.block_valid[i]);
    }
    for (int64_t b = 1; b <= unit.NumBlockRows(); ++b) {
      const auto i = static_cast<size_t>(b);
      out.indptr.push_back(c * unit.Nnz() + unit.indptr[i]);
      out.row_start.push_back(c * unit.num_rows + unit.row_start[i]);
    }
  }
  out.Validate();
  return out;
}

/// One launch over an explicit mask BSR in the fused-row space, at the tile
/// it was lowered at (`bsr.br`), through the reference plan walk; qo_lens
/// and kv_lens attribute its rows to requests. No causal trimming.
inline gpusim::SimReport ReferenceSimulateMaskedAttention(
    const gpusim::DeviceSpec& dev, const serving::BackendConfig& backend,
    const serving::AttnSimInput& in, const sparse::BsrMatrix& bsr,
    const std::vector<int64_t>& qo_lens, const std::vector<int64_t>& kv_lens) {
  KernelConfig cfg = SelectKernelConfig(dev, bsr.br, in.head_dim,
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
  p.head_dim = in.head_dim;
  p.head_fusion = backend.head_fusion;
  return ReferencePlanAndPrice(dev, backend, p, cfg, in.kv_l2_fraction);
}

/// serving::SimulateVerifyAttention through the reference pricers, over a
/// real batch BSR: level 0 through the single-format reference over
/// (`qo_len` tokens, context) per branch with causal trimming off, level 1
/// over `unit` (one branch's fused-row mask of `qo_len` tokens) tiled
/// block-diagonally once per branch, then the merge of both levels' states.
inline gpusim::SimReport ReferenceSimulateVerifyAttention(
    const gpusim::DeviceSpec& dev, const serving::BackendConfig& backend,
    const serving::AttnSimInput& in, const sparse::BsrMatrix& unit, int64_t qo_len,
    const std::vector<int64_t>& context_lens) {
  const int batch = static_cast<int>(context_lens.size());
  serving::AttnSimInput level0 = in;
  level0.qo_lens.assign(context_lens.size(), qo_len);
  level0.kv_lens = context_lens;
  level0.groups.clear();
  level0.causal = false;
  auto report = ReferenceSimulateBatchAttention(dev, backend, level0);
  const std::vector<int64_t> tail(context_lens.size(), qo_len);
  report.Append(ReferenceSimulateMaskedAttention(dev, backend, in,
                                                 TileBsrDiagonal(unit, batch), tail, tail));
  const int g = backend.head_fusion ? in.num_qo_heads / in.num_kv_heads : 1;
  ReferenceAddLevelMerge(dev, static_cast<double>(batch) * qo_len * g * in.num_kv_heads,
                         in.head_dim, report);
  return report;
}

/// Empty when the reports are bit-identical; otherwise names the first
/// differing field.
inline std::string ReportDiff(const gpusim::SimReport& got, const gpusim::SimReport& want) {
  auto diff = [](const char* what, double a, double b) {
    return std::string(what) + ": " + std::to_string(a) + " != " + std::to_string(b);
  };
  if (got.time_us != want.time_us) return diff("time_us", got.time_us, want.time_us);
  if (got.total_hbm_bytes != want.total_hbm_bytes) {
    return diff("total_hbm_bytes", got.total_hbm_bytes, want.total_hbm_bytes);
  }
  if (got.total_l2_bytes != want.total_l2_bytes) {
    return diff("total_l2_bytes", got.total_l2_bytes, want.total_l2_bytes);
  }
  if (got.total_tensor_flops != want.total_tensor_flops) {
    return diff("total_tensor_flops", got.total_tensor_flops, want.total_tensor_flops);
  }
  if (got.total_cuda_flops != want.total_cuda_flops) {
    return diff("total_cuda_flops", got.total_cuda_flops, want.total_cuda_flops);
  }
  if (got.num_ctas != want.num_ctas) return diff("num_ctas", got.num_ctas, want.num_ctas);
  if (got.cta_time_us != want.cta_time_us) return "cta_time_us differ";
  return {};
}

/// Empty when every named kMetricFields family's registry total (summed over
/// all its label sets) equals its ServingMetrics field bit for bit;
/// otherwise names each family that differs.
inline std::string CounterFieldDiff(const obs::MetricsRegistry& reg,
                                    const serving::ServingMetrics& m) {
  std::string out;
  for (const serving::MetricField& f : serving::kMetricFields) {
    if (f.family == nullptr) continue;
    const double total = reg.CounterFamilyTotal(f.family);
    if (std::bit_cast<uint64_t>(total) != std::bit_cast<uint64_t>(f.Value(m))) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: registry %.17g != field %.17g; ", f.family,
                    total, f.Value(m));
      out += buf;
    }
  }
  return out;
}

/// Empty when `a` and `b` hold the same bits in every member: each
/// kMetricFields value, the sample vectors, the ITL sketch (count, min, max,
/// sum, every bucket), makespan_s, branch_stalls and accepted_len_hist;
/// otherwise names the first member that differs.
inline std::string MetricsDiff(const serving::ServingMetrics& a,
                               const serving::ServingMetrics& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  const auto same_samples = [&same](const std::vector<double>& x, const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), same);
  };
  for (size_t i = 0; i < std::size(serving::kMetricFields); ++i) {
    const serving::MetricField& f = serving::kMetricFields[i];
    if (!same(f.Value(a), f.Value(b))) return "kMetricFields[" + std::to_string(i) + "]";
  }
  if (!same_samples(a.ttft_ms, b.ttft_ms)) return "ttft_ms";
  if (a.ttft_priority != b.ttft_priority) return "ttft_priority";
  if (!same_samples(a.itl_ms, b.itl_ms)) return "itl_ms";
  const obs::Histogram &sa = a.itl_sketch, &sb = b.itl_sketch;
  bool sketch = sa.Count() == sb.Count() && same(sa.MinValue(), sb.MinValue()) &&
                same(sa.MaxValue(), sb.MaxValue()) && same(sa.Sum(), sb.Sum()) &&
                sa.NumBuckets() == sb.NumBuckets();
  for (int64_t i = 0; sketch && i < sa.NumBuckets(); ++i) {
    sketch = sa.BucketCount(i) == sb.BucketCount(i);
  }
  if (!sketch) return "itl_sketch";
  if (!same(a.makespan_s, b.makespan_s)) return "makespan_s";
  if (a.branch_stalls != b.branch_stalls) return "branch_stalls";
  if (a.accepted_len_hist != b.accepted_len_hist) return "accepted_len_hist";
  return "";
}

// --------------------------------------------------------------------------
// Reference histogram bucketing. Histogram::IndexOf looks each sample up in a
// table of every bucket's least value; this is the log formula that table
// encodes.

/// Bucket of `v` in `h`'s geometry: floor(log(v / lo) / log(growth)) + 1 for
/// v >= lo, 0 below lo (NaN and negatives included), and the overflow bucket
/// from the formula's first index past the regular buckets on (an infinite
/// quotient included).
inline int64_t ReferenceBucketIndex(const obs::Histogram& h, double v) {
  if (!(v >= h.lo())) return 0;
  const double i = std::floor(std::log(v / h.lo()) / std::log(h.growth()));
  const int64_t regular = h.NumBuckets() - 2;
  if (i >= static_cast<double>(regular)) return regular + 1;
  return static_cast<int64_t>(i) + 1;
}

/// The dense histogram obs::Histogram stored before it kept only its bucket
/// span: every bucket of the shared geometry in one array, the same
/// count/sum/min/max updates and the same quantile walk over all buckets.
/// Samples are bucketed through ReferenceBucketIndex.
class DenseHistogram {
 public:
  DenseHistogram() : counts_(static_cast<size_t>(obs::Histogram::NumBuckets()), 0) {}

  void Add(double v) {
    ++counts_[static_cast<size_t>(ReferenceBucketIndex(obs::Histogram(), v))];
    if (count_++ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    sum_ += v;
  }
  void Clear() { *this = DenseHistogram(); }
  void MergeFrom(const DenseHistogram& other) {
    if (other.count_ == 0) return;
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
  }

  int64_t Count() const { return count_; }
  double MinValue() const { return count_ > 0 ? min_ : 0.0; }
  double MaxValue() const { return count_ > 0 ? max_ : 0.0; }
  double Sum() const { return sum_; }
  int64_t BucketCount(int64_t i) const { return counts_[static_cast<size_t>(i)]; }

  double Quantile(double p) const {
    if (count_ == 0) return 0.0;
    const double lo = obs::Histogram::lo(), log_growth = std::log(obs::Histogram::growth());
    const int64_t regular = static_cast<int64_t>(counts_.size()) - 2;
    p = std::min(1.0, std::max(0.0, p));
    const double target = p * static_cast<double>(count_ - 1) + 1.0;
    double seen = 0.0;
    for (int64_t i = 0; i < static_cast<int64_t>(counts_.size()); ++i) {
      const double n = static_cast<double>(counts_[static_cast<size_t>(i)]);
      if (n == 0.0) continue;
      if (seen + n >= target) {
        const double frac = (target - seen) / n;
        const double lower = i <= 0 ? 0.0 : lo * std::exp(static_cast<double>(i - 1) * log_growth);
        const double edge_lo = std::max(lower, min_);
        const double edge_hi = std::min(
            i >= regular + 1 ? max_ : lo * std::exp(static_cast<double>(i) * log_growth), max_);
        if (edge_lo <= 0.0 || edge_hi <= edge_lo) return std::min(edge_hi, max_);
        return std::min(max_, edge_lo * std::pow(edge_hi / edge_lo, frac));
      }
      seen += n;
    }
    return max_;
  }

 private:
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0, min_ = 0.0, max_ = 0.0;
};

/// Empty when `h` reads exactly as `ref`: bucket count, every bucket, count,
/// min, max, sum and Quantile at 0, 0.001, 0.01, 0.1 ... 0.999 and 1, bit for
/// bit; otherwise names the first difference. Any two NaNs match: which
/// NaN an addition of two returns depends on the operand order the compiler
/// picks.
inline std::string HistogramDiff(const obs::Histogram& h, const DenseHistogram& ref) {
  const auto same = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y) ||
           (std::isnan(x) && std::isnan(y));
  };
  char buf[160];
  if (h.NumBuckets() != obs::Histogram::NumBuckets()) return "NumBuckets";
  for (int64_t i = 0; i < h.NumBuckets(); ++i) {
    if (h.BucketCount(i) != ref.BucketCount(i)) {
      std::snprintf(buf, sizeof buf, "bucket %lld: %lld != %lld", static_cast<long long>(i),
                    static_cast<long long>(h.BucketCount(i)),
                    static_cast<long long>(ref.BucketCount(i)));
      return buf;
    }
  }
  if (h.Count() != ref.Count()) return "count";
  const struct {
    const char* name;
    double got, want;
  } stats[] = {{"min", h.MinValue(), ref.MinValue()},
               {"max", h.MaxValue(), ref.MaxValue()},
               {"sum", h.Sum(), ref.Sum()}};
  for (const auto& st : stats) {
    if (!same(st.got, st.want)) {
      std::snprintf(buf, sizeof buf, "%s %.17g != %.17g", st.name, st.got, st.want);
      return buf;
    }
  }
  for (const double p : {0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    if (!same(h.Quantile(p), ref.Quantile(p))) {
      std::snprintf(buf, sizeof buf, "Quantile(%g) %.17g != %.17g", p, h.Quantile(p),
                    ref.Quantile(p));
      return buf;
    }
  }
  return "";
}

/// Empty when `sketch` holds as many samples as `samples` and each of its
/// buckets counts the samples ReferenceBucketIndex puts there; otherwise
/// names the first difference.
inline std::string SketchCountsDiff(const obs::Histogram& sketch,
                                    const std::vector<double>& samples) {
  std::vector<int64_t> counts(static_cast<size_t>(sketch.NumBuckets()), 0);
  for (const double v : samples) ++counts[static_cast<size_t>(ReferenceBucketIndex(sketch, v))];
  char buf[160];
  if (sketch.Count() != static_cast<int64_t>(samples.size())) {
    std::snprintf(buf, sizeof buf, "count %lld != %zu", static_cast<long long>(sketch.Count()),
                  samples.size());
    return buf;
  }
  for (int64_t b = 0; b < sketch.NumBuckets(); ++b) {
    if (sketch.BucketCount(b) != counts[static_cast<size_t>(b)]) {
      std::snprintf(buf, sizeof buf, "bucket %lld: %lld != %lld", static_cast<long long>(b),
                    static_cast<long long>(sketch.BucketCount(b)),
                    static_cast<long long>(counts[static_cast<size_t>(b)]));
      return buf;
    }
  }
  return "";
}

/// Empty when `sketch` equals the histogram that adding `samples` in order
/// through ReferenceBucketIndex builds — count, every bucket, min, max and
/// sum, bit for bit; otherwise names the first difference.
inline std::string SketchRebuildDiff(const obs::Histogram& sketch,
                                     const std::vector<double>& samples) {
  if (std::string diff = SketchCountsDiff(sketch, samples); !diff.empty()) return diff;
  double sum = 0.0, mn = 0.0, mx = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double v = samples[i];
    mn = i == 0 ? v : std::min(mn, v);
    mx = i == 0 ? v : std::max(mx, v);
    sum += v;
  }
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  const struct {
    const char* name;
    double got, want;
  } stats[] = {{"min", sketch.MinValue(), mn}, {"max", sketch.MaxValue(), mx},
               {"sum", sketch.Sum(), sum}};
  for (const auto& st : stats) {
    if (bits(st.got) != bits(st.want)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s %.17g != %.17g", st.name, st.got, st.want);
      return buf;
    }
  }
  return "";
}

/// Empty when the time-only price `time_us` (BatchAttentionTimeUs,
/// VerifyAttentionTimeUs) is bit for bit the full report's launch time;
/// otherwise names both.
inline std::string TimeOnlyDiff(double time_us, const gpusim::SimReport& report) {
  if (std::bit_cast<uint64_t>(time_us) == std::bit_cast<uint64_t>(report.time_us)) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "time-only %a != report time_us %a", time_us, report.time_us);
  return buf;
}

// --------------------------------------------------------------------------
// Reference Algorithm 1. ScheduleBalanced sorts per block row, expands heads
// afterwards and places each run of equal-cost chunks at once over
// equal-load CTA classes; this states the algorithm unit by unit with a
// linear scan.

/// What the reference's own loads went through, for coverage checks of
/// ScheduleBalanced's class edge cases. A run is a maximal stretch of
/// equal-cost chunks in the sorted order.
struct ReferenceRunStats {
  /// Runs that needed more CTAs than held the least load when they began.
  int outlast_least = 0;
  /// Runs whose first chunk raised its CTA to a load another CTA held.
  int land_on_held_load = 0;
  /// Chunks placed on a CTA that already held a load.
  int moves = 0;
  /// Chunks whose cost equals the previous chunk's, from another block row.
  int cross_row_ties = 0;
};

/// Algorithm 1 unit by unit, as the paper states it: chunk every work unit,
/// sort all chunks by descending cost rows + tokens (ties in (block_row,
/// kv_head, qo_head, kv_begin) order), assign longest-first to the
/// least-loaded CTA, the lowest index on ties. Counts into `stats` when
/// given.
inline std::vector<std::vector<WorkItem>> ReferenceBalancedQueues(
    const AttentionParams& p, int tile_kv, int num_ctas, ReferenceRunStats* stats = nullptr) {
  const auto units = EnumerateWorkUnits(p);
  int64_t total_kv = 0;
  for (const auto& u : units) total_kv += u.kv_len;
  int64_t lkv = (total_kv + num_ctas - 1) / num_ctas;
  lkv = std::max<int64_t>((lkv + tile_kv - 1) / tile_kv * tile_kv, tile_kv);
  std::vector<std::pair<WorkItem, int>> chunks;  // (item, rows)
  int32_t next_partial = 0;
  for (const auto& u : units) {
    const int64_t n = u.kv_len <= lkv ? 1 : (u.kv_len + lkv - 1) / lkv;
    for (int64_t k = 0; k < n; ++k) {
      const int64_t lo = k * lkv;
      const int32_t dest = n == 1 ? -1 : next_partial;
      if (n > 1) next_partial += u.rows;
      chunks.push_back({WorkItem{u.block_row, u.request, u.kv_head, u.qo_head, lo,
                                 std::min(u.kv_len, lo + lkv), dest},
                        u.rows});
    }
  }
  auto cost = [&](const std::pair<WorkItem, int>& c) {
    return c.second + (c.first.kv_end - c.first.kv_begin);
  };
  std::sort(chunks.begin(), chunks.end(), [&](const auto& a, const auto& b) {
    if (cost(a) != cost(b)) return cost(a) > cost(b);
    return std::tie(a.first.block_row, a.first.kv_head, a.first.qo_head, a.first.kv_begin) <
           std::tie(b.first.block_row, b.first.kv_head, b.first.qo_head, b.first.kv_begin);
  });
  std::vector<std::vector<WorkItem>> queues(static_cast<size_t>(num_ctas));
  std::vector<int64_t> load(static_cast<size_t>(num_ctas), 0);
  int64_t run_load = 0;  // The least load when the current run began.
  bool outlasted = false;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const int64_t c = cost(chunks[i]);
    const size_t cta =
        static_cast<size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    if (stats != nullptr) {
      const int64_t before = load[cta];
      if (i == 0 || cost(chunks[i - 1]) != c) {
        run_load = before;
        outlasted = false;
        stats->land_on_held_load +=
            std::find(load.begin(), load.end(), before + c) != load.end();
      } else if (!outlasted && before != run_load) {
        outlasted = true;
        ++stats->outlast_least;
      }
      stats->moves += before > 0;
      stats->cross_row_ties += i > 0 && cost(chunks[i - 1]) == c &&
                               chunks[i - 1].first.block_row != chunks[i].first.block_row;
    }
    queues[cta].push_back(chunks[i].first);
    load[cta] += c;
  }
  return queues;
}

/// Empty when MakeBalancedPlan's queues over `p` equal
/// ReferenceBalancedQueues item for item; otherwise names the first
/// difference. Counts the reference's runs into `stats` when given.
inline std::string BalancedQueuesDiff(const AttentionParams& p, const KernelConfig& cfg,
                                      int num_ctas, ReferenceRunStats* stats = nullptr) {
  const auto plan = MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40);
  const auto want = ReferenceBalancedQueues(p, cfg.tile_kv, num_ctas, stats);
  if (plan.cta_queues.size() != want.size()) return "grid size differs";
  for (size_t c = 0; c < want.size(); ++c) {
    const auto& got = plan.cta_queues[c];
    if (got.size() != want[c].size()) {
      return "cta " + std::to_string(c) + ": " + std::to_string(got.size()) + " items != " +
             std::to_string(want[c].size());
    }
    for (size_t i = 0; i < got.size(); ++i) {
      const auto& a = got[i];
      const auto& b = want[c][i];
      if (std::tie(a.block_row, a.request, a.kv_head, a.qo_head, a.kv_begin, a.kv_end,
                   a.dest) != std::tie(b.block_row, b.request, b.kv_head, b.qo_head,
                                       b.kv_begin, b.kv_end, b.dest)) {
        return "cta " + std::to_string(c) + " item " + std::to_string(i) + " differs";
      }
    }
  }
  return {};
}

/// Algorithm 1's cost of a plan's chunk over block rows `rows`: its tile's
/// rows plus its KV tokens.
inline int64_t ChunkCost(const std::vector<BlockRowShape>& rows, const WorkItem& item) {
  return rows[static_cast<size_t>(item.block_row)].rows + (item.kv_end - item.kv_begin);
}

/// Each CTA's Algorithm 1 load in `plan` over `p`: the summed ChunkCost of
/// its queue.
inline std::vector<int64_t> CtaLoads(const AttentionParams& p, const Plan& plan) {
  const auto rows = BlockRowsFromBsr(p);
  std::vector<int64_t> loads;
  for (const auto& queue : plan.cta_queues) {
    int64_t load = 0;
    for (const auto& it : queue) load += ChunkCost(rows, it);
    loads.push_back(load);
  }
  return loads;
}

/// Empty when the balanced plan over `p` keeps Graham's list-scheduling
/// bound on its exact loads: with m CTAs, total cost T and largest chunk
/// cost c, the busiest CTA's load L has T <= m * L <= T + (m - 1) * c (the
/// last chunk onto that CTA found it least loaded, at most (T - c) / m).
/// Otherwise states the side that failed.
inline std::string ListSchedulingBoundDiff(const AttentionParams& p, const KernelConfig& cfg,
                                           int num_ctas) {
  const auto plan = MakeBalancedPlan(p, cfg, num_ctas, int64_t{1} << 40);
  const auto rows = BlockRowsFromBsr(p);
  int64_t largest_chunk = 0;
  for (const auto& queue : plan.cta_queues) {
    for (const auto& it : queue) largest_chunk = std::max(largest_chunk, ChunkCost(rows, it));
  }
  const auto loads = CtaLoads(p, plan);
  const int64_t total = std::accumulate(loads.begin(), loads.end(), int64_t{0});
  const int64_t m = static_cast<int64_t>(loads.size());
  const int64_t busiest = m * *std::max_element(loads.begin(), loads.end());
  const std::string sides = "m*L = " + std::to_string(busiest) + ", T = " +
                            std::to_string(total) + ", c = " + std::to_string(largest_chunk) +
                            ", m = " + std::to_string(m);
  if (busiest < total) return "m*L < T: " + sides;
  if (busiest > total + (m - 1) * largest_chunk) return "m*L > T + (m-1)*c: " + sides;
  return {};
}

/// A random step batch over the head geometry of `geometry`: decode rows,
/// short verify-like rows, prefill chunks and zero-length query rows; with
/// `with_groups`, disjoint shared-prefix groups over the non-empty rows.
inline serving::AttnSimInput RandomAttnBatch(Rng& rng, const serving::AttnSimInput& geometry,
                                             bool with_groups) {
  serving::AttnSimInput in = geometry;
  in.qo_lens.clear();
  in.kv_lens.clear();
  in.groups.clear();
  const int n = static_cast<int>(rng.UniformInt(1, 48));
  for (int i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    const int64_t qo = u < 0.45   ? 1
                       : u < 0.55 ? 0
                       : u < 0.8  ? rng.UniformInt(2, 8)
                                  : rng.UniformInt(9, 300);
    in.qo_lens.push_back(qo);
    in.kv_lens.push_back(qo + rng.UniformInt(0, rng.NextDouble() < 0.2 ? 8 : 3000));
  }
  if (in.qo_lens[0] == 0) in.qo_lens[0] = 1;  // At least one query row.
  if (in.kv_lens[0] < in.qo_lens[0]) in.kv_lens[0] = in.qo_lens[0];
  if (with_groups) {
    std::vector<int> free_rows;
    for (int i = 0; i < n; ++i) {
      if (in.qo_lens[static_cast<size_t>(i)] > 0) free_rows.push_back(i);
    }
    while (free_rows.size() >= 2 && rng.NextDouble() < 0.7) {
      serving::AttnSimInput::Group group;
      const int size = static_cast<int>(
          rng.UniformInt(2, std::min<int64_t>(5, static_cast<int64_t>(free_rows.size()))));
      int64_t max_prefix = INT64_MAX;
      for (int j = 0; j < size; ++j) {
        const int m = free_rows.back();
        free_rows.pop_back();
        group.members.push_back(m);
        max_prefix = std::min(max_prefix, in.kv_lens[static_cast<size_t>(m)] -
                                              in.qo_lens[static_cast<size_t>(m)]);
      }
      group.prefix_len = rng.UniformInt(0, max_prefix);
      in.groups.push_back(group);
    }
  }
  return in;
}

// --------------------------------------------------------------------------
// Reference prefix cache. RadixTree keeps runs of pages per node and an
// index of evictable leaves by stamp; this is the tree it replaced, one node
// per page, which finds each victim with a full-tree scan (ties would go to
// the first leaf in reverse-lexicographic preorder).

class ReferenceRadixTree {
 public:
  explicit ReferenceRadixTree(int page_size) : page_size_(page_size) {}

  RadixTree::MatchResult MatchPrefix(std::span<const int32_t> tokens) {
    RadixTree::MatchResult result;
    Node* node = &root_;
    const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
    ++clock_;
    for (int64_t p = 0; p < full_pages; ++p) {
      std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                                 tokens.begin() + (p + 1) * page_size_);
      const auto it = node->children.find(chunk);
      if (it == node->children.end()) break;
      node = it->second.get();
      node->last_access = clock_;
      result.pages.push_back(node->page);
      result.matched_tokens += page_size_;
    }
    return result;
  }

  int64_t PeekPrefixTokens(std::span<const int32_t> tokens) const {
    const Node* node = &root_;
    const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
    int64_t matched = 0;
    for (int64_t p = 0; p < full_pages; ++p) {
      std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                                 tokens.begin() + (p + 1) * page_size_);
      const auto it = node->children.find(chunk);
      if (it == node->children.end()) break;
      node = it->second.get();
      matched += page_size_;
    }
    return matched;
  }

  int64_t Insert(std::span<const int32_t> tokens, std::span<const int64_t> pages) {
    const int64_t full_pages = static_cast<int64_t>(tokens.size()) / page_size_;
    FI_CHECK_LE(full_pages, static_cast<int64_t>(pages.size()));
    Node* node = &root_;
    int64_t inserted = 0;
    ++clock_;
    for (int64_t p = 0; p < full_pages; ++p) {
      std::vector<int32_t> chunk(tokens.begin() + p * page_size_,
                                 tokens.begin() + (p + 1) * page_size_);
      auto it = node->children.find(chunk);
      if (it == node->children.end()) {
        auto child = std::make_unique<Node>();
        child->chunk = chunk;
        child->page = pages[static_cast<size_t>(p)];
        child->parent = node;
        child->last_access = clock_;
        it = node->children.emplace(std::move(chunk), std::move(child)).first;
        ++inserted;
        ++total_pages_;
      } else {
        it->second->last_access = clock_;
      }
      node = it->second.get();
    }
    return inserted;
  }

  std::vector<int64_t> EvictLru(int64_t max_pages) {
    std::vector<int64_t> freed;
    while (static_cast<int64_t>(freed.size()) < max_pages) {
      // Find the leaf with the oldest access stamp.
      Node* victim = nullptr;
      uint64_t best = UINT64_MAX;
      // Iterative DFS.
      std::vector<Node*> stack{&root_};
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        for (auto& [key, child] : n->children) stack.push_back(child.get());
        if (n != &root_ && n->children.empty() && n->last_access < best) {
          best = n->last_access;
          victim = n;
        }
      }
      if (victim == nullptr) break;  // Tree empty.
      freed.push_back(victim->page);
      --total_pages_;
      Node* parent = victim->parent;
      parent->children.erase(victim->chunk);
    }
    return freed;
  }

  int64_t TotalCachedPages() const noexcept { return total_pages_; }

 private:
  struct Node {
    std::vector<int32_t> chunk;
    int64_t page = -1;
    uint64_t last_access = 0;
    Node* parent = nullptr;
    std::map<std::vector<int32_t>, std::unique_ptr<Node>> children;
  };

  int page_size_;
  uint64_t clock_ = 0;
  int64_t total_pages_ = 0;
  Node root_;
};

/// Seeded prompts for prefix-cache tests over a tiny vocabulary, so that
/// prompts share prefixes and diverge: half extend a cut of one of the last
/// 16 prompts, and each adds up to `extra_pages` pages (and a partial page);
/// long additions make multi-page runs, splits and partial evictions common.
class RadixPromptStream {
 public:
  RadixPromptStream(Rng& rng, int page, int vocab, int extra_pages)
      : rng_(rng), page_(page), vocab_(vocab), extra_pages_(extra_pages) {}

  std::vector<int32_t> Next() {
    std::vector<int32_t> t;
    if (!prompts_.empty() && rng_.NextDouble() < 0.5) {
      const auto& base = prompts_[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(prompts_.size()) - 1))];
      t.assign(base.begin(),
               base.begin() + rng_.UniformInt(0, static_cast<int64_t>(base.size())));
    }
    const int64_t extra = rng_.UniformInt(0, extra_pages_ * page_ + page_ - 1);
    for (int64_t i = 0; i < extra; ++i) {
      t.push_back(static_cast<int32_t>(rng_.UniformInt(0, vocab_ - 1)));
    }
    prompts_.push_back(t);
    if (prompts_.size() > 16) prompts_.erase(prompts_.begin());
    return t;
  }

 private:
  Rng& rng_;
  int page_;
  int vocab_;
  int extra_pages_;
  std::vector<std::vector<int32_t>> prompts_;
};

/// Runs `num_ops` seeded random prefix-cache operations through a RadixTree
/// and the reference tree side by side: inserts, matches, peeks and
/// evictions, over page sizes 1-4 and RadixPromptStream's prompts. Empty when every result agreed; otherwise
/// names the first operation that differed.
inline std::string RadixOpsDiff(uint64_t seed, int num_ops, int extra_pages = 4) {
  Rng rng(seed);
  const int page = static_cast<int>(rng.UniformInt(1, 4));
  const int vocab = static_cast<int>(rng.UniformInt(2, 4));
  const int64_t cap = rng.UniformInt(4, 48);
  RadixTree tree(page);
  ReferenceRadixTree ref(page);
  RadixPromptStream prompts(rng, page, vocab, extra_pages);
  int64_t next_page = 0;

  auto evict = [&](int64_t k) { return tree.EvictLru(k) == ref.EvictLru(k); };

  for (int op = 0; op < num_ops; ++op) {
    const std::string at = "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const double u = rng.NextDouble();
    if (u < 0.4) {
      const auto t = prompts.Next();
      std::vector<int64_t> pages(t.size() / static_cast<size_t>(page));
      std::iota(pages.begin(), pages.end(), next_page);
      next_page += static_cast<int64_t>(pages.size());
      if (tree.Insert(t, pages) != ref.Insert(t, pages)) return at + ": Insert count differs";
      // The router's mirror: evict back to capacity after every insert.
      if (tree.TotalCachedPages() > cap && !evict(tree.TotalCachedPages() - cap)) {
        return at + ": capacity EvictLru differs";
      }
    } else if (u < 0.7) {
      const auto t = prompts.Next();
      const auto a = tree.MatchPrefix(t);
      const auto b = ref.MatchPrefix(t);
      if (a.pages != b.pages || a.matched_tokens != b.matched_tokens) {
        return at + ": MatchPrefix differs";
      }
    } else if (u < 0.85) {
      const auto t = prompts.Next();
      if (tree.PeekPrefixTokens(t) != ref.PeekPrefixTokens(t)) {
        return at + ": PeekPrefixTokens differs";
      }
    } else if (!evict(rng.NextDouble() < 0.1 ? INT64_MAX : rng.UniformInt(0, 4))) {
      return at + ": EvictLru differs";
    }
    if (tree.TotalCachedPages() != ref.TotalCachedPages()) {
      return at + ": TotalCachedPages differs";
    }
  }
  if (!evict(INT64_MAX) || tree.TotalCachedPages() != 0 || ref.TotalCachedPages() != 0) {
    return "seed " + std::to_string(seed) + ": final drain differs";
  }
  return {};
}

// --------------------------------------------------------------------------
// Reference workload generation.

/// The eager form of serving::MultiTenantWorkload: every tenant's system
/// prompt drawn up front, in tenant order, before the requests, and each
/// request's prompt a copy of its tenant's grown by the user turn. The
/// generator draws a prompt only when a request first picks its tenant and
/// must match this request for request, token for token, and in the
/// caller's final Rng state.
inline std::vector<serving::Request> ReferenceMultiTenantWorkload(
    Rng& rng, int num_requests, double request_rate, const serving::TenantPoolConfig& cfg) {
  const auto clipped_log_normal = [&rng](double mean, double sigma, int64_t lo, int64_t hi) {
    const double mu = std::log(mean) - sigma * sigma / 2.0;
    return std::clamp<int64_t>(static_cast<int64_t>(std::llround(rng.LogNormal(mu, sigma))), lo,
                               hi);
  };
  std::vector<std::vector<int32_t>> prompts(static_cast<size_t>(cfg.num_tenants));
  for (int t = 0; t < cfg.num_tenants; ++t) {
    const int64_t len = rng.UniformInt(cfg.prefix_len_lo, cfg.prefix_len_hi);
    for (int64_t i = 0; i < len; ++i) {
      prompts[static_cast<size_t>(t)].push_back((t + 1) * 1'000'000 +
                                                static_cast<int32_t>(rng.UniformInt(0, 99'999)));
    }
  }
  ZipfSampler popularity(cfg.num_tenants, cfg.zipf_s);
  std::vector<serving::Request> reqs;
  double now = 0.0;
  for (int i = 0; i < num_requests; ++i) {
    now += rng.Exponential(request_rate);
    const int tenant = popularity.Sample(rng) - 1;
    const int64_t user_len =
        clipped_log_normal(static_cast<double>(cfg.user_len_mean), 0.8, 4, 512);
    serving::Request r;
    r.id = i;
    r.arrival_s = now;
    r.tenant = tenant;
    r.prompt_tokens = prompts[static_cast<size_t>(tenant)];
    for (int64_t u = 0; u < user_len; ++u) {
      r.prompt_tokens.push_back(static_cast<int32_t>(rng.UniformInt(0, 99'999)));
    }
    r.input_len = static_cast<int64_t>(r.prompt_tokens.size());
    r.output_len = clipped_log_normal(static_cast<double>(cfg.output_len_mean), 0.9, 4, 1024);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Empty when `a` and `b` hold the same bits in every field, the prompt's
/// tokens included; otherwise names the first field that differs.
inline std::string RequestDiff(const serving::Request& a, const serving::Request& b) {
  if (a.id != b.id) return "id";
  if (std::bit_cast<uint64_t>(a.arrival_s) != std::bit_cast<uint64_t>(b.arrival_s)) {
    return "arrival_s";
  }
  if (a.input_len != b.input_len) return "input_len";
  if (a.output_len != b.output_len) return "output_len";
  if (a.parallel_n != b.parallel_n) return "parallel_n";
  if (a.prompt_tokens != b.prompt_tokens) return "prompt_tokens";
  if (a.cached_prefix_len != b.cached_prefix_len) return "cached_prefix_len";
  if (a.tenant != b.tenant) return "tenant";
  if (std::bit_cast<uint64_t>(a.accept_prob) != std::bit_cast<uint64_t>(b.accept_prob)) {
    return "accept_prob";
  }
  if (a.priority != b.priority) return "priority";
  return "";
}

/// Max absolute difference between two equally-shaped float vectors.
inline float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  FI_CHECK_EQ(a.size(), b.size());
  float m = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

// --------------------------------------------------------------------------
// Pinned exporter outputs (tests/golden/*): the exact bytes an exporter
// wrote for a fixed input, compared line by line.

/// Contents of tests/golden/<name>; empty when the file is missing.
inline std::string ReadGolden(const std::string& name) {
  const std::string here = __FILE__;
  std::ifstream f(here.substr(0, here.find_last_of('/')) + "/golden/" + name,
                  std::ios::binary);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

/// Empty when `got` == `want`; otherwise the first differing line of each.
inline std::string FirstLineDiff(const std::string& got, const std::string& want) {
  if (got == want) return {};
  std::istringstream g(got), w(want);
  std::string gl, wl;
  for (int line = 1;; ++line) {
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    if (more_g != more_w || gl != wl) {
      return "line " + std::to_string(line) + ":\n  got:  " + (more_g ? gl : "<end>") +
             "\n  want: " + (more_w ? wl : "<end>");
    }
    if (!more_g) return "outputs differ only in a trailing newline";
  }
}

}  // namespace flashinfer::test

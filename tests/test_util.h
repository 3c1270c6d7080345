// Shared fixtures: random attention problems over the paged cache, a
// serial (scheduler-free) kernel driver used to isolate kernel math, and the
// plan-walking reference the serving attention pricer must match bit for bit.
#pragma once

#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/reference.h"
#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
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
      plan = MakeFixedSplitPlan(p, cfg, dev.num_sms, 4, int64_t{1} << 40);
      break;
  }
  const double auto_l2 = MapKvReuseFraction(p);
  const double l2_fraction = 1.0 - (1.0 - extra_l2_fraction) * (1.0 - auto_l2);
  auto report = PricePlan(dev, p, cfg, plan, backend.kv_dtype, l2_fraction);
  report.time_us *= backend.kernel_time_scale;
  return report;
}

/// One single-format launch over (qo_lens, kv_lens) through the batch BSR.
inline gpusim::SimReport ReferencePriceSingleFormat(const gpusim::DeviceSpec& dev,
                                                    const serving::BackendConfig& backend,
                                                    const serving::AttnSimInput& in,
                                                    const std::vector<int64_t>& qo_lens,
                                                    const std::vector<int64_t>& kv_lens,
                                                    int tile_q_override = 0) {
  const int g = in.num_qo_heads / in.num_kv_heads;
  const int fuse = backend.head_fusion ? g : 1;
  const int64_t total_q = std::accumulate(qo_lens.begin(), qo_lens.end(), int64_t{0});
  const double avg_fused =
      static_cast<double>(total_q) / static_cast<double>(qo_lens.size()) * fuse;
  KernelConfig cfg = SelectKernelConfig(dev, avg_fused, in.head_dim,
                                        DTypeBytes(backend.kv_dtype), !in.force_dense);
  cfg.head_fusion = backend.head_fusion;
  if (tile_q_override > 0) cfg.tile_q = tile_q_override;
  if (in.tile_q_override > 0) cfg.tile_q = in.tile_q_override;
  if (in.force_template == 2) cfg.tmpl = gpusim::TemplateGen::kFA2;
  if (in.force_template == 3) cfg.tmpl = gpusim::TemplateGen::kFA3;

  std::vector<int64_t> fused_lens(qo_lens);
  for (auto& l : fused_lens) l *= fuse;
  const auto bsr = sparse::BuildBatchBsr(BuildIndptr(fused_lens),
                                         FakePages(kv_lens, in.page_size), in.page_size,
                                         cfg.tile_q);
  AttentionParams p;
  p.bsr = &bsr;
  p.qo_indptr = BuildIndptr(qo_lens);
  p.kv_len = kv_lens;
  p.num_qo_heads = in.num_qo_heads;
  p.num_kv_heads = in.num_kv_heads;
  p.head_dim = in.head_dim;
  p.head_fusion = backend.head_fusion;
  p.variant.causal = in.causal;
  return ReferencePlanAndPrice(dev, backend, p, cfg, in.kv_l2_fraction);
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
  gpusim::WorkCost wc;
  wc.hbm_bytes = static_cast<double>(fused_rows) * (in.head_dim + 1) * 4.0 * 2.0 +
                 static_cast<double>(fused_rows) * in.head_dim * 2.0;
  wc.cuda_flops = static_cast<double>(fused_rows) * (2.0 * in.head_dim + 8.0);
  gpusim::KernelEfficiency eff;
  report.time_us += wc.hbm_bytes / (dev.hbm_gbps * eff.mem * 1e3);
  report.total_hbm_bytes += wc.hbm_bytes;
  report.total_cuda_flops += wc.cuda_flops;
  return report;
}

/// serving::SimulateMaskedAttention over the reference plan walk.
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

/// Max absolute difference between two equally-shaped float vectors.
inline float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  FI_CHECK_EQ(a.size(), b.size());
  float m = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace flashinfer::test

#include "runtime/batch_handle.h"

namespace flashinfer {

namespace {

uint64_t HashLens(const std::vector<int64_t>& a, const std::vector<int64_t>& b,
                  const void* bsr_identity, int64_t nnz) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ reinterpret_cast<uintptr_t>(bsr_identity);
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<uint64_t>(nnz));
  for (int64_t v : a) mix(static_cast<uint64_t>(v));
  for (int64_t v : b) mix(static_cast<uint64_t>(v));
  return h;
}

}  // namespace

BatchAttentionHandle::BatchAttentionHandle(gpusim::DeviceSpec dev, TaskInfo info,
                                           Workspace* workspace)
    : sim_(std::move(dev)), info_(info), workspace_(workspace) {
  FI_CHECK(workspace_ != nullptr);
  FI_CHECK_EQ(info_.num_qo_heads % info_.num_kv_heads, 0);
  const double fused_hint =
      info_.head_fusion ? info_.avg_qlen_hint * (info_.num_qo_heads / info_.num_kv_heads)
                        : info_.avg_qlen_hint;
  cfg_ = SelectKernelConfig(sim_.device(), fused_hint, info_.head_dim,
                            DTypeBytes(info_.kv_dtype), info_.sparse);
  cfg_.head_fusion = info_.head_fusion;
  kernel_ = GetBuiltinKernel(info_.variant, info_.kv_dtype);
  use_softmax_ = info_.variant != VariantKind::kSigmoid;
  variant_params_.num_qo_heads = info_.num_qo_heads;

  // Persistent grid: one CTA per SM (Appendix D.3: k is 1 on Hopper and at
  // most 2 on Ampere; k=1 also maximizes the chunk size Lkv, which keeps the
  // LPT assignment balanced when work units are many).
  num_ctas_ = sim_.device().num_sms;
  workspace_->Bind(info_.head_dim);
}

void BatchAttentionHandle::SetKernel(WorkItemFn fn, bool use_softmax) {
  FI_CHECK(fn != nullptr);
  kernel_ = fn;
  use_softmax_ = use_softmax;
}

void BatchAttentionHandle::Plan(const sparse::BsrMatrix* bsr, std::vector<int64_t> qo_indptr,
                                std::vector<int64_t> kv_len) {
  FI_CHECK(bsr != nullptr);
  FI_CHECK_EQ(bsr->br, cfg_.tile_q);
  const uint64_t sig = HashLens(qo_indptr, kv_len, bsr, bsr->Nnz());
  if (plan_.has_value() && sig == plan_signature_ && bsr == bsr_) {
    ++plan_cache_hits_;
    return;
  }
  bsr_ = bsr;
  qo_indptr_ = std::move(qo_indptr);
  kv_len_ = std::move(kv_len);
  plan_signature_ = sig;

  const AttentionParams p = PlannedParams();  // Causal flag trims dead KV.
  switch (info_.scheduler) {
    case SchedulerKind::kBalanced:
      plan_ = MakeBalancedPlan(p, cfg_, num_ctas_, workspace_->MaxPartialRows());
      break;
    case SchedulerKind::kNaive:
      plan_ = MakeNaivePlan(p, cfg_);
      break;
    case SchedulerKind::kFixedSplit:
      plan_ = MakeFixedSplitPlan(p, cfg_, num_ctas_, kFixedSplits,
                                 workspace_->MaxPartialRows());
      break;
  }
  auto_l2_fraction_ = IntraBatchKvReuseFraction(p);
}

AttentionParams BatchAttentionHandle::PlannedParams() const {
  AttentionParams p;
  p.bsr = bsr_;
  p.qo_indptr = qo_indptr_;
  p.kv_len = kv_len_;
  p.num_qo_heads = info_.num_qo_heads;
  p.num_kv_heads = info_.num_kv_heads;
  p.head_dim = info_.head_dim;
  p.head_fusion = info_.head_fusion;
  p.variant = variant_params_;
  return p;
}

gpusim::SimReport BatchAttentionHandle::Run(const RaggedTensor& q, const PagedKVCache& kv,
                                            RaggedTensor* o, std::vector<float>* lse) {
  FI_CHECK(plan_.has_value());
  FI_CHECK(o != nullptr);
  AttentionParams p = PlannedParams();
  p.q = &q;
  p.o = o;
  p.lse = lse;
  p.kv = &kv;

  CostContext cc;
  cc.dev = &sim_.device();
  cc.kv_bytes = DTypeBytes(info_.kv_dtype);
  cc.eff = EfficiencyModel(sim_.device(), cfg_, info_.head_dim, cc.kv_bytes);
  cc.kv_l2_fraction = auto_l2_fraction_;

  PartialSink sink{workspace_->PartialO(), workspace_->PartialLse()};
  const auto& plan = *plan_;
  const auto occ = OccupancyModel(sim_.device(), cfg_, info_.head_dim, cc.kv_bytes);
  const auto shape = ResidencyModel(sim_.device(), occ, plan.NumCtas());
  cc.slots = shape.slots;
  cc.eff.mem *= shape.mem_scale;

  gpusim::SimReport report = sim_.Launch(
      plan.NumCtas(), gpusim::Occupancy{shape.resident}, [&](int cta, gpusim::CtaCost& cost) {
        for (const auto& item : plan.cta_queues[static_cast<size_t>(cta)]) {
          kernel_(p, cfg_, item, sink, &cost, &cc);
        }
      });

  if (!plan.rmap.Empty()) {
    report.Append(RunContraction(p, plan.rmap, sink, use_softmax_, &sim_, &cc));
  }
  return report;
}

void BatchAttentionHandle::CaptureRun(gpusim::CudaGraph& graph, const std::string& slot,
                                      const RaggedTensor& q, const PagedKVCache& kv,
                                      RaggedTensor* o, std::vector<float>* lse) {
  graph.AddLaunch(slot,
                  {static_cast<const void*>(q.data.data()), static_cast<const void*>(o),
                   static_cast<const void*>(&kv), workspace_->Base()},
                  [this, &q, &kv, o, lse] { return Run(q, kv, o, lse); });
}

}  // namespace flashinfer

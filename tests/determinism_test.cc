// Determinism guarantees (Sec. 3.3.1): LLM serving requires deterministic
// outputs, so FlashInfer avoids atomic aggregation — identical sequence
// lengths must produce identical plans and BIT-IDENTICAL outputs, regardless
// of thread scheduling in the executor.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/batch_handle.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using test::MakeProblem;
using test::ProblemSpec;

ProblemSpec Spec() {
  ProblemSpec spec;
  spec.qo_lens = {1, 1, 1, 1};
  spec.kv_lens = {900, 17, 333, 61};  // Forces splitting + merging.
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 2;
  spec.head_dim = 16;
  spec.page_size = 4;
  return spec;
}

std::vector<float> RunOnce(SchedulerKind kind, uint64_t seed) {
  auto spec = Spec();
  spec.seed = seed;
  Workspace ws(Workspace::EstimateBytes(512, 64, spec.head_dim));
  BatchAttentionHandle::TaskInfo info;
  info.kv_dtype = spec.kv_dtype;
  info.num_qo_heads = spec.num_qo_heads;
  info.num_kv_heads = spec.num_kv_heads;
  info.head_dim = spec.head_dim;
  info.scheduler = kind;
  BatchAttentionHandle handle(gpusim::H100Sxm80GB(), info, &ws);
  spec.tile_q = handle.config().tile_q;
  auto prob = MakeProblem(spec);
  handle.MutableVariantParams() = prob.Params().variant;
  handle.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  handle.Run(prob.q, *prob.kv, &prob.o, &prob.lse);
  return prob.o.data;
}

TEST(Determinism, RepeatedRunsBitIdentical) {
  // The thread pool executes CTAs in arbitrary order; the merge order is
  // fixed by the reduction map, so floating-point results cannot wobble.
  const auto a = RunOnce(SchedulerKind::kBalanced, 7);
  for (int trial = 0; trial < 5; ++trial) {
    const auto b = RunOnce(SchedulerKind::kBalanced, 7);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "element " << i << " trial " << trial;
    }
  }
}

TEST(Determinism, FixedSplitAlsoBitIdentical) {
  const auto a = RunOnce(SchedulerKind::kFixedSplit, 11);
  const auto b = RunOnce(SchedulerKind::kFixedSplit, 11);
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Determinism, PlanIdenticalForIdenticalLengths) {
  // Two handles fed the same sequence lengths build identical work queues
  // (the paper: "deterministic aggregation order when provided with
  // identical sequence length information").
  auto spec = Spec();
  Workspace ws1(Workspace::EstimateBytes(512, 64, spec.head_dim));
  Workspace ws2(Workspace::EstimateBytes(512, 64, spec.head_dim));
  BatchAttentionHandle::TaskInfo info;
  info.kv_dtype = spec.kv_dtype;
  info.num_qo_heads = spec.num_qo_heads;
  info.num_kv_heads = spec.num_kv_heads;
  info.head_dim = spec.head_dim;
  BatchAttentionHandle h1(gpusim::H100Sxm80GB(), info, &ws1);
  BatchAttentionHandle h2(gpusim::H100Sxm80GB(), info, &ws2);
  spec.tile_q = h1.config().tile_q;
  auto prob = MakeProblem(spec);
  h1.MutableVariantParams() = prob.Params().variant;
  h2.MutableVariantParams() = prob.Params().variant;
  h1.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  h2.Plan(&prob.bsr, prob.qo_indptr, spec.kv_lens);
  const auto& p1 = h1.plan();
  const auto& p2 = h2.plan();
  ASSERT_EQ(p1.cta_queues.size(), p2.cta_queues.size());
  for (size_t c = 0; c < p1.cta_queues.size(); ++c) {
    ASSERT_EQ(p1.cta_queues[c].size(), p2.cta_queues[c].size());
    for (size_t i = 0; i < p1.cta_queues[c].size(); ++i) {
      EXPECT_EQ(p1.cta_queues[c][i].kv_begin, p2.cta_queues[c][i].kv_begin);
      EXPECT_EQ(p1.cta_queues[c][i].dest, p2.cta_queues[c][i].dest);
    }
  }
  EXPECT_EQ(p1.rmap.slots, p2.rmap.slots);
}

}  // namespace
}  // namespace flashinfer

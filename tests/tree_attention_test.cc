// Tree attention for speculative decoding (Sec. 3.1.1: "sparse matrices can
// also effectively represent ... Tree Attentions"). A draft tree's tokens
// attend to their ancestors only; the mask lowers to a BSR over the KV slots
// and runs through the standard kernels unchanged.
#include <gtest/gtest.h>

#include "core/microkernel.h"
#include "core/reference.h"
#include "test_util.h"

namespace flashinfer {
namespace {

// Tree:  0 ─┬─ 1 ─┬─ 2
//           │     └─ 3
//           └─ 4 ─── 5
// Token i attends to its ancestors and itself.
const std::vector<std::vector<int>> kAncestors = {
    {0}, {0, 1}, {0, 1, 2}, {0, 1, 3}, {0, 4}, {0, 4, 5}};

std::vector<std::vector<bool>> TreeMask() {
  std::vector<std::vector<bool>> mask(6, std::vector<bool>(6, false));
  for (size_t i = 0; i < kAncestors.size(); ++i) {
    for (int a : kAncestors[i]) mask[i][static_cast<size_t>(a)] = true;
  }
  return mask;
}

TEST(TreeAttention, MaskLowersToBsr) {
  const auto bsr = sparse::BsrFromDenseMask(TreeMask(), 1, 1);
  bsr.Validate();
  // Nnz equals the number of (token, ancestor) pairs.
  int64_t expect = 0;
  for (const auto& a : kAncestors) expect += static_cast<int64_t>(a.size());
  EXPECT_EQ(bsr.Nnz(), expect);
}

TEST(TreeAttention, KernelMatchesReferenceOverTreeBsr) {
  // Build a cache holding the 6 tree tokens (page size 1 = vector sparse,
  // physical block id == token id) and run attention with the tree BSR.
  test::ProblemSpec spec;
  spec.qo_lens = {6};   // One query row per tree token.
  spec.kv_lens = {6};
  spec.num_qo_heads = 2;
  spec.num_kv_heads = 2;
  spec.head_dim = 8;
  spec.page_size = 1;
  spec.tile_q = 2;
  auto prob = test::MakeProblem(spec);

  auto tree_bsr = sparse::BsrFromDenseMask(TreeMask(), spec.tile_q, 1);
  // Remap column-block ids to the physical pages backing the tokens.
  const auto& pages = prob.kv->SequencePages(prob.seq_ids[0]);
  for (auto& idx : tree_bsr.indices) idx = pages[static_cast<size_t>(idx)];
  tree_bsr.num_col_blocks = prob.kv->max_pages();

  auto p = prob.Params();
  p.bsr = &tree_bsr;
  p.variant.causal = false;  // The mask IS the tree structure.
  KernelConfig cfg;
  cfg.tile_q = spec.tile_q;
  test::RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));

  auto ref = RaggedTensor::Zeros(prob.qo_indptr, prob.q.inner);
  ReferenceAttention<VanillaVariant>(p, &ref);
  EXPECT_LT(test::MaxAbsDiff(prob.o.data, ref.data), 1e-4f);
}

TEST(TreeAttention, BranchIsolation) {
  // Token 2 (branch A) and token 5 (branch B) must produce outputs
  // independent of the other branch's values: zeroing branch B's V must not
  // change token 2's output.
  test::ProblemSpec spec;
  spec.qo_lens = {6};
  spec.kv_lens = {6};
  spec.num_qo_heads = 1;
  spec.num_kv_heads = 1;
  spec.head_dim = 8;
  spec.page_size = 1;
  spec.tile_q = 1;
  auto prob = test::MakeProblem(spec);
  auto tree_bsr = sparse::BsrFromDenseMask(TreeMask(), 1, 1);
  const auto& pages = prob.kv->SequencePages(prob.seq_ids[0]);
  for (auto& idx : tree_bsr.indices) idx = pages[static_cast<size_t>(idx)];
  tree_bsr.num_col_blocks = prob.kv->max_pages();

  auto p = prob.Params();
  p.bsr = &tree_bsr;
  p.variant.causal = false;
  KernelConfig cfg;
  cfg.tile_q = 1;
  test::RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  std::vector<float> token2_before(prob.o.Row(2).begin(), prob.o.Row(2).end());

  // Zero V of tokens 4 and 5 (branch B).
  std::vector<float> zeros(static_cast<size_t>(spec.head_dim), 0.0f);
  for (int t : {4, 5}) {
    std::vector<float> k(static_cast<size_t>(spec.head_dim));
    for (int d = 0; d < spec.head_dim; ++d) {
      k[static_cast<size_t>(d)] = prob.kv->KAt(pages[static_cast<size_t>(t)], 0, 0, d);
    }
    prob.kv->SetToken(pages[static_cast<size_t>(t)], 0, k.data(), zeros.data());
  }
  test::RunSerial(p, cfg, GetBuiltinKernel(VariantKind::kVanilla, DType::kF32));
  for (int d = 0; d < spec.head_dim; ++d) {
    EXPECT_FLOAT_EQ(prob.o.Row(2)[static_cast<size_t>(d)],
                    token2_before[static_cast<size_t>(d)]);
  }
  // Token 5's own output did change (it attends to branch B).
  float diff5 = 0;
  for (int d = 0; d < spec.head_dim; ++d) diff5 += std::fabs(prob.o.Row(5)[static_cast<size_t>(d)]);
  EXPECT_GT(diff5, 0.0f);  // Still nonzero (root's V contributes).
}

}  // namespace
}  // namespace flashinfer

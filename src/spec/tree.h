// Draft-token trees for speculative decoding (Sec. 3.1.1: "sparse matrices
// can also effectively represent ... Tree Attentions").
//
// A draft model proposes a b-ary tree of candidate continuations: level l
// holds b^l candidate tokens, each extending one candidate at level l-1.
// `branching == 1` degenerates to the classic linear-chain draft. The target
// model verifies every tree token in ONE batched step: token i attends to
// the committed context plus its ancestors within the tree — an attention
// mask that lowers to BSR (sparse::BsrFromDenseMask) and runs through the
// standard kernels unchanged, which is exactly the customizability claim
// this subsystem exercises end to end.
#pragma once

#include <vector>

#include "sparse/bsr.h"
#include "util/rng.h"

namespace flashinfer::spec {

struct TreeConfig {
  /// Tree depth: the maximum number of draft tokens on any root-to-leaf path.
  int depth = 4;
  /// Children per node. 1 = linear chain draft.
  int branching = 1;
};

/// A materialized draft tree. Nodes are numbered in level order (level 1
/// first); node 0's parent is -1 (it extends the committed context).
class DraftTree {
 public:
  explicit DraftTree(const TreeConfig& cfg);

  int Size() const noexcept { return static_cast<int>(parent_.size()); }
  int Depth() const noexcept { return cfg_.depth; }
  int Branching() const noexcept { return cfg_.branching; }
  int Parent(int node) const { return parent_.at(static_cast<size_t>(node)); }
  /// 1-based level of a node.
  int Level(int node) const { return level_.at(static_cast<size_t>(node)); }
  /// Nodes at a given 1-based level (= branching^level).
  int LevelWidth(int level) const;
  /// Token count of one top-level subtree (the tree splits into `branching`
  /// of them); Size() == branching * SubtreeSize() for branching >= 1.
  int SubtreeSize() const { return Size() / cfg_.branching; }

  /// Dense ancestor mask: mask[i][j] == true iff j is i or an ancestor of i.
  /// This is the per-request tree-attention mask over the speculative tail.
  std::vector<std::vector<bool>> AncestorMask() const;

 private:
  TreeConfig cfg_;
  std::vector<int> parent_;
  std::vector<int> level_;
};

/// Lowers the tree's ancestor mask to a vector-sparse BSR (bc = 1) in the
/// fused-row space: each token's mask row is repeated `group` times (GQA
/// head-group fusion) and tiled at `tile_q`. Column j is tail slot j.
sparse::BsrMatrix TreeMaskBsr(const DraftTree& tree, int tile_q, int group);

/// Samples the number of draft tokens the target model accepts, in
/// [0, depth]: at every level each of the `branching` candidates matches the
/// target's token independently with probability `accept_prob`, the level
/// succeeds when any candidate matches, and verification walks down from the
/// last accepted node. Chain drafts reduce to P(len >= k) = p^k.
int SampleAcceptedLen(Rng& rng, const DraftTree& tree, double accept_prob);

/// Closed-form expectation of SampleAcceptedLen (bench/table sanity checks).
double ExpectedAcceptedLen(const DraftTree& tree, double accept_prob);

}  // namespace flashinfer::spec

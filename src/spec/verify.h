// Target-model verification pricing for speculative decoding.
//
// One verify step runs the target model once over every draft-tree token of
// every running branch. Its attention decomposes exactly like the paper's
// composable formats (Sec. 3.1.2):
//
//   level 0 — every tree token attends the branch's full committed context
//             (paged KV, dense blocks, no causal trimming: all tree tokens
//             see all of it);
//   level 1 — tree tokens attend their ancestors among the draft tokens: the
//             ancestor mask, lowered once through TreeMaskBsr at bc = 1
//             (vector sparse) to one branch's block rows, repeated once per
//             branch;
//   merge   — the contraction kernel combines both levels' partial states.
//
// serving::VerifyAttentionTimeUs (the engine's per-step price) and
// serving::SimulateVerifyAttention (its full report) run both levels through
// the backend's REAL scheduler and the kernel cost model, the one pricer
// every other launch takes, so verify cost reflects actual tree-attention
// kernel work — batch mix, KV lengths and mask sparsity all move the number
// — rather than a flat per-token estimate. No BSR is built per step.
#pragma once

#include "serving/backends.h"
#include "spec/tree.h"

namespace flashinfer::spec {

/// Lowers `tree`'s ancestor mask to one branch's verify block rows, in the
/// fused-row space of `backend` and the head geometry of `geometry`: each
/// token's row repeated by the GQA group under head fusion, tiled at the
/// query tile the kernel heuristic picks for Size() x group fused rows.
serving::MaskRows LowerVerifyMask(const DraftTree& tree, const serving::BackendConfig& backend,
                                  const serving::AttnSimInput& geometry);

}  // namespace flashinfer::spec

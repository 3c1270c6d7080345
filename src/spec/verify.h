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
//             ancestor mask lowered through sparse::BsrFromDenseMask at
//             bc = 1 (vector sparse), replicated block-diagonally across the
//             batch;
//   merge   — the contraction kernel combines both levels' partial states.
//
// Both levels run through the backend's REAL scheduler and the kernel cost
// model (SimulateBatchAttention / SimulateMaskedAttention), so verify cost
// reflects actual tree-attention kernel work — batch mix, KV lengths and
// mask sparsity all move the number — rather than a flat per-token estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "serving/backends.h"
#include "spec/tree.h"

namespace flashinfer::spec {

/// Prices tree-verification attention launches for a fixed (device, backend,
/// head geometry, tree) tuple — everything that is invariant across engine
/// steps, notably the lowered tree-mask BSR, is computed once at
/// construction; only the batch replication and scheduling run per call.
class VerifyPricer {
 public:
  VerifyPricer(const gpusim::DeviceSpec& dev, const serving::BackendConfig& backend,
               const serving::AttnSimInput& geometry, const DraftTree& tree);

  /// Prices ONE per-layer verify launch for a batch of branches with
  /// committed KV lengths `context_lens` (tree tokens excluded). The caller
  /// multiplies by the layer count, exactly as the serving engine's
  /// plan-cache reuse does for vanilla steps.
  gpusim::SimReport Price(const std::vector<int64_t>& context_lens) const;

 private:
  gpusim::DeviceSpec dev_;
  serving::BackendConfig backend_;
  serving::AttnSimInput geometry_;
  int tree_size_;
  /// One request's fused-row ancestor-mask BSR at the selected tile.
  sparse::BsrMatrix unit_bsr_;
};

/// Convenience one-shot wrapper around VerifyPricer (tests, exploratory
/// pricing); engines should hold a VerifyPricer instead.
gpusim::SimReport PriceVerifyAttention(const gpusim::DeviceSpec& dev,
                                       const serving::BackendConfig& backend,
                                       const serving::AttnSimInput& in,
                                       const std::vector<int64_t>& context_lens,
                                       const DraftTree& tree);

}  // namespace flashinfer::spec

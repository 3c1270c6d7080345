#include "spec/verify.h"

#include "core/tile_heuristics.h"

namespace flashinfer::spec {

serving::MaskRows LowerVerifyMask(const DraftTree& tree, const serving::BackendConfig& backend,
                                  const serving::AttnSimInput& geometry) {
  const int g = backend.head_fusion ? geometry.num_qo_heads / geometry.num_kv_heads : 1;
  const int tile_q = SelectQueryTileSize(static_cast<double>(tree.Size()) * g);
  return serving::MaskRowsFromBsr(TreeMaskBsr(tree, tile_q, g), tree.Size());
}

}  // namespace flashinfer::spec

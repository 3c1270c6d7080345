#include "core/tile_heuristics.h"

#include <algorithm>

namespace flashinfer {

namespace {

constexpr int kQueryTiles[] = {1, 16, 32, 64, 128};
constexpr int kKvTiles[] = {32, 64, 128};

/// Tensor-pipeline utilization vs query tile size (row dimension of the MMA).
double TileComputeFactor(int tile_q) noexcept {
  if (tile_q >= 128) return 1.0;
  if (tile_q >= 64) return 0.93;
  if (tile_q >= 32) return 0.82;
  if (tile_q >= 16) return 0.68;
  return 0.25;  // CUDA-core template (Sec. 3.2.3: query tile 1).
}

}  // namespace

int SelectQueryTileSize(double avg_fused_qlen) noexcept {
  for (int t : kQueryTiles) {
    if (static_cast<double>(t) >= avg_fused_qlen) return t;
  }
  return 128;
}

int64_t SmemBytes(const KernelConfig& cfg, int head_dim, int kv_bytes) noexcept {
  const int64_t q_bytes = static_cast<int64_t>(cfg.tile_q) * head_dim * 2;  // fp16 Q tile.
  const int64_t kv_tile_bytes =
      2LL * cfg.tile_kv * head_dim * kv_bytes;  // K + V tiles.
  const int stages = 2;  // Double buffering (cp.async / TMA pipelines).
  return q_bytes + stages * kv_tile_bytes;
}

gpusim::Occupancy OccupancyModel(const gpusim::DeviceSpec& dev, const KernelConfig& cfg,
                                 int head_dim, int kv_bytes) noexcept {
  const int64_t smem = SmemBytes(cfg, head_dim, kv_bytes);
  const int64_t budget = static_cast<int64_t>(dev.smem_per_sm_kb) * 1024;
  int ctas = static_cast<int>(budget / std::max<int64_t>(smem, 1));
  // Register pressure bounds large tiles well before shared memory does.
  if (cfg.tile_q >= 128) ctas = std::min(ctas, 1);
  if (cfg.tile_q >= 64) ctas = std::min(ctas, 2);
  ctas = std::clamp(ctas, 1, 4);
  return gpusim::Occupancy{ctas};
}

double MemoryParallelismFactor(int resident) noexcept {
  switch (resident) {
    case 0:
    case 1:
      return 0.62;
    case 2:
      return 0.86;
    case 3:
      return 0.95;
    default:
      return 1.0;
  }
}

LaunchShape ResidencyModel(const gpusim::DeviceSpec& dev, const gpusim::Occupancy& occ,
                           int64_t grid_ctas) noexcept {
  LaunchShape shape;
  const int64_t per_sm = (grid_ctas + dev.num_sms - 1) / std::max(1, dev.num_sms);
  shape.resident = static_cast<int>(
      std::clamp<int64_t>(per_sm, 1, std::max(1, occ.ctas_per_sm)));
  shape.slots = dev.num_sms * shape.resident;
  // The derating tracks the kernel's occupancy *capability*, not the grid: a
  // persistent CTA with a deep work queue keeps its load pipeline full, while
  // a resource-maximal CTA (occupancy 1) cannot, however many exist.
  shape.mem_scale = MemoryParallelismFactor(occ.ctas_per_sm);
  return shape;
}

gpusim::KernelEfficiency EfficiencyModel(const gpusim::DeviceSpec& dev, const KernelConfig& cfg,
                                         int /*head_dim*/, int /*kv_bytes*/) noexcept {
  gpusim::KernelEfficiency eff;
  const bool fa3 = cfg.tmpl == gpusim::TemplateGen::kFA3;

  // --- Memory lane (calibrated to Fig. 12 bottom: ~84% both paths).
  // Residency derating (MemoryParallelismFactor) is applied per launch via
  // ResidencyModel, not here.
  double mem = 0.85;
  if (fa3 && !cfg.sparse && dev.has_tma) mem = 0.93;      // TMA bulk copies.
  else if (fa3) mem = 0.88;                               // cp.async fallback.
  if (cfg.sparse) mem -= 0.005;  // Pointer-chasing gather (within 1% of dense).
  eff.mem = mem;

  // --- Tensor lane (calibrated to Fig. 12 top: FA3 dense 627, sparse 532;
  // FA2-on-Hopper dense 370, sparse 347 TFLOPs at the largest shape). ------
  double base = fa3 ? 0.65 : 0.60;
  if (!fa3 && dev.max_template == gpusim::TemplateGen::kFA3) {
    // FA2 template running on Hopper: no WGMMA/TMA, large peak gap.
    base *= 0.64;
  }
  double compute = base * TileComputeFactor(cfg.tile_q);
  if (cfg.sparse) compute *= fa3 ? 0.85 : 0.94;  // Appendix B register pressure.
  eff.compute = compute;

  eff.l2 = 0.8;
  return eff;
}

KernelConfig SelectKernelConfig(const gpusim::DeviceSpec& dev, double avg_fused_qlen,
                                int head_dim, int kv_bytes, bool sparse) noexcept {
  KernelConfig cfg;
  cfg.sparse = sparse;
  cfg.tmpl = dev.max_template;
  cfg.tile_q = SelectQueryTileSize(avg_fused_qlen);
  if (cfg.tmpl == gpusim::TemplateGen::kFA3 && cfg.tile_q < 64) {
    // Hopper WGMMA requires row tiles that are multiples of 64, so short
    // query tiles (decode, small GQA fusions) run the FA2 template instead —
    // matching FlashInfer's decode path on Hopper.
    cfg.tmpl = gpusim::TemplateGen::kFA2;
  }
  // Largest KV tile that keeps at least 2 CTAs per SM resident (1 for the
  // biggest query tiles, which are compute-bound anyway).
  const int min_occ = cfg.tile_q >= 64 ? 1 : 2;
  cfg.tile_kv = kKvTiles[0];
  for (int tkv : kKvTiles) {
    KernelConfig trial = cfg;
    trial.tile_kv = tkv;
    if (OccupancyModel(dev, trial, head_dim, kv_bytes).ctas_per_sm >= min_occ) {
      cfg.tile_kv = tkv;
    }
  }
  if (cfg.tmpl == gpusim::TemplateGen::kFA3 && sparse) {
    // Appendix B: sparse gather on Hopper needs smaller KV tiles to avoid
    // register spilling.
    cfg.tile_kv = std::min(cfg.tile_kv, 64);
  }
  return cfg;
}

}  // namespace flashinfer

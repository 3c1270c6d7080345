// Roofline cost accounting for simulated CTAs.
//
// Each work item (one query tile × one KV chunk of the attention kernel, or
// one merge row of the contraction kernel) charges bytes and flops to its
// CTA. The per-item time is the roofline max of the three lanes it can be
// bound by: HBM traffic, L2 traffic (reuse hits), and compute. A fixed
// per-item overhead models pipeline fill / scheduling.
#pragma once

#include <algorithm>
#include <vector>

#include "gpusim/device.h"

namespace flashinfer::gpusim {

/// Efficiency knobs for a particular kernel instantiation. These model how
/// well a given template generation / tile configuration converts peak
/// machine rates into achieved rates (values in (0, 1]).
struct KernelEfficiency {
  /// Fraction of HBM peak achieved by this kernel's global access pattern.
  double mem = 0.85;
  /// Fraction of tensor-core peak achieved by this tile configuration.
  double compute = 0.6;
  /// Fraction of L2 peak achieved.
  double l2 = 0.8;
};

/// Byte/flop charges for one work item.
struct WorkCost {
  double hbm_bytes = 0.0;
  double l2_bytes = 0.0;
  double tensor_flops = 0.0;
  double cuda_flops = 0.0;  // Softmax exponentials, reductions, scalar ops.
};

/// Converts a WorkCost into microseconds on `dev` under `eff` for one CTA
/// that shares the device with `slots - 1` other concurrently resident CTAs.
/// Device-wide rates (HBM, L2, tensor, CUDA cores) are shared resources, so
/// each CTA's achievable rate is the device rate divided by the concurrent
/// slot count — with balanced work this reproduces time = total/BW, and with
/// imbalance the straggler CTA stalls the kernel while the device idles,
/// which is exactly the utilization collapse of Fig. 8's skewed workloads.
/// `kv_bytes_per_elem` selects the tensor throughput tier (fp8 vs fp16).
/// `overhead_us` < 0 selects the device's default per-item overhead
/// (attention tiles: software-pipeline fill). Lightweight items such as
/// contraction merge rows pass their own smaller constant.
inline double WorkItemTimeUs(const DeviceSpec& dev, const KernelEfficiency& eff,
                             const WorkCost& c, int kv_bytes_per_elem = 2, int slots = 1,
                             double overhead_us = -1.0) noexcept {
  const double share = slots < 1 ? 1.0 : static_cast<double>(slots);
  const double t_hbm = c.hbm_bytes * share / (dev.hbm_gbps * eff.mem * 1e3);
  const double t_l2 = c.l2_bytes * share / (dev.l2_gbps * eff.l2 * 1e3);
  const double t_tc = c.tensor_flops * share /
                      (dev.TensorTflops(kv_bytes_per_elem) * eff.compute * 1e6);
  const double t_cuda = c.cuda_flops * share / (dev.fp32_tflops * 1e6);
  // Units: bytes / (GB/s * 1e3) = bytes / (bytes/us) = us;
  //        flops / (TFLOP/s * 1e6) = flops / (flops/us) = us.
  if (overhead_us < 0.0) overhead_us = dev.work_item_overhead_us;
  return std::max(std::max(t_hbm, t_l2), std::max(t_tc, t_cuda)) + overhead_us;
}

/// Per-merge-row overhead of the contraction kernel (simple vector math,
/// no MMA pipeline to fill).
inline constexpr double kMergeRowOverheadUs = 0.05;

/// Accumulated execution state of one simulated CTA.
struct CtaCost {
  double time_us = 0.0;
  WorkCost total;

  void Charge(const DeviceSpec& dev, const KernelEfficiency& eff, const WorkCost& c,
              int kv_bytes_per_elem = 2, int slots = 1, double overhead_us = -1.0) noexcept {
    Add(WorkItemTimeUs(dev, eff, c, kv_bytes_per_elem, slots, overhead_us), c);
  }

  /// Charges an item whose time the caller already converted.
  void Add(double item_us, const WorkCost& c) noexcept {
    time_us += item_us;
    total.hbm_bytes += c.hbm_bytes;
    total.l2_bytes += c.l2_bytes;
    total.tensor_flops += c.tensor_flops;
    total.cuda_flops += c.cuda_flops;
  }
};

/// Result of simulating one kernel launch.
struct SimReport {
  /// Kernel wall time (makespan over SMs + launch overhead), microseconds.
  double time_us = 0.0;
  double total_hbm_bytes = 0.0;
  double total_l2_bytes = 0.0;
  double total_tensor_flops = 0.0;
  double total_cuda_flops = 0.0;
  int num_ctas = 0;
  std::vector<double> cta_time_us;

  /// Achieved fraction of peak HBM bandwidth (the paper's Figure 8 metric).
  double BandwidthUtil(const DeviceSpec& dev) const noexcept {
    if (time_us <= 0.0) return 0.0;
    return total_hbm_bytes / (dev.hbm_gbps * 1e3 * time_us);
  }

  /// Achieved fraction of tensor-core peak (Figure 8 prefill metric).
  double FlopsUtil(const DeviceSpec& dev, int kv_bytes_per_elem = 2) const noexcept {
    if (time_us <= 0.0) return 0.0;
    return total_tensor_flops / (dev.TensorTflops(kv_bytes_per_elem) * 1e6 * time_us);
  }

  /// Achieved tensor TFLOP/s (the paper's Tables 1-4 / Fig. 12 metric).
  double AchievedTflops() const noexcept {
    if (time_us <= 0.0) return 0.0;
    return total_tensor_flops / (time_us * 1e6);
  }

  /// Merges a second launch that runs back-to-back with this one.
  void Append(const SimReport& other) {
    time_us += other.time_us;
    total_hbm_bytes += other.total_hbm_bytes;
    total_l2_bytes += other.total_l2_bytes;
    total_tensor_flops += other.total_tensor_flops;
    total_cuda_flops += other.total_cuda_flops;
    num_ctas = std::max(num_ctas, other.num_ctas);
  }
};

}  // namespace flashinfer::gpusim

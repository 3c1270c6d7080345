#include "gpusim/executor.h"

#include <algorithm>
#include <queue>

#include "util/check.h"
#include "util/threadpool.h"

namespace flashinfer::gpusim {

double SimExecutor::Makespan(const std::vector<double>& cta_times, int slots) noexcept {
  if (slots < 1) slots = 1;
  const size_t n = cta_times.size();
  if (n <= static_cast<size_t>(slots)) {
    // The grid fits: every CTA starts at 0.0 on a slot of its own. Four
    // independent max lanes: the max does not depend on the order.
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (size_t j = 0; j < 4; ++j) lane[j] = std::max(lane[j], cta_times[i + j]);
    }
    for (; i < n; ++i) lane[0] = std::max(lane[0], cta_times[i]);
    return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
  }
  // Min-heap of slot-free times; CTAs issue in grid order (hardware order).
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int i = 0; i < slots; ++i) free_at.push(0.0);
  double makespan = 0.0;
  for (double t : cta_times) {
    const double start = free_at.top();
    free_at.pop();
    const double end = start + t;
    free_at.push(end);
    if (end > makespan) makespan = end;
  }
  return makespan;
}

SimReport SimExecutor::Launch(int num_ctas, const Occupancy& occ,
                              const std::function<void(int, CtaCost&)>& body) const {
  FI_CHECK_GE(num_ctas, 0);
  SimReport report;
  report.num_ctas = num_ctas;
  if (num_ctas == 0) {
    report.time_us = dev_.kernel_launch_us;
    return report;
  }

  std::vector<CtaCost> costs(static_cast<size_t>(num_ctas));
  ThreadPool::Global().ParallelFor(num_ctas, [&](int64_t cta) {
    body(static_cast<int>(cta), costs[static_cast<size_t>(cta)]);
  });

  report.cta_time_us.reserve(costs.size());
  for (const auto& c : costs) {
    report.cta_time_us.push_back(c.time_us);
    report.total_hbm_bytes += c.total.hbm_bytes;
    report.total_l2_bytes += c.total.l2_bytes;
    report.total_tensor_flops += c.total.tensor_flops;
    report.total_cuda_flops += c.total.cuda_flops;
  }
  const int slots = dev_.num_sms * std::max(1, occ.ctas_per_sm);
  report.time_us = Makespan(report.cta_time_us, slots) + dev_.kernel_launch_us;
  return report;
}

}  // namespace flashinfer::gpusim

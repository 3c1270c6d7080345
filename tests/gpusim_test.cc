#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "gpusim/cost.h"
#include "gpusim/device.h"
#include "gpusim/executor.h"
#include "gpusim/graph.h"
#include "util/rng.h"

namespace flashinfer::gpusim {
namespace {

TEST(Device, Presets) {
  const auto h100 = H100Sxm80GB();
  EXPECT_EQ(h100.num_sms, 132);
  EXPECT_TRUE(h100.has_tma);
  EXPECT_EQ(h100.max_template, TemplateGen::kFA3);
  const auto a100 = A100Sxm40GB();
  EXPECT_EQ(a100.num_sms, 108);
  EXPECT_FALSE(a100.has_tma);
  // FP8 doubles tensor throughput only on Hopper.
  EXPECT_DOUBLE_EQ(h100.TensorTflops(1), 2.0 * h100.fp16_tflops);
  EXPECT_DOUBLE_EQ(a100.TensorTflops(1), a100.fp16_tflops);
}

TEST(Cost, RooflineMemoryBound) {
  const auto dev = A100Sxm40GB();
  KernelEfficiency eff{1.0, 1.0, 1.0};
  WorkCost wc;
  wc.hbm_bytes = 1555.0 * 1e3;  // Exactly 1 us at peak.
  const double t = WorkItemTimeUs(dev, eff, wc);
  EXPECT_NEAR(t, 1.0 + dev.work_item_overhead_us, 1e-9);
}

TEST(Cost, RooflineComputeBound) {
  const auto dev = A100Sxm40GB();
  KernelEfficiency eff{1.0, 1.0, 1.0};
  WorkCost wc;
  wc.tensor_flops = 312.0 * 1e6;  // Exactly 1 us at fp16 peak.
  wc.hbm_bytes = 100.0;           // Negligible.
  const double t = WorkItemTimeUs(dev, eff, wc);
  EXPECT_NEAR(t, 1.0 + dev.work_item_overhead_us, 1e-9);
}

TEST(Cost, MaxOfLanesNotSum) {
  const auto dev = A100Sxm40GB();
  KernelEfficiency eff{1.0, 1.0, 1.0};
  WorkCost wc;
  wc.hbm_bytes = 1555.0 * 1e3;
  wc.tensor_flops = 312.0 * 1e6;
  EXPECT_NEAR(WorkItemTimeUs(dev, eff, wc), 1.0 + dev.work_item_overhead_us, 1e-9);
}

TEST(Makespan, SingleSlotSums) {
  EXPECT_DOUBLE_EQ(SimExecutor::Makespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(Makespan, PerfectlyParallel) {
  EXPECT_DOUBLE_EQ(SimExecutor::Makespan({2.0, 2.0, 2.0, 2.0}, 4), 2.0);
}

TEST(Makespan, GreedyListScheduling) {
  // CTAs issue in order: slot A gets 4, slot B gets 1 then 1, then the next
  // (2) goes to B (free at 2), giving makespan 4.
  EXPECT_DOUBLE_EQ(SimExecutor::Makespan({4.0, 1.0, 1.0, 2.0}, 2), 4.0);
}

TEST(Makespan, WaveQuantization) {
  // 5 equal CTAs on 4 slots: two waves -> 2x single-CTA time.
  EXPECT_DOUBLE_EQ(SimExecutor::Makespan(std::vector<double>(5, 3.0), 4), 6.0);
}

TEST(Makespan, UnderfilledGridTakesLongestCta) {
  // Fewer CTAs than slots, some idle: every CTA starts at once.
  EXPECT_EQ(SimExecutor::Makespan({0.0, 3.0, 0.0, 5.0, 1.0}, 8), 5.0);
  EXPECT_EQ(SimExecutor::Makespan({0.0, 0.0}, 4), 0.0);
  EXPECT_EQ(SimExecutor::Makespan({}, 4), 0.0);
}

TEST(Makespan, MatchesListSchedulingByScan) {
  // Issue order onto the earliest-free slot, found by a linear scan, over
  // grids below, at and above the slot count, with idle CTAs mixed in.
  Rng rng(0x3A4E5);
  for (int trial = 0; trial < 2000; ++trial) {
    const int slots = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<double> times(static_cast<size_t>(rng.UniformInt(0, 3 * slots)));
    for (auto& t : times) t = rng.NextDouble() < 0.2 ? 0.0 : rng.Uniform(0.0, 10.0);
    std::vector<double> free_at(static_cast<size_t>(slots), 0.0);
    double want = 0.0;
    for (double t : times) {
      double& slot = *std::min_element(free_at.begin(), free_at.end());
      slot += t;
      want = std::max(want, slot);
    }
    ASSERT_EQ(SimExecutor::Makespan(times, slots), want) << "trial " << trial;
  }
  // The serving grids (108 SMs on A100, 132 on H100) with 0-300 CTAs: the
  // fitting grids' max lanes and their tails, and the oversubscribed ones.
  for (int trial = 0; trial < 600; ++trial) {
    const int slots = rng.NextDouble() < 0.5 ? 108 : 132;
    std::vector<double> times(static_cast<size_t>(rng.UniformInt(0, 300)));
    for (auto& t : times) t = rng.NextDouble() < 0.2 ? 0.0 : rng.Uniform(0.0, 10.0);
    std::vector<double> free_at(static_cast<size_t>(slots), 0.0);
    double want = 0.0;
    for (double t : times) {
      double& slot = *std::min_element(free_at.begin(), free_at.end());
      slot += t;
      want = std::max(want, slot);
    }
    ASSERT_EQ(SimExecutor::Makespan(times, slots), want)
        << "serving-grid trial " << trial << ": " << times.size() << " CTAs on " << slots;
  }
}

TEST(Executor, RunsEveryCtaOnce) {
  SimExecutor sim(A100Sxm40GB());
  std::vector<std::atomic<int>> hits(64);
  const auto report = sim.Launch(64, Occupancy{2}, [&](int cta, CtaCost& cost) {
    hits[static_cast<size_t>(cta)]++;
    WorkCost wc;
    wc.hbm_bytes = 1000.0;
    cost.Charge(sim.device(), KernelEfficiency{}, wc);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(report.num_ctas, 64);
  EXPECT_DOUBLE_EQ(report.total_hbm_bytes, 64 * 1000.0);
  EXPECT_GT(report.time_us, 0.0);
}

TEST(Executor, MakespanDominatedByStraggler) {
  SimExecutor sim(A100Sxm40GB());
  const auto report = sim.Launch(8, Occupancy{1}, [&](int cta, CtaCost& cost) {
    WorkCost wc;
    wc.hbm_bytes = (cta == 3) ? 1e9 : 1e3;  // One straggler CTA.
    cost.Charge(sim.device(), KernelEfficiency{1.0, 1.0, 1.0}, wc);
  });
  // 1e9 bytes / 1555 GB/s = ~643 us dominates.
  EXPECT_NEAR(report.time_us, 1e9 / (1555.0 * 1e3) + sim.device().work_item_overhead_us +
                                  sim.device().kernel_launch_us,
              1.0);
}

TEST(Executor, UtilizationMetrics) {
  const auto dev = H100Sxm80GB();
  SimExecutor sim(dev);
  const auto report = sim.Launch(dev.num_sms, Occupancy{1}, [&](int, CtaCost& cost) {
    WorkCost wc;
    wc.hbm_bytes = 3350.0 * 1e3;  // 132 us of device traffic split over SMs.
    cost.Charge(dev, KernelEfficiency{1.0, 1.0, 1.0}, wc, 2, dev.num_sms);
  });
  // All SMs stream concurrently, sharing device bandwidth: utilization near
  // 1, diluted only by launch + per-item overhead. Never above 1.
  const double util = report.BandwidthUtil(dev);
  EXPECT_GT(util, 0.8);
  EXPECT_LE(util, 1.0);
}

TEST(Executor, ImbalanceWastesBandwidth) {
  // One CTA with all the work: the device idles while it streams at a
  // 1/slots share, so achieved bandwidth collapses.
  const auto dev = H100Sxm80GB();
  SimExecutor sim(dev);
  const auto report = sim.Launch(dev.num_sms, Occupancy{1}, [&](int cta, CtaCost& cost) {
    WorkCost wc;
    wc.hbm_bytes = (cta == 0) ? 3350.0 * 1e3 * 132 : 0.0;
    cost.Charge(dev, KernelEfficiency{1.0, 1.0, 1.0}, wc, 2, dev.num_sms);
  });
  EXPECT_LT(report.BandwidthUtil(dev), 0.05);
}

TEST(Graph, CaptureAndReplay) {
  CudaGraph graph;
  int launches = 0;
  graph.BeginCapture();
  int dummy_param = 0;
  graph.AddLaunch("layer0", {&dummy_param}, [&]() {
    ++launches;
    SimReport r;
    r.time_us = 5.0;
    return r;
  });
  graph.AddLaunch("layer1", {&dummy_param}, [&]() {
    ++launches;
    SimReport r;
    r.time_us = 7.0;
    return r;
  });
  graph.EndCapture();
  EXPECT_EQ(graph.num_nodes(), 2);

  const auto report = graph.Replay();
  EXPECT_EQ(launches, 2);
  EXPECT_DOUBLE_EQ(report.time_us, 12.0);
  graph.Replay();
  EXPECT_EQ(launches, 4);
}

TEST(Graph, ValidatesPointerStability) {
  CudaGraph graph;
  int a = 0, b = 0;
  graph.BeginCapture();
  graph.AddLaunch("k", {&a}, [] { return SimReport{}; });
  graph.EndCapture();
  EXPECT_TRUE(graph.ValidateSlot("k", {&a}));
  EXPECT_FALSE(graph.ValidateSlot("k", {&b}));   // Different pointer.
  EXPECT_FALSE(graph.ValidateSlot("x", {&a}));   // Unknown slot.
}

TEST(Graph, RecaptureResets) {
  CudaGraph graph;
  int a = 0;
  graph.BeginCapture();
  graph.AddLaunch("k", {&a}, [] { return SimReport{}; });
  graph.EndCapture();
  graph.BeginCapture();
  graph.EndCapture();
  EXPECT_EQ(graph.num_nodes(), 0);
}

}  // namespace
}  // namespace flashinfer::gpusim

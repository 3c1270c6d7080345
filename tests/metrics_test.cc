// Telemetry-plane unit tests: label keys, sliding-window accumulators
// (epoch ring expiry), registry instance identity, exposition
// schema (the JSON snapshot, parsed with the shared JSON machinery), and the
// cluster registry merge.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/metrics.h"
#include "serving/engine.h"
#include "test_util.h"
#include "util/json.h"

namespace flashinfer {
namespace {

using obs::ClassId;
using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Labels;
using obs::MetricsRegistry;
using obs::Sketch;
using obs::WindowConfig;
using obs::WindowedSketch;
using obs::WindowedSum;

// --- Labels ------------------------------------------------------------------

// A key spells its labels in key order (priority, replica, tenant) and the
// unassigned tenant as "-"; every tenant below -1 is the unassigned one.
TEST(Labels, KeySpellsClassAndReplicaInKeyOrder) {
  EXPECT_EQ(Labels::Class(2, 1).Key(), "priority=1,tenant=2");
  EXPECT_EQ(Labels::Class(-1, 0).Key(), "priority=0,tenant=-");
  EXPECT_EQ(Labels::Class(-7, 0), Labels::Class(-1, 0));
  EXPECT_EQ(Labels::Class(-7, 0).Key(), "priority=0,tenant=-");
  EXPECT_EQ(Labels::Class(0, -3).Key(), "priority=-3,tenant=0");
  EXPECT_EQ((Labels{ClassId(11, 2), 10}).Key(), "priority=2,replica=10,tenant=11");
  EXPECT_EQ((Labels{ClassId(-1, 2), 0}).Key(), "priority=2,replica=0,tenant=-");
  EXPECT_EQ(Labels::Replica(3).Key(), "replica=3");
  EXPECT_EQ(Labels{}.Key(), "");
  EXPECT_NE(Labels::Replica(0), Labels{});
  EXPECT_NE(Labels::Class(0, 0), Labels{});
}

// --- Sliding windows ---------------------------------------------------------

TEST(WindowedSum, ExpiresSlotsOutsideWindow) {
  WindowedSum w(/*window_s=*/10.0, /*slots=*/5);  // 2 s per slot.
  w.Add(1.0, 5.0);
  w.Add(3.0, 7.0);
  EXPECT_DOUBLE_EQ(w.Sum(3.0), 12.0);
  EXPECT_DOUBLE_EQ(w.Max(3.0), 7.0);
  EXPECT_EQ(w.Count(3.0), 2);
  EXPECT_DOUBLE_EQ(w.RatePerS(3.0), 1.2);
  // At t=11 the slot holding t=1 (epoch 0) has left the trailing window; the
  // slot holding t=3 (epoch 1) is still live.
  EXPECT_DOUBLE_EQ(w.Sum(11.0), 7.0);
  // By t=13 everything has expired.
  EXPECT_DOUBLE_EQ(w.Sum(13.0), 0.0);
  EXPECT_DOUBLE_EQ(w.Max(13.0), 0.0);
  EXPECT_EQ(w.Count(13.0), 0);
}

TEST(WindowedSum, RingReuseResetsStaleSlot) {
  WindowedSum w(10.0, 5);
  w.Add(0.5, 100.0);  // Epoch 0.
  w.Add(20.5, 1.0);   // Epoch 10 — same ring index, must reset the slot.
  EXPECT_DOUBLE_EQ(w.Sum(20.5), 1.0);
}

// The simulated clock starts at 0. An instant before it, or NaN, has no ring
// slot: every window instrument, and the registry's ring position, rejects
// it rather than writing outside its ring.
TEST(WindowDeathTest, RejectsNegativeAndNanTimes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const WindowConfig window{10.0, 5};
  EXPECT_DEATH(window.PosAt(-0.5), "t_s >= 0\\.0 \\(-0\\.5 vs 0\\)");
  EXPECT_DEATH(window.PosAt(-3.0), "t_s >= 0\\.0 \\(-3 vs 0\\)");
  EXPECT_DEATH(window.PosAt(nan), "t_s >= 0\\.0 \\(-?nan vs 0\\)");
  Counter c(window);
  EXPECT_DEATH(c.Inc(-0.5), "t_s >= 0\\.0 \\(-0\\.5 vs 0\\)");
  Gauge g(window);
  EXPECT_DEATH(g.Set(nan, 1.0), "t_s >= 0\\.0 \\(-?nan vs 0\\)");
  Sketch s(window);
  EXPECT_DEATH(s.Observe(-0.5, 1.0), "t_s >= 0\\.0 \\(-0\\.5 vs 0\\)");
  WindowedSum w(10.0, 5);
  EXPECT_DEATH(w.Add(nan, 1.0), "t_s >= 0\\.0 \\(-?nan vs 0\\)");
  MetricsRegistry reg(window);
  EXPECT_DEATH(reg.PosAt(nan), "t_s >= 0\\.0 \\(-?nan vs 0\\)");
}

TEST(WindowedSketch, MergedCoversOnlyLiveSlots) {
  WindowedSketch w(10.0, 5);
  w.Observe(1.0, 50.0);
  w.Observe(9.0, 150.0);
  EXPECT_EQ(w.Merged(9.0).Count(), 2);
  // t=1's slot expires by t=11; t=9's survives.
  const Histogram late = w.Merged(11.0);
  EXPECT_EQ(late.Count(), 1);
  EXPECT_DOUBLE_EQ(late.MaxValue(), 150.0);
  EXPECT_EQ(w.Merged(25.0).Count(), 0);
}

// A window slot's buckets are allocated by its first sample. Slots 3 and 4
// are first written after the ring has wrapped (epochs 8 and 9 of a 5-slot
// ring), and slot 0 is reused for epoch 10: each window counts only its own
// epochs' samples.
TEST(WindowedSketch, SlotFirstWrittenAfterWrapHoldsOnlyItsEpoch) {
  Sketch s(WindowConfig{10.0, 5});  // 2 s per slot.
  s.Observe(1.0, 4.0);    // Epoch 0, slot 0.
  s.Observe(3.0, 8.0);    // Epoch 1, slot 1.
  s.Observe(17.0, 30.0);  // Epoch 8, slot 3: its first sample.
  Histogram w = s.WindowSnapshot(17.0);
  EXPECT_EQ(w.Count(), 1);
  EXPECT_DOUBLE_EQ(w.MinValue(), 30.0);
  s.Observe(19.5, 2.0);  // Epoch 9, slot 4: its first sample.
  w = s.WindowSnapshot(19.5);
  EXPECT_EQ(w.Count(), 2);
  EXPECT_DOUBLE_EQ(w.MinValue(), 2.0);
  EXPECT_DOUBLE_EQ(w.MaxValue(), 30.0);
  EXPECT_DOUBLE_EQ(w.Sum(), 32.0);
  s.Observe(21.0, 5.0);  // Epoch 10 reuses slot 0, which held epoch 0.
  w = s.WindowSnapshot(21.0);
  EXPECT_EQ(w.Count(), 3);
  EXPECT_DOUBLE_EQ(w.Sum(), 37.0);
  EXPECT_DOUBLE_EQ(w.MinValue(), 2.0);
  EXPECT_EQ(s.Cumulative().Count(), 5);
  EXPECT_DOUBLE_EQ(s.Cumulative().Sum(), 49.0);
}

// A reused slot keeps its histogram's block: slot 0's first epoch counts
// sub-millisecond samples at the bottom of the geometry, and epoch 5, which
// reuses it after the ring wraps, counts samples six decades up and past
// the top. The slot's span moves with its samples; the window must read
// bucket for bucket as dense histograms of each live epoch's samples merged
// in slot order.
TEST(WindowedSketch, SlotReusedAfterWrapWithShiftedSpan) {
  Sketch s(WindowConfig{10.0, 5});  // 2 s per slot.
  const std::vector<double> early = {0.02, 0.03, 0.05}, late = {5e3, 9e3, 2e4, 1e6};
  test::DenseHistogram slot0_early, slot0_late, slot1, all;
  for (const double v : early) {
    s.Observe(1.0, v);  // Epoch 0, slot 0.
    slot0_early.Add(v);
    all.Add(v);
  }
  s.Observe(3.0, 7.0);  // Epoch 1, slot 1.
  slot1.Add(7.0);
  all.Add(7.0);
  for (const double v : late) {
    s.Observe(11.0, v);  // Epoch 5 reuses slot 0.
    slot0_late.Add(v);
    all.Add(v);
  }
  test::DenseHistogram live;  // Epochs 1..5 at t = 11: slot 0 (late), slot 1.
  live.MergeFrom(slot0_late);
  live.MergeFrom(slot1);
  EXPECT_EQ(test::HistogramDiff(s.WindowSnapshot(11.0), live), "");
  EXPECT_EQ(test::HistogramDiff(s.WindowSnapshot(19.0), slot0_late), "");  // Epochs 5..9.
  EXPECT_EQ(test::HistogramDiff(s.Cumulative(), all), "");
  // Epoch 10 reuses slot 0 again, back at the bottom of the geometry.
  s.Observe(21.0, 0.04);
  test::DenseHistogram again;
  again.Add(0.04);
  EXPECT_EQ(test::HistogramDiff(s.WindowSnapshot(21.0), again), "");
}

// Never-written slots hold no buckets: merging, copying and the registry
// merge must treat them as empty, and a copy's first write to one must not
// reach the original.
TEST(WindowedSketch, NeverWrittenSlotsMergeCopyAndRegistryMerge) {
  const WindowConfig window{10.0, 5};
  Sketch empty(window);
  EXPECT_EQ(empty.WindowSnapshot(1.0).Count(), 0);
  Sketch s(window);
  s.Observe(1.0, 7.0);  // Only slot 0 is ever written.
  EXPECT_EQ(s.WindowSnapshot(1.0).Count(), 1);
  EXPECT_EQ(s.WindowSnapshot(9.0).Count(), 1);

  Sketch copy = s;
  EXPECT_EQ(copy.WindowSnapshot(1.0).Count(), 1);
  copy.Observe(3.0, 9.0);  // The copy's first write to slot 1.
  EXPECT_EQ(copy.WindowSnapshot(3.0).Count(), 2);
  EXPECT_EQ(s.WindowSnapshot(3.0).Count(), 1);
  s.Observe(5.0, 11.0);  // The original's first write to slot 2.
  EXPECT_EQ(copy.WindowSnapshot(5.0).Count(), 2);
  EXPECT_DOUBLE_EQ(copy.WindowSnapshot(5.0).MaxValue(), 9.0);

  MetricsRegistry r0, merged;
  r0.Get<Sketch>("fi_itl_ms", Labels::Class(-1, 3))->Observe(1.0, 7.0);
  r0.Get<Sketch>("fi_ttft_ms", Labels::Class(-1, 3));  // No sample at all.
  merged.MergeFrom(r0, 0);
  const Sketch* m = merged.Find<Sketch>("fi_itl_ms", Labels{ClassId(-1, 3), 0});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->WindowSnapshot(1.0).Count(), 1);
  EXPECT_DOUBLE_EQ(m->WindowSnapshot(1.0).MaxValue(), 7.0);
  const Sketch* none = merged.Find<Sketch>("fi_ttft_ms", Labels{ClassId(-1, 3), 0});
  ASSERT_NE(none, nullptr);
  EXPECT_EQ(none->WindowSnapshot(1.0).Count(), 0);
  EXPECT_EQ(none->Cumulative().Count(), 0);
  util::JsonValue doc;
  std::string err;
  EXPECT_TRUE(util::JsonParse(merged.JsonSnapshot(1.0), &doc, &err)) << err;
}

// --- Metric types ------------------------------------------------------------

TEST(Metrics, CounterTotalsAndWindowRate) {
  Counter c(WindowConfig{10.0, 5});
  c.Inc(0.5, 10.0);
  c.Inc(1.5);  // Default increment 1.
  EXPECT_DOUBLE_EQ(c.total(), 11.0);
  EXPECT_DOUBLE_EQ(c.WindowSum(1.5), 11.0);
  EXPECT_DOUBLE_EQ(c.WindowRatePerS(1.5), 1.1);
  // The cumulative total never expires; the window does.
  EXPECT_DOUBLE_EQ(c.WindowSum(100.0), 0.0);
  EXPECT_DOUBLE_EQ(c.total(), 11.0);
  // SetTotal moves to a publisher's running sum; the window gets the step.
  c.SetTotal(100.5, 15.0);
  EXPECT_DOUBLE_EQ(c.total(), 15.0);
  EXPECT_DOUBLE_EQ(c.WindowSum(100.5), 4.0);
}

TEST(Metrics, GaugeLastWriteWinsWithWindowMax) {
  Gauge g(WindowConfig{10.0, 5});
  g.Set(1.0, 42.0);
  g.Set(2.0, 7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  EXPECT_DOUBLE_EQ(g.WindowMax(2.0), 42.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);  // value() ignores window expiry.
}

// A Set repeating the gauge's value is skipped only inside the slot of the
// last Set: set again in the next slot, the value must still show in the
// window's max once the earlier slot has expired.
TEST(Metrics, GaugeRepeatInNextSlotOutlivesEarlierSlot) {
  Gauge g(WindowConfig{10.0, 5});  // 2 s per slot.
  g.Set(1.0, 5.0);  // Epoch 0.
  g.Set(1.5, 5.0);  // Same value, same slot: nothing to record.
  g.Set(3.0, 5.0);  // Same value, epoch 1.
  EXPECT_DOUBLE_EQ(g.WindowMax(3.0), 5.0);
  // At t = 11 epoch 0 has left the window; epoch 1 is live.
  EXPECT_DOUBLE_EQ(g.WindowMax(11.0), 5.0);
  EXPECT_DOUBLE_EQ(g.WindowMax(13.0), 0.0);
  g.Set(3.5, 2.0);  // A lower value in epoch 1: the slot keeps its max.
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.WindowMax(11.0), 5.0);
}

TEST(Metrics, SketchCumulativeAndWindowDiverge) {
  Sketch s(WindowConfig{10.0, 5});
  s.Observe(1.0, 100.0);
  s.Observe(50.0, 10.0);
  EXPECT_EQ(s.Cumulative().Count(), 2);
  EXPECT_DOUBLE_EQ(s.Cumulative().MaxValue(), 100.0);
  const Histogram w = s.WindowSnapshot(50.0);
  EXPECT_EQ(w.Count(), 1);
  EXPECT_DOUBLE_EQ(w.MaxValue(), 10.0);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, GetReturnsStablePointerPerInstance) {
  MetricsRegistry reg;
  Counter* a = reg.Get<Counter>("fi_x_total", Labels::Class(0, 1));
  Counter* b = reg.Get<Counter>("fi_x_total", Labels::Class(0, 1));
  Counter* other = reg.Get<Counter>("fi_x_total", Labels::Class(1, 1));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Inc(0.0, 3.0);
  other->Inc(0.0, 4.0);
  EXPECT_DOUBLE_EQ(reg.CounterFamilyTotal("fi_x_total"), 7.0);
  EXPECT_EQ(reg.InstanceNames().size(), 2u);
}

TEST(Registry, FindDoesNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.Find<Counter>("fi_x_total"), nullptr);
  reg.Get<Counter>("fi_x_total")->Inc(0.0);
  EXPECT_NE(reg.Find<Counter>("fi_x_total"), nullptr);
  // Wrong type or wrong labels -> null, not a new instance.
  EXPECT_EQ(reg.Find<Gauge>("fi_x_total"), nullptr);
  EXPECT_EQ(reg.Find<Counter>("fi_x_total", Labels::Class(0, 0)), nullptr);
  EXPECT_EQ(reg.InstanceNames().size(), 1u);
}

// --- Exposition --------------------------------------------------------------

TEST(Exposition, JsonSnapshotParsesWithSchema) {
  MetricsRegistry reg(WindowConfig{10.0, 5});
  reg.Get<Counter>("fi_tokens_total", Labels::Class(2, 0))->Inc(1.0, 50.0);
  reg.Get<Gauge>("fi_kv_device_tokens")->Set(1.0, 4096.0);
  Sketch* s = reg.Get<Sketch>("fi_itl_ms", Labels::Class(2, 0));
  for (int i = 1; i <= 10; ++i) s->Observe(1.0, 5.0 * i);

  util::JsonValue doc;
  std::string err;
  ASSERT_TRUE(util::JsonParse(reg.JsonSnapshot(2.0), &doc, &err)) << err;
  EXPECT_DOUBLE_EQ(doc.NumberOr("now_s", -1.0), 2.0);
  EXPECT_DOUBLE_EQ(doc.NumberOr("window_s", -1.0), 10.0);
  const util::JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->IsArray());
  ASSERT_EQ(metrics->arr.size(), 3u);

  int counters = 0, gauges = 0, sketches = 0;
  for (const auto& m : metrics->arr) {
    const std::string type = m.StringOr("type", "");
    ASSERT_NE(m.Find("labels"), nullptr);
    if (type == "counter") {
      ++counters;
      EXPECT_EQ(m.StringOr("name", ""), "fi_tokens_total");
      EXPECT_EQ(m.Find("labels")->StringOr("tenant", ""), "2");
      EXPECT_DOUBLE_EQ(m.NumberOr("total", -1.0), 50.0);
      EXPECT_DOUBLE_EQ(m.NumberOr("window_sum", -1.0), 50.0);
      EXPECT_DOUBLE_EQ(m.NumberOr("window_rate_per_s", -1.0), 5.0);
    } else if (type == "gauge") {
      ++gauges;
      EXPECT_DOUBLE_EQ(m.NumberOr("value", -1.0), 4096.0);
      EXPECT_DOUBLE_EQ(m.NumberOr("window_max", -1.0), 4096.0);
    } else if (type == "sketch") {
      ++sketches;
      EXPECT_DOUBLE_EQ(m.NumberOr("count", -1.0), 10.0);
      EXPECT_DOUBLE_EQ(m.NumberOr("max", -1.0), 50.0);
      EXPECT_GT(m.NumberOr("p50", 0.0), 0.0);
      const util::JsonValue* window = m.Find("window");
      ASSERT_NE(window, nullptr);
      EXPECT_DOUBLE_EQ(window->NumberOr("count", -1.0), 10.0);
    }
  }
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(gauges, 1);
  EXPECT_EQ(sketches, 1);
}

// The JSON snapshot of a registry holding every instrument type after two
// merges writes exactly the bytes pinned in tests/golden/, and each Find
// answers only for its own type.
TEST(Exposition, MergedRegistryMatchesPinnedOutput) {
  MetricsRegistry r0, r1, merged;
  r0.Get<Counter>("fi_tokens_total", Labels::Class(0, 1))->Inc(1.0, 128.0);
  r0.Get<Counter>("fi_tokens_total", Labels::Class(-1, 2))->Inc(7.0, 7.0);
  r0.Get<Gauge>("fi_queue_depth")->Set(2.0, 3.0);
  r0.Get<Gauge>("fi_queue_depth")->Set(8.0, 1.0);
  Sketch* ttft = r0.Get<Sketch>("fi_ttft_ms", Labels::Class(0, 1));
  for (int i = 1; i <= 20; ++i) ttft->Observe(i < 10 ? 1.0 : 9.0, 3.0 * i);
  r1.Get<Counter>("fi_steps_total")->SetTotal(4.0, 40.0);
  r1.Get<Counter>("fi_steps_total")->SetTotal(12.0, 46.0);
  Sketch* itl = r1.Get<Sketch>("fi_itl_ms");
  for (const double v : {0.0, 0.004, 6.5, 6.5, 250.0, 2e6}) itl->Observe(11.0, v);
  merged.Get<Counter>("fi_routed_total")->Inc(0.5, 9.0);
  merged.MergeFrom(r0, 0);
  merged.MergeFrom(r1, 1);

  EXPECT_EQ(test::FirstLineDiff(merged.JsonSnapshot(14.0),
                                test::ReadGolden("merged_registry.json")),
            "");

  const Labels tokens{ClassId(0, 1), 0};
  EXPECT_NE(merged.Find<Counter>("fi_tokens_total", tokens), nullptr);
  EXPECT_EQ(merged.Find<Gauge>("fi_tokens_total", tokens), nullptr);
  EXPECT_EQ(merged.Find<Sketch>("fi_tokens_total", tokens), nullptr);
  const Labels depth = Labels::Replica(0);
  EXPECT_NE(merged.Find<Gauge>("fi_queue_depth", depth), nullptr);
  EXPECT_EQ(merged.Find<Counter>("fi_queue_depth", depth), nullptr);
  EXPECT_EQ(merged.Find<Sketch>("fi_queue_depth", depth), nullptr);
  EXPECT_NE(merged.Find<Sketch>("fi_ttft_ms", tokens), nullptr);
  EXPECT_EQ(merged.Find<Counter>("fi_ttft_ms", tokens), nullptr);
  EXPECT_EQ(merged.Find<Gauge>("fi_ttft_ms", tokens), nullptr);
  EXPECT_EQ(merged.Find<Counter>("fi_missing_total"), nullptr);
  EXPECT_DOUBLE_EQ(merged.CounterFamilyTotal("fi_tokens_total"), 135.0);
  EXPECT_DOUBLE_EQ(merged.CounterFamilyTotal("fi_queue_depth"), 0.0);  // A gauge family.
  EXPECT_EQ(merged.InstanceNames().size(), 7u);
}

// --- Cluster merge -----------------------------------------------------------

TEST(Merge, RelabelsEveryInstance) {
  MetricsRegistry r0, r1, merged;
  r0.Get<Counter>("fi_steps_total")->Inc(1.0, 10.0);
  r0.Get<Sketch>("fi_ttft_ms", Labels::Class(0, 0))->Observe(1.0, 25.0);
  r1.Get<Counter>("fi_steps_total")->Inc(1.0, 4.0);
  merged.MergeFrom(r0, 0);
  merged.MergeFrom(r1, 1);

  const Counter* c0 = merged.Find<Counter>("fi_steps_total", Labels::Replica(0));
  const Counter* c1 = merged.Find<Counter>("fi_steps_total", Labels::Replica(1));
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_DOUBLE_EQ(c0->total(), 10.0);
  EXPECT_DOUBLE_EQ(c1->total(), 4.0);
  EXPECT_DOUBLE_EQ(merged.CounterFamilyTotal("fi_steps_total"), 14.0);
  // The sketch kept its class labels and gained the replica label.
  const Sketch* s = merged.Find<Sketch>("fi_ttft_ms", Labels{ClassId(0, 0), 0});
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->Cumulative().Count(), 1);
  // Merge copies: mutating the source later does not affect the merged view.
  r0.Get<Counter>("fi_steps_total")->Inc(2.0, 100.0);
  EXPECT_DOUBLE_EQ(c0->total(), 10.0);
}

TEST(Merge, ClusterEngineMergesReplicaRegistries) {
  cluster::ClusterConfig cfg;
  cfg.engine.model = serving::Llama31_8B();
  cfg.engine.device = gpusim::H100Sxm80GB();
  cfg.engine.backend = serving::FlashInferBackend();
  cfg.engine.telemetry.enabled = true;
  cfg.num_replicas = 2;
  Rng rng(17);
  const auto workload = serving::ShareGptWorkload(rng, 30, 40.0);
  cluster::ClusterEngine engine(cfg);
  const auto m = engine.Run(workload);

  const obs::MetricsRegistry* merged = engine.Telemetry();
  ASSERT_NE(merged, nullptr);
  // Replica-labeled family totals reconcile with the aggregate metrics.
  EXPECT_DOUBLE_EQ(merged->CounterFamilyTotal("fi_output_tokens_total"),
                   static_cast<double>(m.aggregate.total_output_tokens));
  EXPECT_DOUBLE_EQ(merged->CounterFamilyTotal("fi_steps_total"),
                   static_cast<double>(m.aggregate.num_steps));
  // Both replicas contributed distinct instances.
  EXPECT_NE(merged->Find<Counter>("fi_steps_total", Labels::Replica(0)), nullptr);
  EXPECT_NE(merged->Find<Counter>("fi_steps_total", Labels::Replica(1)), nullptr);
  // The merged snapshot still parses.
  util::JsonValue doc;
  std::string err;
  EXPECT_TRUE(util::JsonParse(merged->JsonSnapshot(m.makespan_s), &doc, &err)) << err;
}

TEST(Merge, ClusterTelemetryDisabledByDefault) {
  cluster::ClusterConfig cfg;
  cfg.engine.model = serving::Llama31_8B();
  cfg.engine.device = gpusim::H100Sxm80GB();
  cfg.engine.backend = serving::FlashInferBackend();
  cfg.num_replicas = 2;
  Rng rng(18);
  cluster::ClusterEngine engine(cfg);
  engine.Run(serving::ShareGptWorkload(rng, 10, 40.0));
  EXPECT_EQ(engine.Telemetry(), nullptr);
}

}  // namespace
}  // namespace flashinfer

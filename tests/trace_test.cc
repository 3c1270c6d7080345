// Engine trace invariants: the trace must be a faithful, self-consistent
// account of the schedule the engine actually executed.
//
//  * Disabled tracing is bit-identical: a traced run and an untraced run
//    produce the same metrics (tracing observes, never perturbs).
//  * Step spans are disjoint and monotone; phase spans tile their step span
//    exactly (the step duration IS the sum of its component times).
//  * Run() and an incremental StepTo() loop emit the identical event
//    sequence (the trace depends only on simulated state, not driver shape).
//  * Per-request phase spans tile arrival -> finish exactly for
//    single-branch requests — the wall decomposition has no gaps.
//  * Every stall counter increment is explained: each ITL-stall step is a
//    prefill-alone step (swap time never lands in a step, in either swap
//    mode), each preempt-stall step is covered by a concrete eviction's
//    preempted span, and the trace's stall totals equal ServingMetrics'
//    counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "obs/query.h"
#include "obs/trace.h"
#include "serving/engine.h"

namespace flashinfer {
namespace {

using obs::TraceEvent;
using obs::TraceKind;
using obs::TraceName;
using serving::BatchPolicy;
using serving::EngineConfig;
using serving::Request;
using serving::RestorePolicy;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  cfg.trace.enabled = true;
  return cfg;
}

Request MakeReq(int id, double arrival, int64_t in, int64_t out, int priority = 0) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.input_len = in;
  r.output_len = out;
  r.priority = priority;
  return r;
}

/// Mixed open-loop workload with enough spread to exercise queueing,
/// chunking, and (under a tight budget) preemption.
std::vector<Request> MixedWorkload(int n) {
  std::vector<Request> reqs;
  for (int i = 0; i < n; ++i) {
    const int64_t in = 300 + (i * 467) % 2200;
    const int64_t out = 20 + (i * 131) % 120;
    reqs.push_back(MakeReq(i, i * 0.02, in, out, i % 2));
  }
  return reqs;
}

bool SameEvent(const TraceEvent& x, const TraceEvent& y) {
  return x.ts_us == y.ts_us && x.dur_us == y.dur_us && x.name == y.name &&
         x.flags == y.flags && x.req == y.req && x.a == y.a && x.b == y.b &&
         x.c == y.c && x.d == y.d && x.v == y.v;
}

constexpr double kEpsUs = 1e-3;  // Sub-nanosecond slop on microsecond stamps.

TEST(Trace, DisabledByDefaultAndMetricsBitIdentical) {
  auto traced_cfg = BaseConfig();
  auto plain_cfg = BaseConfig();
  plain_cfg.trace.enabled = false;
  const auto reqs = MixedWorkload(24);

  ServingEngine plain(plain_cfg);
  const ServingMetrics a = plain.Run(reqs);
  EXPECT_EQ(plain.Trace(), nullptr);
  EXPECT_TRUE(plain.TraceEvents().empty());

  ServingEngine traced(traced_cfg);
  const ServingMetrics b = traced.Run(reqs);
  ASSERT_NE(traced.Trace(), nullptr);
  EXPECT_GT(traced.Trace()->size(), 0);

  // Tracing observes; it must not perturb a single bit of the schedule.
  EXPECT_EQ(a.ttft_ms, b.ttft_ms);
  EXPECT_EQ(a.itl_ms, b.itl_ms);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.itl_stall_steps, b.itl_stall_steps);
  EXPECT_EQ(a.ttft_priority, b.ttft_priority);
}

TEST(Trace, StepSpansMonotoneAndPhasesTileStep) {
  auto cfg = BaseConfig();
  ServingEngine engine(cfg);
  engine.Run(MixedWorkload(24));
  const auto events = engine.TraceEvents();
  ASSERT_FALSE(events.empty());

  double prev_step_end = -1.0;
  int64_t steps = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.name != TraceName::kStep) continue;
    ++steps;
    EXPECT_GE(e.dur_us, 0.0);
    // Steps are disjoint and ordered: each begins at or after the previous end.
    EXPECT_GE(e.ts_us, prev_step_end - kEpsUs);
    prev_step_end = e.ts_us + e.dur_us;

    // The phase spans recorded immediately after the step tile it exactly:
    // contiguous, in order, summing to the step duration.
    double cursor = e.ts_us;
    double phase_sum = 0.0;
    for (size_t j = i + 1; j < events.size(); ++j) {
      const TraceName n = events[j].name;
      if (n < TraceName::kPhaseDraft || n > TraceName::kPhaseHost) break;
      EXPECT_NEAR(events[j].ts_us, cursor, kEpsUs);
      cursor += events[j].dur_us;
      phase_sum += events[j].dur_us;
    }
    EXPECT_NEAR(phase_sum, e.dur_us, kEpsUs);
    EXPECT_NEAR(cursor, e.ts_us + e.dur_us, kEpsUs);
  }
  const ServingMetrics& m = engine.Metrics();
  EXPECT_EQ(steps, m.num_steps);  // One step span per executed work step.
  EXPECT_EQ(steps, m.mixed_steps + m.prefill_only_steps + m.decode_only_steps);
}

TEST(Trace, RunAndStepToEmitIdenticalEventSequences) {
  auto cfg = BaseConfig();
  const auto reqs = MixedWorkload(16);

  ServingEngine via_run(cfg);
  via_run.Run(reqs);
  const auto run_events = via_run.TraceEvents();

  ServingEngine via_step(cfg);
  via_step.Reset();
  for (const auto& r : reqs) via_step.Admit(r);
  // Ragged incremental deadlines, including no-op calls before arrivals.
  for (double t = 0.0; !via_step.Finished(); t += 0.013) via_step.StepTo(t);
  const auto step_events = via_step.TraceEvents();

  ASSERT_EQ(run_events.size(), step_events.size());
  for (size_t i = 0; i < run_events.size(); ++i) {
    EXPECT_TRUE(SameEvent(run_events[i], step_events[i])) << "event " << i;
  }
}

TEST(Trace, RequestPhasesTileArrivalToFinish) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);
  std::vector<Request> reqs;
  reqs.push_back(MakeReq(0, 0.0, 2500, 300, 0));   // Long-lived victim.
  reqs.push_back(MakeReq(1, 0.05, 1200, 120, 0));
  reqs.push_back(MakeReq(2, 0.4, 3000, 80, 1));    // Forces preemption.
  reqs.push_back(MakeReq(3, 0.6, 800, 60, 1));
  const ServingMetrics m = engine.Run(reqs);
  ASSERT_GE(m.num_preemptions, 1);

  const obs::TraceQuery query(engine.TraceEvents());
  const auto rows = query.PerRequest();
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    ASSERT_FALSE(r.rejected);
    // Single-branch requests: queue + prefill + decode + preempted + swap +
    // recompute tile [arrival, finish] with no gap and no overlap.
    EXPECT_NEAR(r.TotalMs(), r.finish_ms - r.arrival_ms, 1e-6)
        << "request " << r.req;
  }
  // The preempted victim's stall shows up as a nonzero preempted column.
  double preempted_total = 0.0;
  for (const auto& r : rows) preempted_total += r.preempted_ms;
  EXPECT_GT(preempted_total, 0.0);
}

class TraceStalls : public ::testing::TestWithParam<bool> {};

TEST_P(TraceStalls, EveryStallIsExplained) {
  // The prefill-alone policy maximizes ITL stalls; a tight budget with
  // preemption adds preempt stalls and swap transfers on top. A step that
  // only lands a transfer decodes, so it stalls nobody.
  auto cfg = BaseConfig();
  cfg.batch_policy = BatchPolicy::kPrefillAlone;
  cfg.preemption.enabled = true;
  cfg.preemption.overlap_swap = GetParam();
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);
  const ServingMetrics m = engine.Run(MixedWorkload(24));
  ASSERT_GT(m.itl_stall_steps, 0);
  ASSERT_GT(m.num_preemptions, 0);
  ASSERT_GT(m.num_swap_restores, 0);

  const obs::TraceQuery query(engine.TraceEvents());
  ASSERT_EQ(engine.Trace()->dropped(), 0);  // Totals require the full trace.
  // 100% attribution: no stall increment without a concrete recorded cause.
  EXPECT_TRUE(query.UnexplainedItlStalls().empty());
  EXPECT_TRUE(query.UnexplainedPreemptStalls().empty());
  // And the trace's stall totals reconcile exactly with the metrics.
  EXPECT_EQ(query.TotalItlStallSteps(), m.itl_stall_steps);
  EXPECT_EQ(query.TotalPreemptStallSteps(), m.preempt_stall_steps);
}

INSTANTIATE_TEST_SUITE_P(SwapModes, TraceStalls, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "overlap" : "serialized";
                         });

TEST(Trace, LifecycleEventCountsMatchMetrics) {
  auto cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  ServingEngine engine(cfg);
  std::vector<Request> reqs = MixedWorkload(16);
  reqs.push_back(MakeReq(99, 0.1, 9000, 8, 1));  // Infeasible -> rejected.
  const ServingMetrics m = engine.Run(reqs);
  ASSERT_EQ(m.rejected_requests, 1);

  const obs::TraceQuery query(engine.TraceEvents());
  EXPECT_EQ(query.CountName(TraceName::kReqAdmit), 16);
  EXPECT_EQ(query.CountName(TraceName::kReqReject), 1);
  EXPECT_EQ(query.CountName(TraceName::kReqFirstToken),
            static_cast<int64_t>(m.ttft_ms.size()));
  EXPECT_EQ(query.CountName(TraceName::kReqFinish), 16);  // One per branch.
  EXPECT_EQ(query.CountName(TraceName::kKvEvictSwap) +
                query.CountName(TraceName::kKvEvictDrop),
            m.num_preemptions);
  EXPECT_EQ(query.CountName(TraceName::kKvRestoreSwap), m.num_swap_restores);
  EXPECT_EQ(query.CountName(TraceName::kKvRestoreRecompute),
            m.num_recompute_restores);
  // One sample per counter per work step.
  const int64_t work_steps = m.num_steps;
  EXPECT_EQ(query.CountName(TraceName::kCtrKvDevice), work_steps);
  EXPECT_EQ(query.CountName(TraceName::kCtrTokPerS), work_steps);
}

TEST(Trace, RingCapacityKeepsTrailingWindow) {
  auto cfg = BaseConfig();
  cfg.trace.capacity = 256;  // Force wraparound on a real workload.
  ServingEngine engine(cfg);
  engine.Run(MixedWorkload(24));
  ASSERT_NE(engine.Trace(), nullptr);
  EXPECT_EQ(engine.Trace()->size(), 256);
  EXPECT_GT(engine.Trace()->dropped(), 0);
  const auto events = engine.TraceEvents();
  ASSERT_EQ(events.size(), 256u);
  // The survivors are the trailing window: the last event is from the end of
  // the run, and step spans within the window are still ordered.
  double prev = -1.0;
  for (const auto& e : events) {
    if (e.name != TraceName::kStep) continue;
    EXPECT_GT(e.ts_us, prev);
    prev = e.ts_us;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(Trace, SpecDecodeStepsCarrySpecFlag) {
  auto cfg = BaseConfig();
  cfg.spec.enabled = true;
  ServingEngine engine(cfg);
  const ServingMetrics m = engine.Run(MixedWorkload(8));
  ASSERT_GT(m.spec_steps, 0);
  int64_t spec_flagged = 0;
  for (const auto& e : engine.TraceEvents()) {
    if (e.name == TraceName::kStep && (e.flags & obs::kStepFlagSpec) != 0) {
      ++spec_flagged;
      EXPECT_GT(e.b, 0);  // A verify step decodes running branches.
    }
  }
  EXPECT_EQ(spec_flagged, m.spec_steps);
}

}  // namespace
}  // namespace flashinfer

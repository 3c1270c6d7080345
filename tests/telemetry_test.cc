// Engine telemetry invariants:
//
//  * Disabled telemetry is bit-identical: an engine with the telemetry plane
//    off produces exactly the metrics of one with it on (telemetry observes,
//    never perturbs the schedule).
//  * The registry reconciles with ServingMetrics: every counter the engine
//    publishes equals its kMetricFields field bit for bit, after every
//    StepTo and migration call, with each increment in the window slot of
//    the instant it was made; the per-class sketch sample counts tile the
//    TTFT/ITL sample vectors.
//  * SLO burn-rate monitors classify, fire edge-triggered alerts into the
//    trace, and recover when the burn subsides; every burn equals a
//    brute-force recount of the window's live epochs, bit for bit.
//  * A kv_pressure-shaped engine and a 2-replica cluster of it expose
//    exactly the registry bytes pinned in tests/golden/.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serving/engine.h"
#include "test_util.h"

namespace flashinfer {
namespace {

using obs::SloMonitor;
using obs::SloSignal;
using obs::SloSpec;
using obs::TraceName;
using serving::EngineConfig;
using serving::Request;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  return cfg;
}

/// Mixed multi-tenant workload: three tenants, two priorities, enough input
/// spread to exercise chunking and (under a tight budget) preemption.
std::vector<Request> MixedWorkload(int n) {
  std::vector<Request> reqs;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = i * 0.02;
    r.input_len = 300 + (i * 467) % 2200;
    r.output_len = 20 + (i * 131) % 120;
    r.priority = i % 2;
    r.tenant = i % 3;
    reqs.push_back(r);
  }
  return reqs;
}

/// A pressured config that preempts and restores: the telemetry sites on the
/// eviction/restore paths must all be covered by the comparisons below.
EngineConfig PressuredConfig() {
  EngineConfig cfg = BaseConfig();
  cfg.prefill_chunk_tokens = 512;
  cfg.preemption.enabled = true;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
  return cfg;
}

void ExpectMetricsIdentical(const ServingMetrics& a, const ServingMetrics& b) {
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_output_tokens, b.total_output_tokens);
  EXPECT_EQ(a.num_steps, b.num_steps);
  EXPECT_EQ(a.total_prefill_tokens, b.total_prefill_tokens);
  EXPECT_EQ(a.num_preemptions, b.num_preemptions);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_DOUBLE_EQ(a.total_attention_ms, b.total_attention_ms);
  EXPECT_DOUBLE_EQ(a.total_gemm_ms, b.total_gemm_ms);
  EXPECT_DOUBLE_EQ(a.total_host_ms, b.total_host_ms);
  ASSERT_EQ(a.ttft_ms.size(), b.ttft_ms.size());
  for (size_t i = 0; i < a.ttft_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ttft_ms[i], b.ttft_ms[i]) << "ttft sample " << i;
  }
  ASSERT_EQ(a.itl_ms.size(), b.itl_ms.size());
  for (size_t i = 0; i < a.itl_ms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.itl_ms[i], b.itl_ms[i]) << "itl sample " << i;
  }
}

// Telemetry (with SLO monitoring on top) must not perturb the schedule: the
// acceptance-pinned invariant that EngineConfig::telemetry.enabled=false is
// metrics-bit-identical to the instrumented engine.
TEST(Telemetry, DisabledIsBitIdenticalToEnabled) {
  EngineConfig plain = PressuredConfig();
  EngineConfig instrumented = PressuredConfig();
  instrumented.telemetry.enabled = true;
  SloSpec slo;
  slo.name = "ttft_p99";
  slo.signal = SloSignal::kTtft;
  slo.threshold_ms = 200.0;
  slo.objective = 0.99;
  instrumented.telemetry.slos.push_back(slo);

  const auto reqs = MixedWorkload(24);
  const auto a = ServingEngine(plain).Run(reqs);
  const auto b = ServingEngine(instrumented).Run(reqs);
  ExpectMetricsIdentical(a, b);
}

TEST(Telemetry, DisabledExposesNoRegistry) {
  ServingEngine engine(BaseConfig());
  engine.Run(MixedWorkload(6));
  EXPECT_EQ(engine.Telemetry(), nullptr);
  EXPECT_EQ(engine.Slo(), nullptr);
}

// Every engine-published counter must equal the ServingMetrics field it
// shadows — the same invariant the soak harness checks across random configs.
TEST(Telemetry, RegistryReconcilesWithServingMetrics) {
  EngineConfig cfg = PressuredConfig();
  cfg.telemetry.enabled = true;
  ServingEngine engine(cfg);
  const ServingMetrics m = engine.Run(MixedWorkload(24));
  const obs::MetricsRegistry* reg = engine.Telemetry();
  ASSERT_NE(reg, nullptr);

  EXPECT_EQ(test::CounterFieldDiff(*reg, m), "");
  EXPECT_GT(m.num_preemptions, 0);  // The pressured config actually preempted.

  // The per-class series tile the aggregate sample vectors exactly.
  EXPECT_DOUBLE_EQ(reg->CounterFamilyTotal("fi_tokens_total"),
                   static_cast<double>(m.total_output_tokens));
  int64_t ttft_samples = 0, itl_samples = 0;
  for (int tenant = 0; tenant < 3; ++tenant) {
    for (int priority = 0; priority < 2; ++priority) {
      const obs::Labels labels = obs::Labels::Class(tenant, priority);
      if (const obs::Sketch* s = reg->Find<obs::Sketch>("fi_ttft_ms", labels)) {
        ttft_samples += s->Cumulative().Count();
      }
      if (const obs::Sketch* s = reg->Find<obs::Sketch>("fi_itl_ms", labels)) {
        itl_samples += s->Cumulative().Count();
      }
    }
  }
  EXPECT_EQ(ttft_samples, static_cast<int64_t>(m.ttft_ms.size()));
  EXPECT_EQ(itl_samples, m.ItlCount());

  // Occupancy gauges exist and the device gauge saw the pressure.
  const obs::Gauge* kv = reg->Find<obs::Gauge>("fi_kv_device_tokens");
  ASSERT_NE(kv, nullptr);
  EXPECT_GT(kv->WindowMax(m.makespan_s), 0.0);
  EXPECT_NE(reg->Find<obs::Gauge>("fi_queue_depth"), nullptr);
}

/// Sum of the per-class fi_tokens_total windows over MixedWorkload's classes
/// (3 tenants x 2 priorities).
double ClassTokenWindow(const obs::MetricsRegistry& reg, double now_s) {
  double sum = 0.0;
  for (int tenant = 0; tenant < 3; ++tenant) {
    for (int priority = 0; priority < 2; ++priority) {
      const obs::Labels labels = obs::Labels::Class(tenant, priority);
      if (const obs::Counter* c = reg.Find<obs::Counter>("fi_tokens_total", labels)) {
        sum += c->WindowSum(now_s);
      }
    }
  }
  return sum;
}

// No flush is missed. Stepped over ~50 increasing deadlines, some mid-burst
// and some across the idle gap to the next burst, every named family equals
// its field after each StepTo. The engine-wide output-token counter's 10 ms
// window slots must also match the per-class token counters', which the
// engine increments directly when a token commits: a field increment flushed
// only at a later clock change would land in a later slot and split the two
// windows.
TEST(Telemetry, FlushesBeforeEveryClockChange) {
  EngineConfig cfg = PressuredConfig();
  cfg.telemetry.enabled = true;
  cfg.telemetry.window = {0.05, 5};
  constexpr int kBursts = 8;
  constexpr int kBurstSize = 10;
  constexpr double kGapS = 3.0;  // Far longer than a burst: the engine idles.
  ServingEngine engine(cfg);
  engine.Reset();
  for (int burst = 0; burst < kBursts; ++burst) {
    for (Request r : MixedWorkload(kBurstSize)) {
      r.id += kBurstSize * burst;
      r.arrival_s += kGapS * burst;
      engine.Admit(r);
    }
  }
  for (int burst = 0; burst < kBursts; ++burst) {
    for (const double offset : {0.005, 0.03, 0.1, 0.2, 0.3, 0.45}) {
      engine.StepTo(kGapS * burst + offset);
      const obs::MetricsRegistry& reg = *engine.Telemetry();
      EXPECT_EQ(test::CounterFieldDiff(reg, engine.Metrics()), "");
      const double now = engine.Now();
      EXPECT_EQ(reg.Find<obs::Counter>("fi_output_tokens_total")->WindowSum(now),
                ClassTokenWindow(reg, now))
          << "now=" << now;
    }
  }
  engine.Drain();
  EXPECT_EQ(test::CounterFieldDiff(*engine.Telemetry(), engine.Metrics()), "");
  EXPECT_TRUE(engine.Finished());
  EXPECT_GE(engine.Metrics().num_idle_skips, kBursts - 1);
  EXPECT_GT(engine.Metrics().num_preemptions, 0);
}

// TakeMetrics() moves the fields out, not the registry's counters. After
// Run(), which ends with a take, a no-op StepTo(Now()) flushes again and must
// leave every published counter's total and window sum as Run() left them.
// A take in mid-run followed by Drain() must publish the taken part plus
// the rest, and the rest's output tokens complete Run()'s.
TEST(Telemetry, CountersKeepCountingAcrossTakeMetrics) {
  EngineConfig cfg = PressuredConfig();
  cfg.telemetry.enabled = true;
  const std::vector<Request> reqs = MixedWorkload(24);
  ServingEngine engine(cfg);
  const ServingMetrics run = engine.Run(reqs);
  const obs::MetricsRegistry& reg = *engine.Telemetry();
  const double now = engine.Now();
  std::vector<std::pair<double, double>> published;  // Total, window sum.
  for (const serving::MetricField& f : serving::kMetricFields) {
    if (f.family == nullptr) continue;
    const obs::Counter* c = reg.Find<obs::Counter>(f.family);
    ASSERT_NE(c, nullptr) << f.family;
    published.emplace_back(c->total(), c->WindowSum(now));
  }
  EXPECT_EQ(test::CounterFieldDiff(reg, run), "");
  engine.StepTo(engine.Now());
  size_t i = 0;
  for (const serving::MetricField& f : serving::kMetricFields) {
    if (f.family == nullptr) continue;
    const obs::Counter* c = reg.Find<obs::Counter>(f.family);
    EXPECT_EQ(c->total(), published[i].first) << f.family;
    EXPECT_EQ(c->WindowSum(now), published[i].second) << f.family;
    ++i;
  }
  EXPECT_GT(published[0].first, 0.0);  // fi_output_tokens_total.

  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const Request& r : reqs) stepped.Admit(r);
  stepped.StepTo(run.makespan_s / 2);
  const ServingMetrics taken = stepped.TakeMetrics();
  stepped.Drain();
  const ServingMetrics& rest = stepped.Metrics();
  EXPECT_GT(taken.total_output_tokens, 0);
  EXPECT_GT(rest.total_output_tokens, 0);
  EXPECT_EQ(taken.total_output_tokens + rest.total_output_tokens, run.total_output_tokens);
  for (const serving::MetricField& f : serving::kMetricFields) {
    if (f.family == nullptr) continue;
    EXPECT_EQ(stepped.Telemetry()->Find<obs::Counter>(f.family)->total(),
              f.Value(taken) + f.Value(rest))
        << f.family;
  }
}

// The migration calls run outside StepTo, so each flushes before returning:
// both engines reconcile right after every call, and the hand-off flushes
// after each unit it ships or retains.
TEST(Telemetry, MigrationCallsFlushBeforeReturning) {
  EngineConfig scfg = BaseConfig();
  scfg.telemetry.enabled = true;
  scfg.export_at_first_token = true;
  EngineConfig dcfg = BaseConfig();
  dcfg.telemetry.enabled = true;
  ServingEngine src(scfg);
  ServingEngine dst(dcfg);
  src.Reset();
  dst.Reset();
  const std::vector<Request> reqs = MixedWorkload(6);
  for (const Request& r : reqs) src.Admit(r);
  bool retained = false;
  for (int i = 0; i < 1000 && !src.Finished(); ++i) {
    src.StepTo(src.NextEventTime());
    src.HandOffExportable([&](const serving::MigrationUnit& u) {
      // The previous unit's ship or retain flushed before this offer.
      EXPECT_EQ(test::CounterFieldDiff(*src.Telemetry(), src.Metrics()), "");
      if (!retained) {
        retained = true;
        return false;
      }
      gpusim::CopyStream::Transfer xfer;
      xfer.begin_s = u.export_s;
      xfer.end_s = u.export_s + 0.002;
      dst.AdmitMigratedUnit(u, xfer);
      EXPECT_EQ(test::CounterFieldDiff(*dst.Telemetry(), dst.Metrics()), "");
      return true;
    });
    EXPECT_EQ(test::CounterFieldDiff(*src.Telemetry(), src.Metrics()), "");
  }
  ASSERT_TRUE(src.Finished());
  dst.Drain();
  EXPECT_EQ(src.Metrics().num_migrations_retained, 1);
  EXPECT_EQ(dst.Metrics().num_migrations_in, 5);
  EXPECT_GT(dst.Metrics().total_migration_ms, 0.0);

  // The per-class series of source plus destination tile both engines'
  // output tokens and TTFT/ITL samples, class by class: a migrated-in branch
  // resolves its own class on the destination. MixedWorkload(6) gives each
  // of its six classes one request.
  double tokens = 0.0;
  int64_t ttft = 0, itl = 0;
  for (const Request& r : reqs) {
    const obs::Labels labels = obs::Labels::Class(r.tenant, r.priority);
    double class_tokens = 0.0;
    int64_t class_ttft = 0, class_itl = 0;
    for (const ServingEngine* e : {&src, &dst}) {
      const obs::MetricsRegistry& reg = *e->Telemetry();
      if (const obs::Counter* c = reg.Find<obs::Counter>("fi_tokens_total", labels)) {
        class_tokens += c->total();
      }
      if (const obs::Sketch* sk = reg.Find<obs::Sketch>("fi_ttft_ms", labels)) {
        class_ttft += sk->Cumulative().Count();
      }
      if (const obs::Sketch* sk = reg.Find<obs::Sketch>("fi_itl_ms", labels)) {
        class_itl += sk->Cumulative().Count();
      }
    }
    EXPECT_EQ(class_tokens, static_cast<double>(r.output_len)) << labels.Key();
    EXPECT_EQ(class_ttft, 1) << labels.Key();
    EXPECT_EQ(class_itl, r.output_len - 1) << labels.Key();
    tokens += class_tokens;
    ttft += class_ttft;
    itl += class_itl;
  }
  const ServingMetrics& sm = src.Metrics();
  const ServingMetrics& dm = dst.Metrics();
  EXPECT_EQ(tokens, static_cast<double>(sm.total_output_tokens + dm.total_output_tokens));
  EXPECT_EQ(ttft, static_cast<int64_t>(sm.ttft_ms.size() + dm.ttft_ms.size()));
  EXPECT_EQ(itl, sm.ItlCount() + dm.ItlCount());
}

// --- Pinned exposition of engine-produced registries -------------------------

/// kv_pressure's engine at test size: preemption with the int8+lz4 host tier
/// under a tight KV budget, telemetry on, in a 1 s window of 0.2 s slots that
/// the run wraps many times.
EngineConfig KvPressureShapedConfig() {
  EngineConfig cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = serving::RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  cfg.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
  cfg.preemption.host_capacity_gb = 2.0;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  cfg.telemetry.enabled = true;
  cfg.telemetry.window = {1.0, 5};
  return cfg;
}

/// Long prompts whose priority is their arrival order, so every request is
/// its own (tenant, priority) class and outranks everything already running.
/// Every seventh request emits one token (a TTFT sample and no ITL sample);
/// every fifth carries a tenant, the rest are unassigned.
std::vector<Request> KvPressureShapedRequests(int n) {
  std::vector<Request> reqs;
  for (int i = 0; i < n; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = 0.08 * i;
    r.input_len = 1024 + (i * 797) % 3072;
    r.output_len = i % 7 == 3 ? 1 : 24 + (i * 53) % 72;
    r.priority = i;
    r.tenant = i % 5 == 2 ? i % 3 : -1;
    reqs.push_back(r);
  }
  return reqs;
}

/// One metric per line: a readable first differing line for JsonSnapshot's
/// single-line document. Applied to both sides, so equal results mean equal
/// bytes.
std::string OneMetricPerLine(const std::string& json) {
  const std::string sep = "},{\"name\":";
  std::string out;
  size_t from = 0;
  for (size_t pos = 0; (pos = json.find(sep, from)) != std::string::npos; from = pos + 2) {
    out.append(json, from, pos + 2 - from);
    out += '\n';
  }
  out.append(json, from);
  return out;
}

void ExpectPinnedExposition(const obs::MetricsRegistry& reg, double now_s,
                            const std::string& name) {
  EXPECT_EQ(test::FirstLineDiff(OneMetricPerLine(reg.JsonSnapshot(now_s)),
                                OneMetricPerLine(test::ReadGolden(name + ".json"))),
            "")
      << name << ".json";
}

// The JSON snapshots of an engine's registry and of a 2-replica cluster's
// merged registry write exactly the bytes pinned in tests/golden/: every
// class series (one-token classes hold a TTFT sample and no ITL sample),
// every engine counter and gauge, windowed views after the ring has wrapped.
TEST(Telemetry, KvPressureExpositionMatchesPinnedOutput) {
  const std::vector<Request> reqs = KvPressureShapedRequests(28);
  ServingEngine engine(KvPressureShapedConfig());
  const ServingMetrics m = engine.Run(reqs);
  EXPECT_GT(m.num_swap_restores, 0);
  EXPECT_GT(m.makespan_s, 3.0);  // Several 1 s windows: every slot reused.
  ExpectPinnedExposition(*engine.Telemetry(), m.makespan_s, "kv_pressure_engine");

  cluster::ClusterConfig ccfg;
  ccfg.engine = KvPressureShapedConfig();
  ccfg.num_replicas = 2;
  cluster::ClusterEngine cluster(ccfg);
  const cluster::ClusterMetrics cm = cluster.Run(reqs);
  EXPECT_GT(cm.aggregate.num_preemptions, 0);
  ExpectPinnedExposition(*cluster.Telemetry(), cm.makespan_s, "kv_pressure_cluster");
}

// --- SloMonitor --------------------------------------------------------------

SloSpec TightSpec() {
  SloSpec spec;
  spec.name = "itl_p90";
  spec.signal = SloSignal::kItl;
  spec.threshold_ms = 10.0;
  spec.objective = 0.9;  // 10% error budget.
  spec.fast_window_s = 5.0;
  spec.slow_window_s = 30.0;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  return spec;
}

TEST(Slo, BurnRateMathAndAttainment) {
  SloMonitor mon({TightSpec()}, /*trace=*/nullptr);
  for (int i = 0; i < 5; ++i) mon.Observe(SloSignal::kItl, 0, 0, 5.0, 1.0);
  for (int i = 0; i < 5; ++i) mon.Observe(SloSignal::kItl, 0, 0, 50.0, 1.0);
  const auto status = mon.Status(1.0);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].good, 5);
  EXPECT_EQ(status[0].bad, 5);
  EXPECT_DOUBLE_EQ(status[0].attainment, 0.5);
  // Bad fraction 0.5 against a 0.1 budget: burning 5x too fast.
  EXPECT_NEAR(status[0].fast_burn, 5.0, 1e-9);
  EXPECT_NEAR(status[0].slow_burn, 5.0, 1e-9);
}

TEST(Slo, AlertsAreEdgeTriggeredAndRecover) {
  obs::TraceRecorder trace(64);
  SloMonitor mon({TightSpec()}, &trace);
  // All-bad stream: burn 10x in both windows -> must fire exactly once.
  for (int i = 0; i < 10; ++i) mon.Observe(SloSignal::kItl, 0, 0, 100.0, 1.0);
  mon.Evaluate(1.0);
  mon.Evaluate(1.5);  // Still firing: no second edge.
  EXPECT_EQ(mon.Status(1.5)[0].alerts, 1);
  EXPECT_TRUE(mon.Status(1.5)[0].firing);
  // Far past both windows the burn is gone: the alert recovers.
  mon.Evaluate(100.0);
  EXPECT_FALSE(mon.Status(100.0)[0].firing);
  EXPECT_EQ(mon.Status(100.0)[0].alerts, 1);

  int alerts = 0, recovers = 0;
  for (const auto& e : trace.Events()) {
    if (e.name == TraceName::kSloAlert) ++alerts;
    if (e.name == TraceName::kSloRecover) ++recovers;
  }
  EXPECT_EQ(alerts, 1);
  EXPECT_EQ(recovers, 1);
}

TEST(Slo, SlowWindowVetoesTransientBurn) {
  // Same burn thresholds, but the spec requires the slow window to confirm:
  // a burst that only the fast window sees must not fire.
  SloSpec spec = TightSpec();
  spec.slow_burn = 8.0;  // Slow window must independently show a hard burn.
  SloMonitor mon({spec}, nullptr);
  // 2 bad in a 30 s slow window otherwise full of good samples.
  for (int i = 0; i < 50; ++i) mon.Observe(SloSignal::kItl, 0, 0, 5.0, 1.0);
  mon.Observe(SloSignal::kItl, 0, 0, 100.0, 28.0);
  mon.Observe(SloSignal::kItl, 0, 0, 100.0, 28.0);
  mon.Evaluate(28.0);
  // Fast window: all-bad (burn 10 >= 2); slow window dilutes to ~0.04 bad
  // fraction (burn ~0.4 < 8) -> vetoed.
  const auto status = mon.Status(28.0);
  EXPECT_GE(status[0].fast_burn, spec.fast_burn);
  EXPECT_LT(status[0].slow_burn, spec.slow_burn);
  EXPECT_FALSE(status[0].firing);
  EXPECT_EQ(status[0].alerts, 0);
}

TEST(Slo, ClassFilterSelectsSamples) {
  SloSpec spec = TightSpec();
  spec.tenant = 0;
  spec.priority = SloSpec::kAnyClass;
  SloMonitor mon({spec}, nullptr);
  mon.Observe(SloSignal::kItl, 0, 1, 100.0, 1.0);   // Matches (any priority).
  mon.Observe(SloSignal::kItl, 1, 0, 100.0, 1.0);   // Other tenant: ignored.
  mon.Observe(SloSignal::kItl, -1, 0, 100.0, 1.0);  // Unassigned: ignored.
  mon.Observe(SloSignal::kTtft, 0, 0, 100.0, 1.0);  // Other signal: ignored.
  const auto status = mon.Status(1.0);
  EXPECT_EQ(status[0].good + status[0].bad, 1);
}

// Property: each burn Status() reports equals, bit for bit, a recount of the
// matching samples whose epoch (the same floor(t / slot width)) is live.
// Times never decrease, as in the engine; some gaps outrun the slow window,
// so the rings wrap and whole windows empty. Samples are good and bad, from
// the spec's class, other classes and the other signal.
TEST(Slo, BurnsMatchRecountOverLiveEpochs) {
  SloSpec spec = TightSpec();
  spec.tenant = 1;
  spec.fast_window_s = 0.7;  // Slots of 0.14 s and 0.66 s: inexact widths.
  spec.slow_window_s = 3.3;
  SloMonitor mon({spec}, nullptr);
  struct Sample {
    double t;
    bool bad;
  };
  std::vector<Sample> matching;  // Non-decreasing times.
  int64_t empty_slow = 0, partial_slow = 0;
  // The burn of the matching samples live in a `window_s` window at `now_s`,
  // and their count.
  const auto recount = [&](double window_s, double now_s) {
    const double slot_s = window_s / SloMonitor::kBurnSlots;
    const int64_t live_from = static_cast<int64_t>(now_s / slot_s) - SloMonitor::kBurnSlots + 1;
    int64_t bad = 0, total = 0;
    for (auto x = matching.rbegin();
         x != matching.rend() && static_cast<int64_t>(x->t / slot_s) >= live_from; ++x) {
      ++total;
      if (x->bad) ++bad;
    }
    const double burn = total == 0 ? 0.0
                                   : (static_cast<double>(bad) / static_cast<double>(total)) /
                                         (1.0 - spec.objective);
    return std::make_pair(burn, total);
  };
  const auto burn_diff = [&](double now_s) -> std::string {
    const SloMonitor::SpecStatus st = mon.Status(now_s)[0];
    const auto [fast, fast_n] = recount(spec.fast_window_s, now_s);
    const auto [slow, slow_n] = recount(spec.slow_window_s, now_s);
    if (slow_n == 0 && !matching.empty()) ++empty_slow;
    if (slow_n > 0 && slow_n < static_cast<int64_t>(matching.size())) ++partial_slow;
    if (std::bit_cast<uint64_t>(st.fast_burn) != std::bit_cast<uint64_t>(fast)) {
      return "fast burn " + std::to_string(st.fast_burn) + " != " + std::to_string(fast) +
             " over " + std::to_string(fast_n) + " samples";
    }
    if (std::bit_cast<uint64_t>(st.slow_burn) != std::bit_cast<uint64_t>(slow)) {
      return "slow burn " + std::to_string(st.slow_burn) + " != " + std::to_string(slow) +
             " over " + std::to_string(slow_n) + " samples";
    }
    return "";
  };
  Rng rng(2024);
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.NextDouble();
    t += u < 0.02   ? rng.Uniform(3.5, 10.0)  // Outruns the slow window.
         : u < 0.15 ? rng.Uniform(0.3, 1.5)   // Wraps the fast ring.
         : u < 0.35 ? 0.0                     // Same instant.
                    : rng.Uniform(0.0, 0.05);
    ASSERT_EQ(burn_diff(t), "") << "before sample " << i << " at " << t;
    const bool other_signal = rng.NextDouble() < 0.1;
    const int tenant = rng.NextDouble() < 0.75 ? 1 : static_cast<int>(rng.UniformInt(-1, 3));
    const double v = rng.Uniform(0.0, 2.5 * spec.threshold_ms);
    mon.Observe(other_signal ? SloSignal::kTtft : SloSignal::kItl, tenant,
                static_cast<int>(rng.UniformInt(0, 2)), v, t);
    if (!other_signal && tenant == 1) matching.push_back({t, v > spec.threshold_ms});
    ASSERT_EQ(burn_diff(t), "") << "after sample " << i << " at " << t;
  }
  const SloMonitor::SpecStatus st = mon.Status(t)[0];
  int64_t bad = 0;
  for (const Sample& x : matching) bad += x.bad ? 1 : 0;
  EXPECT_EQ(st.good + st.bad, static_cast<int64_t>(matching.size()));
  EXPECT_EQ(st.bad, bad);
  // The sweep reached empty windows, and windows that dropped older samples.
  EXPECT_GT(empty_slow, 20);
  EXPECT_GT(partial_slow, 1000);
}

// End-to-end: an impossible TTFT objective over a real pressured run fires at
// least one burn alert, visible both in the monitor and as a Perfetto
// instant on the engine trace.
TEST(Slo, EngineRunFiresAlertIntoTrace) {
  EngineConfig cfg = PressuredConfig();
  cfg.trace.enabled = true;
  cfg.telemetry.enabled = true;
  SloSpec spec;
  spec.name = "impossible_ttft";
  spec.signal = SloSignal::kTtft;
  spec.threshold_ms = 0.01;  // No prefill finishes this fast.
  spec.objective = 0.9;
  spec.fast_window_s = 2.0;
  spec.slow_window_s = 10.0;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  cfg.telemetry.slos.push_back(spec);

  ServingEngine engine(cfg);
  const ServingMetrics m = engine.Run(MixedWorkload(24));
  const SloMonitor* slo = engine.Slo();
  ASSERT_NE(slo, nullptr);
  const auto status = slo->Status(m.makespan_s);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_GE(status[0].alerts, 1);
  EXPECT_LT(status[0].attainment, 0.01);  // Every sample violated.

  int alert_instants = 0;
  for (const auto& e : engine.TraceEvents()) {
    if (e.name == TraceName::kSloAlert) ++alert_instants;
  }
  EXPECT_GE(alert_instants, 1);
}

}  // namespace
}  // namespace flashinfer

// Randomized cross-subsystem soak/property harness.
//
// Every trial draws a random config point — batch policy (prefill-alone or
// chunked, with random chunk size and per-step prefill budget), speculative
// decoding on/off, preemption on/off (random restore policy), tight vs loose
// KV budget, composable formats on a share of engine and disaggregated
// trials — and a random bursty workload admitted in *shuffled* order,
// then asserts the whole-engine invariants that every subsystem must
// preserve when composed with the others:
//
//   1. the drain loop terminates (bounded step count, so a wedge prints the
//      reproducing seed instead of hanging the test runner),
//   2. exact KV accounting: KvTokensInUse()==0, HostKvTokensInUse()==0 and
//      SpecKvLivePages()==0 after the drain,
//   3. every admitted (non-rejected) request completes exactly once and
//      emits exactly its expected tokens (randomized trials end a few
//      requests at their first token, so every mode crosses that finish),
//   4. on a fixed-seed subset, Run() ≡ the drain loop above (StepTo to
//      exactly NextEventTime()), ≡ an external Admit/StepTo loop with
//      jittered deadlines and ≡ admitting requests as they arrive,
//   5. the step attention pricer is bit-identical to the plan-walking
//      reference (test_util.h) on random batches over the trial's backend
//      and head geometry, and on spec trials so is the verify pricer on a
//      random batch of the trial's draft tree (the reference tiles the
//      tree's mask BSR over the batch),
//   6. on cluster trials, the indexed RadixTree matches the scanning
//      reference tree (test_util.h) on a random mirror-op sequence,
//   7. the engine's host byte meter never exceeds its capacity after any
//      step, drains to 0, and on codec trials meters a stored/logical ratio
//      inside the host page table's range,
//   8. every engine's ITL sketch equals its per-token samples rebuilt in
//      order through the log formula (test_util.h),
//   9. every recorded step has its batch policy's shape: a prefill-alone
//      step with prompt tokens decodes no branch, a chunked step stalls no
//      branch, and a step's prompt tokens exceed the policy's per-step
//      budget only when a single prompt chunk carries them.
//  10. on disaggregated trials, every hand-off of an export-mode engine
//      empties its parked pool and drops its KV by exactly the shipped
//      units' charges, whichever units it ships or declines.
//  11. after every StepTo of an engine trial's drain, each occupancy gauge
//      holds its trace counter's latest sample and each class's
//      fi_tokens_total equals its TTFT plus ITL sample counts.
//  12. on prefix-affinity cluster trials, replaying the router track's
//      kRouteDecision events in order through one scanning reference tree
//      per replica (MatchPrefix, Insert of the prompt's full pages, EvictLru
//      back to the mirror capacity) matches each decision's recorded prefix
//      tokens. ClusterEngine::Run reads the prefix off its one Insert's
//      return instead; the reference's MatchPrefix is the independent oracle.
//  13. every engine trial's Run() of its workload hands its metrics out and
//      leaves the engine's reading as a fresh engine's; when it rejects
//      nothing, each sample vector (TTFT, its priorities, ITL) has exactly
//      the capacity Run() sized it to.
//  14. on cluster trials, MultiTenantWorkload over a random pool (empty
//      prompts and zero requests included), which draws each tenant's
//      prompt on first use, matches the eager reference generator
//      (test_util.h) request for request and token for token, and leaves
//      the caller's Rng in the same state.
//  15. on every engine, cluster and disaggregated trial, the registry's
//      cumulative fi_ttft_ms and fi_itl_ms sketches, merged across every
//      class (and replica), count the engine's TTFT and ITL samples bucket
//      for bucket through the log formula (test_util.h).
//  16. on every engine trial (telemetry is always on there), a no-op
//      StepTo(Now()) after invariant 13's Run() leaves the registry's JSON
//      snapshot byte-identical: TakeMetrics() moves the fields out, not the
//      published counters.
//  17. on invariant 5's random balanced batches, the balanced plan keeps
//      Graham's list-scheduling bound on its exact loads (rows + KV tokens
//      per chunk): with m CTAs, total cost T and largest chunk cost c, the
//      busiest CTA's load L has T <= m * L <= T + (m - 1) * c.
//  18. every engine trial carries one wildcard TTFT and one wildcard ITL
//      SloSpec with random thresholds, objectives, windows and burns; after
//      the drain each spec's Status() counts every TTFT (ITL) sample once
//      as good or bad, and as bad exactly those above its threshold.
//
// A failing trial prints `seed=...` — rerun with that seed to reproduce.
// Trial count: FI_SOAK_TRIALS (default 50; 0 skips the randomized tests —
// CI's sanitizer jobs run only the pinned cases, which are always on; its
// Release bench job runs 2000).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <csignal>
#include <unistd.h>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "obs/export.h"
#include "serving/engine.h"
#include "spec/verify.h"
#include "test_util.h"

namespace flashinfer {
namespace {

// FI_CHECK failures abort the process before gtest can print SCOPED_TRACE,
// so the reproducing seed is echoed from a SIGABRT handler too.
volatile uint64_t g_current_seed = 0;
// Engine of the trial in flight, for the abort-path trace dump.
const serving::ServingEngine* g_current_engine = nullptr;

/// Writes the trial's trailing trace window as Perfetto JSON next to the
/// reproducing seed, into $FI_SOAK_DUMP_DIR (default: cwd). Every trial runs
/// with tracing on, so a failure ships the event history that led up to it.
void DumpTrialTrace(const std::vector<obs::TraceTrack>& tracks, uint64_t seed) {
  const char* dir = std::getenv("FI_SOAK_DUMP_DIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") + "/soak_seed_" +
                           std::to_string(seed) + ".trace.json";
  obs::WritePerfettoFile(path, tracks);
  std::fprintf(stderr, "[soak] trailing trace dumped to %s\n", path.c_str());
}

void AbortSeedReporter(int) {
  std::signal(SIGABRT, SIG_DFL);  // A nested failure falls through to core.
  char buf[64];
  const int n = std::snprintf(buf, sizeof(buf), "\n[soak] seed=%llu\n",
                              static_cast<unsigned long long>(g_current_seed));
  if (n > 0) {
    [[maybe_unused]] auto r = write(2, buf, static_cast<size_t>(n));
  }
  // Best-effort trace dump. Not async-signal-safe in general, but the abort
  // comes from a logic FI_CHECK (heap intact), the process is dying anyway,
  // and the handler has already been reset so a nested crash still aborts.
  if (g_current_engine != nullptr) {
    const serving::ServingEngine* engine = g_current_engine;
    g_current_engine = nullptr;
    DumpTrialTrace({{"engine", engine->TraceEvents()}}, g_current_seed);
  }
  std::abort();
}

struct InstallAbortReporter {
  InstallAbortReporter() { std::signal(SIGABRT, AbortSeedReporter); }
} g_install_abort_reporter;

using obs::TraceName;
using serving::BatchPolicy;
using serving::EngineConfig;
using serving::Request;
using serving::RestorePolicy;
using serving::ServingEngine;
using serving::ServingMetrics;

EngineConfig RandomConfig(Rng& rng, uint64_t seed) {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  // Every trial records a trailing trace window: failures dump it, and the
  // emission paths themselves soak across the whole random config space.
  // A small ring keeps the per-trial cost flat and exercises wraparound.
  cfg.trace.enabled = true;
  cfg.trace.capacity = 4096;
  // Telemetry rides every trial: the publication sites soak across the whole
  // config space and the registry is reconciled against ServingMetrics after
  // each drain. Randomized window geometry exercises the slot-ring epochs.
  cfg.telemetry.enabled = true;
  cfg.telemetry.window.window_s = rng.Uniform(2.0, 20.0);
  cfg.telemetry.window.slots = static_cast<int>(rng.UniformInt(2, 8));
  rng.NextDouble();  // Discarded, so every seed draws the rest as before.
  // Batch policy: a quarter prefill-alone, else chunked with a random chunk
  // size and either chunked policy.
  const bool alone = rng.NextDouble() < 0.25;
  if (!alone) cfg.prefill_chunk_tokens = rng.UniformInt(256, 2048);
  const bool decode_priority = rng.NextDouble() < 0.5;
  cfg.batch_policy = alone             ? BatchPolicy::kPrefillAlone
                     : decode_priority ? BatchPolicy::kDecodePriority
                                       : BatchPolicy::kThroughputPriority;
  // A per-step prefill budget that binds on the drawn workloads. A separate
  // stream keeps the trial's other draws as they were.
  cfg.max_prefill_tokens = Rng(seed ^ 0xB0D6E7ull).UniformInt(1024, 8192);
  // Spec decode on/off.
  if (rng.NextDouble() < 0.4) {
    cfg.spec.enabled = true;
    cfg.spec.tree.depth = static_cast<int>(rng.UniformInt(1, 3));
    cfg.spec.tree.branching = static_cast<int>(rng.UniformInt(1, 2));
  }
  // Preemption on/off with a random restore policy, host tier, and transfer
  // model (serialized vs overlapped copy streams).
  if (rng.NextDouble() < 0.5) {
    cfg.preemption.enabled = true;
    const double u = rng.NextDouble();
    cfg.preemption.restore = u < 0.34   ? RestorePolicy::kSwap
                             : u < 0.67 ? RestorePolicy::kRecompute
                                        : RestorePolicy::kAuto;
    cfg.preemption.host_capacity_gb = rng.NextDouble() < 0.3 ? 0.25 : 8.0;
    cfg.preemption.overlap_swap = rng.NextDouble() < 0.5;
    // Host-tier codec on half the preempting trials: random quant format
    // (incl. none = compress-only lossless) x compression coin-flip.
    if (rng.NextDouble() < 0.5) {
      cfg.preemption.host_codec.quant =
          static_cast<KvQuantFormat>(rng.UniformInt(0, 3));
      cfg.preemption.host_codec.compress = rng.NextDouble() < 0.5;
    }
  }
  // Tight vs loose KV budget.
  cfg.hbm_capacity_gb = rng.NextDouble() < 0.55
                            ? serving::HbmGbForKvBudget(cfg, rng.UniformInt(2500, 9000))
                            : 80.0;
  return cfg;
}

/// Composable formats on a share of trials. A separate stream keeps the
/// trial's other draws as they were.
bool DrawComposable(uint64_t seed) { return Rng(seed ^ 0xC0B05Eull).NextDouble() < 0.3; }

std::vector<Request> RandomWorkload(Rng& rng) {
  std::vector<Request> reqs;
  const double choice = rng.NextDouble();
  if (choice < 0.4) {
    serving::BurstyPrefillConfig w;
    w.num_steady = static_cast<int>(rng.UniformInt(15, 35));
    w.steady_rate = rng.Uniform(15.0, 45.0);
    w.num_bursts = static_cast<int>(rng.UniformInt(1, 3));
    w.burst_size = static_cast<int>(rng.UniformInt(2, 4));
    w.burst_input_lo = 2048;
    w.burst_input_hi = 6144;
    reqs = serving::BurstyLongPrefillWorkload(rng, w);
  } else if (choice < 0.7) {
    reqs = serving::UniformWorkload(rng, static_cast<int>(rng.UniformInt(20, 45)),
                                    rng.Uniform(15.0, 50.0), 128, 1536,
                                    rng.UniformInt(16, 192));
  } else {
    reqs = serving::ShareGptWorkload(rng, static_cast<int>(rng.UniformInt(20, 45)),
                                     rng.Uniform(10.0, 30.0));
    // Occasional parallel-generation groups (never preempted, but they
    // stress the shared-prefix fork paths under pressure).
    for (auto& r : reqs) {
      if (rng.NextDouble() < 0.15) r.parallel_n = 2;
    }
  }
  serving::AssignPriorities(rng, reqs, {0.6, 0.3, 0.1});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

/// Randomized trials end a few requests at their first token (output_len =
/// 1), so every mode crosses the first-token finish. A separate stream keeps
/// the trial's other draws as they were.
void SetOneTokenRequests(uint64_t seed, std::vector<Request>& reqs) {
  Rng rng(seed ^ 0x1707E4ull);
  for (auto& r : reqs) {
    if (rng.NextDouble() < 0.1) r.output_len = 1;
  }
}

int64_t ExpectedOutputTokens(const Request& r) {
  const int n = std::max(1, r.parallel_n);
  return n > 1 ? 1 + static_cast<int64_t>(n) * std::max<int64_t>(r.output_len - 1, 0)
               : std::max<int64_t>(r.output_len, 1);
}

/// Prices a few random batches over the trial's device, backend and head
/// geometry — as configured, then with its optional packed-tile and
/// composable modes turned on — and requires the step pricer to equal the
/// plan-walking reference bit for bit. The plan walk schedules with the same
/// ScheduleBalanced, so each batch's balanced schedule is also checked
/// against Algorithm 1 stated unit by unit and against the list-scheduling
/// bound (invariant 17), as is one more batch's over a random head geometry
/// and grid. Then one random decode batch steps like
/// the engine's, every row a KV token longer per step, so the time-only
/// price reuses the previous step's key order; it must equal the report's
/// time on every step. Last, one batch on a grid of 7, 108, 128, 129 or 132
/// SMs, so the pricer charges CTA groups of 1, 2, 4 or 8 CTAs (or more);
/// under the balanced scheduler every CTA of a group of gcd(#SMs, heads)
/// must take the same time.
void ExpectPricerMatchesReference(const EngineConfig& cfg, uint64_t seed) {
  Rng rng(seed ^ 0x9121CEull);
  serving::AttnSimInput geometry;
  geometry.num_qo_heads = cfg.model.num_qo_heads / cfg.model.tensor_parallel;
  geometry.num_kv_heads = std::max(1, cfg.model.num_kv_heads / cfg.model.tensor_parallel);
  geometry.head_dim = cfg.model.head_dim;
  geometry.page_size = cfg.page_size;
  for (int i = 0; i < 4; ++i) {
    serving::BackendConfig backend = cfg.backend;
    backend.packed_tiles |= i >= 2;
    backend.composable |= i == 3;
    const auto in = test::RandomAttnBatch(rng, geometry, backend.composable);
    const auto report = serving::SimulateBatchAttention(cfg.device, backend, in);
    EXPECT_EQ(test::ReportDiff(report,
                               test::ReferenceSimulateBatchAttention(cfg.device, backend, in)),
              "")
        << "pricing batch " << i;
    EXPECT_EQ(test::TimeOnlyDiff(serving::BatchAttentionTimeUs(cfg.device, backend, in), report),
              "")
        << "time-only pricing of batch " << i;
    const test::ReferenceLaunch launch(cfg.device, backend, in, in.qo_lens, in.kv_lens);
    EXPECT_EQ(test::BalancedQueuesDiff(launch.p, launch.cfg, cfg.device.num_sms), "")
        << "balanced schedule of batch " << i;
    EXPECT_EQ(test::ListSchedulingBoundDiff(launch.p, launch.cfg, cfg.device.num_sms), "")
        << "list-scheduling bound of batch " << i;
  }
  // One more balanced schedule over a random head geometry and grid, so
  // every trial also places fragmented equal-load CTA classes (1-2 kv
  // heads: few equal costs) and wide ones (40), not only the model's heads.
  const int kv_heads[] = {1, 2, 8, 40};
  serving::AttnSimInput heads = geometry;
  heads.num_kv_heads = kv_heads[rng.UniformInt(0, 3)];
  heads.num_qo_heads = heads.num_kv_heads << rng.UniformInt(0, 2);
  serving::BackendConfig backend = cfg.backend;
  backend.head_fusion = rng.NextDouble() < 0.5;
  const int num_ctas = static_cast<int>(rng.UniformInt(1, 300));
  const auto in = test::RandomAttnBatch(rng, heads, /*with_groups=*/false);
  const test::ReferenceLaunch launch(cfg.device, backend, in, in.qo_lens, in.kv_lens);
  EXPECT_EQ(test::BalancedQueuesDiff(launch.p, launch.cfg, num_ctas), "")
      << "balanced schedule over " << heads.num_kv_heads << " kv heads ("
      << heads.num_qo_heads << " qo, fused " << backend.head_fusion << ") and " << num_ctas
      << " CTAs";
  EXPECT_EQ(test::ListSchedulingBoundDiff(launch.p, launch.cfg, num_ctas), "")
      << "list-scheduling bound over " << heads.num_kv_heads << " kv heads and " << num_ctas
      << " CTAs";

  serving::AttnSimInput decode = geometry;
  for (int64_t n = rng.UniformInt(1, 48); n > 0; --n) {
    decode.kv_lens.push_back(rng.UniformInt(1, 4000));
  }
  decode.qo_lens.assign(decode.kv_lens.size(), 1);
  for (int step = 0; step < 32; ++step) {
    const double time_us = serving::BatchAttentionTimeUs(cfg.device, cfg.backend, decode);
    EXPECT_EQ(test::TimeOnlyDiff(
                  time_us, serving::SimulateBatchAttention(cfg.device, cfg.backend, decode)),
              "")
        << "decode step " << step << " of " << decode.kv_lens.size() << " rows";
    for (auto& kv : decode.kv_lens) ++kv;
  }

  Rng grid_rng(seed ^ 0x6C1D5ull);  // Its own stream: the draws above stay.
  gpusim::DeviceSpec grid = cfg.device;
  const int sms[] = {7, 108, 128, 129, 132};
  grid.num_sms = sms[grid_rng.UniformInt(0, 4)];
  const auto grid_in = test::RandomAttnBatch(grid_rng, geometry, cfg.backend.composable);
  const auto grid_report = serving::SimulateBatchAttention(grid, cfg.backend, grid_in);
  EXPECT_EQ(test::ReportDiff(grid_report,
                             test::ReferenceSimulateBatchAttention(grid, cfg.backend, grid_in)),
            "")
      << grid.num_sms << " SMs";
  EXPECT_EQ(test::TimeOnlyDiff(serving::BatchAttentionTimeUs(grid, cfg.backend, grid_in),
                               grid_report),
            "")
      << grid.num_sms << " SMs";
  if (cfg.backend.scheduler == SchedulerKind::kBalanced) {
    const int heads =
        cfg.backend.head_fusion ? geometry.num_kv_heads : geometry.num_qo_heads;
    const size_t group = static_cast<size_t>(std::gcd(grid.num_sms, heads));
    const auto& times = grid_report.cta_time_us;
    for (size_t c = 0; c < times.size(); ++c) {
      ASSERT_EQ(std::bit_cast<uint64_t>(times[c]), std::bit_cast<uint64_t>(times[c - c % group]))
          << "CTA " << c << " of " << grid.num_sms << " SMs, groups of " << group;
    }
  }

  if (!cfg.spec.enabled) return;
  // One verify batch of the trial's tree, as the engine prices it: the mask
  // lowered once, at the tile the kernel heuristic picks for its fused rows.
  const spec::DraftTree tree(cfg.spec.tree);
  std::vector<int64_t> context_lens(static_cast<size_t>(rng.UniformInt(1, 48)));
  for (auto& len : context_lens) len = rng.UniformInt(1, 4000);
  const auto mask = spec::LowerVerifyMask(tree, cfg.backend, geometry);
  const auto verify =
      serving::SimulateVerifyAttention(cfg.device, cfg.backend, geometry, mask, context_lens);
  const int g = cfg.backend.head_fusion ? geometry.num_qo_heads / geometry.num_kv_heads : 1;
  const int tile_q = SelectKernelConfig(cfg.device, static_cast<double>(tree.Size()) * g,
                                        geometry.head_dim, DTypeBytes(cfg.backend.kv_dtype),
                                        /*sparse=*/true)
                         .tile_q;
  EXPECT_EQ(test::ReportDiff(verify, test::ReferenceSimulateVerifyAttention(
                                         cfg.device, cfg.backend, geometry,
                                         spec::TreeMaskBsr(tree, tile_q, g), tree.Size(),
                                         context_lens)),
            "")
      << "verify batch of " << context_lens.size() << " branches";
  EXPECT_EQ(test::TimeOnlyDiff(serving::VerifyAttentionTimeUs(cfg.device, cfg.backend, geometry,
                                                              mask, context_lens),
                               verify),
            "")
      << "time-only verify price of " << context_lens.size() << " branches";
}

/// Drains with a step bound so a future admission wedge fails with the
/// reproducing seed instead of hanging the test binary until its timeout.
/// The registry after a StepTo, against the trace and itself: each
/// occupancy gauge holds its trace counter's latest sample (0 before the
/// first executed step), and each of `classes`' (tenant, priority) token
/// counters equals its TTFT plus ITL sample counts. "" when both hold.
std::string TelemetryStepDiff(const ServingEngine& engine,
                              const std::vector<std::pair<int, int>>& classes) {
  static constexpr TraceName kOccupancy[] = {
      TraceName::kCtrKvDevice, TraceName::kCtrKvHost,  TraceName::kCtrHostStoredBytes,
      TraceName::kCtrQueueDepth, TraceName::kCtrRunning, TraceName::kCtrPreempted};
  const obs::MetricsRegistry& reg = *engine.Telemetry();
  const std::vector<obs::TraceEvent> events = engine.TraceEvents();
  std::string out;
  for (const TraceName n : kOccupancy) {
    const auto latest = std::find_if(events.rbegin(), events.rend(),
                                     [n](const obs::TraceEvent& e) { return e.name == n; });
    const double want = latest == events.rend() ? 0.0 : latest->v;
    const std::string name = std::string("fi_") + obs::TraceNameStr(n);
    const obs::Gauge* g = reg.Find<obs::Gauge>(name);
    if (g == nullptr || g->value() != want) {
      out += name + " != trace " + std::to_string(want) + "; ";
    }
  }
  for (const auto& [tenant, priority] : classes) {
    const obs::Labels labels = obs::Labels::Class(tenant, priority);
    const obs::Counter* tokens = reg.Find<obs::Counter>("fi_tokens_total", labels);
    if (tokens == nullptr) continue;  // Not registered yet.
    const obs::Sketch* ttft = reg.Find<obs::Sketch>("fi_ttft_ms", labels);
    const obs::Sketch* itl = reg.Find<obs::Sketch>("fi_itl_ms", labels);
    if (ttft == nullptr || itl == nullptr ||
        tokens->total() !=
            static_cast<double>(ttft->Cumulative().Count() + itl->Cumulative().Count())) {
      out += "fi_tokens_total{" + labels.Key() + "} != TTFT + ITL samples; ";
    }
  }
  return out;
}

/// Steps `engine` to completion one event at a time, checking the host
/// tier's capacity and the registry (TelemetryStepDiff over the classes of
/// `reqs`) after every StepTo.
void BoundedDrain(ServingEngine& engine, const std::vector<Request>& reqs) {
  std::vector<std::pair<int, int>> classes;
  for (const Request& r : reqs) classes.emplace_back(r.tenant, r.priority);
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  for (int64_t i = 0; i < 500000 && !engine.Finished(); ++i) {
    engine.StepTo(engine.NextEventTime());
    ASSERT_LE(engine.HostStoredBytes(), engine.HostByteCapacity()) << "step " << i;
    ASSERT_EQ(TelemetryStepDiff(engine, classes), "") << "step " << i;
  }
  ASSERT_TRUE(engine.Finished()) << "drain did not terminate";
}

/// Failed gtest assertion parts recorded so far in the current test (used to
/// detect whether THIS trial failed, across the many trials one TEST runs).
int FailedPartCount() {
  const auto* result =
      ::testing::UnitTest::GetInstance()->current_test_info()->result();
  int failed = 0;
  for (int i = 0; i < result->total_part_count(); ++i) {
    if (result->GetTestPartResult(i).failed()) ++failed;
  }
  return failed;
}

/// The first step span that overlaps a copy-stream span, or "" when none
/// does (serialized swaps admit no step while a stream is busy).
std::string StepOverlappingCopy(const std::vector<obs::TraceEvent>& events) {
  constexpr double kEpsUs = 1e-6;  // Representation error of the µs stamps.
  std::vector<std::pair<double, double>> copies;  // (begin, end), µs.
  for (const auto& e : events) {
    if (e.name == obs::TraceName::kCopyD2H || e.name == obs::TraceName::kCopyH2D) {
      copies.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    }
  }
  std::sort(copies.begin(), copies.end());
  std::vector<double> max_end(copies.size());  // Over copies[0..i].
  for (size_t i = 0; i < copies.size(); ++i) {
    max_end[i] = std::max(i > 0 ? max_end[i - 1] : 0.0, copies[i].second);
  }
  for (const auto& e : events) {
    if (e.name != obs::TraceName::kStep) continue;
    // Copies that begin before the step ends; one of them overlaps it when
    // it ends after the step begins.
    const auto begun = std::lower_bound(
        copies.begin(), copies.end(),
        std::make_pair(e.ts_us + e.dur_us - kEpsUs, std::numeric_limits<double>::lowest()));
    if (begun != copies.begin() &&
        max_end[static_cast<size_t>(begun - copies.begin()) - 1] > e.ts_us + kEpsUs) {
      return "step at " + std::to_string(e.ts_us) + " us";
    }
  }
  return "";
}

/// The first recorded step whose shape its batch policy rules out, or ""
/// (invariant 9). A step's kChunk instants follow its kStep span.
std::string StepShapeDiff(const EngineConfig& cfg, const std::vector<obs::TraceEvent>& events) {
  const bool alone = cfg.batch_policy == BatchPolicy::kPrefillAlone;
  const int64_t budget = std::max<int64_t>(
      1, cfg.batch_policy == BatchPolicy::kDecodePriority
             ? std::min(cfg.prefill_chunk_tokens, cfg.max_prefill_tokens)
             : cfg.max_prefill_tokens);
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& step = events[i];
    if (step.name != obs::TraceName::kStep) continue;
    int64_t prompt_chunks = 0;
    for (size_t j = i + 1; j < events.size() && events[j].name != obs::TraceName::kStep; ++j) {
      if (events[j].name == obs::TraceName::kChunk && events[j].a > 0) ++prompt_chunks;
    }
    const std::string at = "step at " + std::to_string(step.ts_us) + " us ";
    if (alone && step.a > 0 && step.b > 0) return at + "decodes beside prompt tokens";
    if (!alone && step.c > 0) return at + "stalls " + std::to_string(step.c) + " branches";
    if (step.a > budget && prompt_chunks != 1) {
      return at + "carries " + std::to_string(step.a) + " prompt tokens in " +
             std::to_string(prompt_chunks) + " chunks over a budget of " +
             std::to_string(budget);
    }
  }
  return "";
}

/// Every admitted request emitted its expected tokens (exact when none was
/// rejected).
void ExpectOutputTokens(const ServingMetrics& m, const std::vector<Request>& reqs) {
  if (m.rejected_requests == 0) {
    int64_t expected = 0;
    for (const auto& r : reqs) expected += ExpectedOutputTokens(r);
    EXPECT_EQ(m.total_output_tokens, expected);
  } else {
    EXPECT_GT(m.total_output_tokens, 0);
  }
}

/// Invariant 8: an engine's ITL sketch is exactly its per-token samples
/// added in order through the log formula the sketch's bucket table encodes:
/// count, min, max, sum and every bucket, bit for bit.
void ExpectItlSketchRebuilds(const ServingMetrics& m) {
  EXPECT_EQ(test::SketchRebuildDiff(m.itl_sketch, m.itl_ms), "");
}

/// Invariant 15: every class's cumulative TTFT and ITL sketches in `reg`,
/// merged, count exactly `m`'s TTFT and ITL samples in every bucket.
void ExpectClassSketchesRebuild(const obs::MetricsRegistry& reg, const ServingMetrics& m) {
  obs::Histogram ttft, itl;
  for (const auto& [name, labels] : reg.InstanceNames()) {
    if (name != "fi_ttft_ms" && name != "fi_itl_ms") continue;
    const obs::Sketch* s = reg.Find<obs::Sketch>(name, labels);
    ASSERT_NE(s, nullptr) << name << "{" << labels.Key() << "}";
    (name == "fi_ttft_ms" ? ttft : itl).MergeFrom(s->Cumulative());
  }
  EXPECT_EQ(test::SketchCountsDiff(ttft, m.ttft_ms), "") << "fi_ttft_ms";
  EXPECT_EQ(test::SketchCountsDiff(itl, m.itl_ms), "") << "fi_itl_ms";
}

/// Invariant 18's specs: one wildcard TTFT and one wildcard ITL SloSpec. A
/// separate stream keeps the trial's other draws as they were.
void AddWildcardSlos(uint64_t seed, EngineConfig& cfg) {
  Rng rng(seed ^ 0x5105EC5ull);
  for (const obs::SloSignal signal : {obs::SloSignal::kTtft, obs::SloSignal::kItl}) {
    obs::SloSpec spec;
    spec.name = obs::SloSignalStr(signal);
    spec.signal = signal;
    spec.threshold_ms =
        signal == obs::SloSignal::kTtft ? rng.Uniform(20.0, 2000.0) : rng.Uniform(5.0, 60.0);
    spec.objective = rng.Uniform(0.5, 0.999);
    spec.fast_window_s = rng.Uniform(0.2, 5.0);
    spec.slow_window_s = spec.fast_window_s * rng.Uniform(1.0, 6.0);
    spec.fast_burn = rng.Uniform(0.5, 10.0);
    spec.slow_burn = rng.Uniform(0.5, 10.0);
    cfg.telemetry.slos.push_back(spec);
  }
}

/// Invariant 18: each spec of `slo` counted every sample of its signal in
/// `m` once, and as bad exactly those above its threshold; "" when so.
std::string SloCountDiff(const obs::SloMonitor& slo, const ServingMetrics& m, double now_s) {
  std::string out;
  for (const obs::SloMonitor::SpecStatus& s : slo.Status(now_s)) {
    const bool ttft = s.spec->signal == obs::SloSignal::kTtft;
    const std::vector<double>& samples = ttft ? m.ttft_ms : m.itl_ms;
    const int64_t total = ttft ? static_cast<int64_t>(m.ttft_ms.size()) : m.ItlCount();
    const int64_t above = std::count_if(samples.begin(), samples.end(),
                                        [&s](double v) { return v > s.spec->threshold_ms; });
    if (s.good + s.bad != total || s.bad != above) {
      out += s.spec->name + ": good " + std::to_string(s.good) + " + bad " +
             std::to_string(s.bad) + " vs " + std::to_string(total) + " samples, " +
             std::to_string(above) + " above the threshold; ";
    }
  }
  return out;
}

/// Runs one engine trial. `one_token_requests` ends a few requests at their
/// first token; `pin`, when set, overrides the drawn config before the
/// workload is drawn; `drained`, when set, receives the metrics after the
/// drain.
void RunEngineTrial(uint64_t seed, bool check_step_equiv, bool one_token_requests = false,
                    void (*pin)(EngineConfig&) = nullptr,
                    ServingMetrics* drained = nullptr) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  EngineConfig cfg = RandomConfig(rng, seed);
  cfg.backend.composable = DrawComposable(seed);
  AddWildcardSlos(seed, cfg);
  if (pin != nullptr) pin(cfg);
  std::vector<Request> reqs = RandomWorkload(rng);
  if (one_token_requests) SetOneTokenRequests(seed, reqs);
  ExpectPricerMatchesReference(cfg, seed);

  // Shuffled admission order: the engine must behave identically no matter
  // the order simultaneous arrivals are enqueued in.
  std::vector<Request> shuffled = reqs;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
  }

  ServingEngine engine(cfg);
  g_current_engine = &engine;
  engine.Reset();
  for (const auto& r : shuffled) engine.Admit(r);
  BoundedDrain(engine, reqs);
  if (::testing::Test::HasFatalFailure()) {
    DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
    g_current_engine = nullptr;
    return;
  }

  const ServingMetrics& m = engine.Metrics();
  if (drained != nullptr) *drained = m;
  // Exact KV accounting on both tiers, and a clean structural page pool.
  EXPECT_EQ(engine.KvTokensInUse(), 0);
  EXPECT_EQ(engine.HostKvTokensInUse(), 0);
  EXPECT_EQ(engine.HostStoredBytes(), 0);
  EXPECT_EQ(engine.SpecKvLivePages(), 0);
  EXPECT_EQ(engine.PreemptedBranches(), 0);
  EXPECT_EQ(engine.QueuedTokens(), 0);

  // Every admitted request completed exactly once; rejections only under a
  // budget no request-sized engine could ever satisfy.
  EXPECT_EQ(m.ttft_ms.size() + static_cast<size_t>(m.rejected_requests),
            reqs.size());
  EXPECT_EQ(m.ttft_ms.size(), m.ttft_priority.size());
  ExpectOutputTokens(m, reqs);
  ExpectItlSketchRebuilds(m);
  EXPECT_EQ(StepShapeDiff(cfg, engine.TraceEvents()), "");
  ASSERT_NE(engine.Slo(), nullptr);
  EXPECT_EQ(SloCountDiff(*engine.Slo(), m, engine.Now()), "");
  // Restores must balance preemptions: nothing stays evicted.
  EXPECT_EQ(m.num_swap_restores + m.num_recompute_restores, m.num_preemptions);
  EXPECT_EQ(m.restored_pages == 0, m.num_swap_restores == 0);
  // Swap-time decomposition. Serialized swaps stall the engine while a copy
  // stream is busy: nothing hidden, no step overlapping a transfer, and a
  // stall of at most the total (the two directions overlap each other).
  // Overlap mode hides transfer time behind compute, bounded by the total
  // transfer time actually enqueued.
  EXPECT_GE(m.swap_hidden_ms, 0.0);
  EXPECT_GE(m.swap_stall_ms, 0.0);
  if (cfg.preemption.overlap_swap) {
    EXPECT_LE(m.swap_hidden_ms, m.total_swap_ms * (1.0 + 1e-9));
    EXPECT_GE(m.SwapOverlapEfficiency().value_or(0.0), 0.0);
    EXPECT_LE(m.SwapOverlapEfficiency().value_or(0.0), 1.0 + 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(m.swap_hidden_ms, 0.0);
    EXPECT_LE(m.swap_stall_ms, m.total_swap_ms * (1.0 + 1e-9));
    EXPECT_EQ(StepOverlappingCopy(engine.TraceEvents()), "");
  }
  // Host-codec accounting invariants across the random codec space.
  const auto& codec = cfg.preemption.host_codec;
  EXPECT_GE(m.evicted_stored_bytes, 0.0);
  EXPECT_GE(m.codec_encode_ms, 0.0);
  EXPECT_GE(m.codec_decode_ms, 0.0);
  EXPECT_TRUE(std::isfinite(m.MeanPageQuantMse()));
  EXPECT_GE(m.MeanPageQuantMse(), 0.0);
  if (!codec.enabled()) {
    // Codec off: the raw tier's byte series degenerate to logical == stored
    // and no codec time or quantization error may accrue.
    EXPECT_DOUBLE_EQ(m.evicted_stored_bytes, m.evicted_logical_bytes);
    EXPECT_DOUBLE_EQ(m.codec_encode_ms, 0.0);
    EXPECT_DOUBLE_EQ(m.codec_decode_ms, 0.0);
    EXPECT_EQ(m.quant_mse_pages, 0);
    EXPECT_DOUBLE_EQ(m.HostStoredRatio(), 1.0);
  } else if (m.evicted_logical_bytes > 0.0) {
    // Quantized pages store at most the int8/fp8 bound (< 1x of f16);
    // compress-only pages may pay the blob header on incompressible data
    // but never exceed the all-literals bound.
    EXPECT_LE(m.HostStoredRatio(),
              codec.quant != KvQuantFormat::kNone ? 1.0 : 1.5);
    EXPECT_GT(m.evicted_stored_bytes, 0.0);
    EXPECT_GT(m.codec_encode_ms, 0.0);
    if (codec.quant == KvQuantFormat::kNone) {
      EXPECT_EQ(m.quant_mse_pages, 0);
    }
    // Every branch's ratio mixes the table's levels, and so does their
    // logical-byte-weighted mean.
    const PageCodecTable& table = PageCodecTableFor(
        cfg.backend.kv_dtype, std::max(1, cfg.model.num_kv_heads / cfg.model.tensor_parallel),
        cfg.model.head_dim, cfg.page_size, codec);
    double lo = 1e300, hi = 0.0;
    for (int fill = 1; fill <= table.page_size(); ++fill) {
      const double r = static_cast<double>(table.stored_bytes[static_cast<size_t>(fill - 1)]) /
                       static_cast<double>(table.logical_bytes[static_cast<size_t>(fill - 1)]);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    EXPECT_GE(m.HostStoredRatio(), lo * (1.0 - 1e-12));
    EXPECT_LE(m.HostStoredRatio(), hi * (1.0 + 1e-12));
  }

  // The telemetry registry must reconcile with ServingMetrics on every
  // trial: each published counter equals its kMetricFields field bit for
  // bit, and the per-class series tile the aggregate token and sample counts
  // (invariant 15).
  {
    const obs::MetricsRegistry* reg = engine.Telemetry();
    ASSERT_NE(reg, nullptr);
    EXPECT_EQ(test::CounterFieldDiff(*reg, m), "");
    EXPECT_EQ(reg->CounterFamilyTotal("fi_tokens_total"),
              static_cast<double>(m.total_output_tokens));
    ExpectClassSketchesRebuild(*reg, m);
  }

  g_current_engine = nullptr;
  // Invariant 13: Run() hands its metrics out, sized once.
  ServingEngine reference(cfg);
  const ServingMetrics run = reference.Run(reqs);
  ServingEngine fresh(cfg);
  fresh.Reset();
  EXPECT_EQ(test::MetricsDiff(reference.Metrics(), fresh.Metrics()), "");
  if (run.rejected_requests == 0) {
    EXPECT_EQ(run.ttft_ms.capacity(), run.ttft_ms.size());
    EXPECT_EQ(run.ttft_priority.capacity(), run.ttft_priority.size());
    EXPECT_EQ(run.itl_ms.capacity(), run.itl_ms.size());
  }
  // Invariant 16: Run() took its metrics, and a later flush must not move
  // the registry's counters back.
  const std::string snapshot = reference.Telemetry()->JsonSnapshot(reference.Now());
  reference.StepTo(reference.Now());
  EXPECT_EQ(reference.Telemetry()->JsonSnapshot(reference.Now()), snapshot);
  if (!check_step_equiv) {
    if (FailedPartCount() > failed_before) {
      DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
    }
    return;
  }
  // Run() ≡ external Admit/StepTo loop with rng-jittered deadlines.
  const auto expect_matches_run = [&](const ServingMetrics& st, const char* driver) {
    SCOPED_TRACE(driver);
    EXPECT_DOUBLE_EQ(st.makespan_s, run.makespan_s);
    EXPECT_EQ(st.num_steps, run.num_steps);
    EXPECT_EQ(st.total_output_tokens, run.total_output_tokens);
    EXPECT_EQ(st.num_preemptions, run.num_preemptions);
    EXPECT_EQ(st.rejected_requests, run.rejected_requests);
    ASSERT_EQ(st.ttft_ms.size(), run.ttft_ms.size());
    for (size_t i = 0; i < st.ttft_ms.size(); ++i) {
      EXPECT_DOUBLE_EQ(st.ttft_ms[i], run.ttft_ms[i]) << "ttft " << i;
    }
    ASSERT_EQ(st.itl_ms.size(), run.itl_ms.size());
    for (size_t i = 0; i < st.itl_ms.size(); ++i) {
      EXPECT_DOUBLE_EQ(st.itl_ms[i], run.itl_ms[i]) << "itl " << i;
    }
  };
  ServingEngine stepped(cfg);
  stepped.Reset();
  for (const auto& r : shuffled) stepped.Admit(r);
  for (int64_t i = 0; i < 500000 && !stepped.Finished(); ++i) {
    stepped.StepTo(stepped.NextEventTime() + rng.Uniform(0.0, 0.05));
  }
  ASSERT_TRUE(stepped.Finished());
  expect_matches_run(stepped.Metrics(), "StepTo with all requests admitted up front");

  // ... and so does the trial's own bounded drain, which stepped to exactly
  // NextEventTime() the way the disaggregated driver steps its prefill pool.
  expect_matches_run(m, "StepTo(NextEventTime())");

  // ... and so does admitting requests as they arrive: StepTo(arrival), then
  // Admit. This replay differs from the cluster driver, which steps before
  // each request: requests that arrive together are admitted together here,
  // because Run()'s step at that instant admits them all, and stepping
  // between them runs that step with only the first. cluster_test's
  // DISABLED_SameTimeArrivalsShareOneStepLikeRun pins the driver's case.
  std::vector<Request> by_arrival = reqs;
  std::stable_sort(by_arrival.begin(), by_arrival.end(), [](const Request& a, const Request& b) {
    return a.arrival_s < b.arrival_s;
  });
  ServingEngine incremental(cfg);
  incremental.Reset();
  for (size_t i = 0; i < by_arrival.size(); ++i) {
    if (i == 0 || by_arrival[i].arrival_s != by_arrival[i - 1].arrival_s) {
      incremental.StepTo(by_arrival[i].arrival_s);
    }
    incremental.Admit(by_arrival[i]);
  }
  incremental.Drain();
  expect_matches_run(incremental.Metrics(), "StepTo(arrival) then Admit");
  if (FailedPartCount() > failed_before) {
    DumpTrialTrace({{"engine", engine.TraceEvents()}}, seed);
  }
}

/// Replays the router track of a prefix-affinity cluster run through one
/// reference tree per replica, updating it as ClusterEngine::Run updates its
/// mirror per routed request, and expects each kRouteDecision's `b` to equal
/// the reference's MatchPrefix (invariant 12).
void ExpectRouteDecisionsMatchReferenceMirrors(const cluster::ClusterConfig& cfg,
                                               const std::vector<Request>& reqs,
                                               const std::vector<obs::TraceTrack>& tracks) {
  const int page = cfg.engine.page_size;
  const int64_t capacity = cfg.prefix_cache_pages > 0
                               ? cfg.prefix_cache_pages
                               : ServingEngine(cfg.engine).KvTokenBudget() / page;
  std::vector<std::unique_ptr<test::ReferenceRadixTree>> mirrors;
  std::vector<int64_t> next_page(static_cast<size_t>(cfg.num_replicas), 0);
  for (int i = 0; i < cfg.num_replicas; ++i) {
    mirrors.push_back(std::make_unique<test::ReferenceRadixTree>(page));
  }
  std::map<int, const Request*> by_id;
  for (const Request& r : reqs) by_id[r.id] = &r;
  int64_t decisions = 0;
  for (const obs::TraceTrack& t : tracks) {
    if (t.name != "router") continue;
    for (const obs::TraceEvent& e : t.events) {
      if (e.name != TraceName::kRouteDecision) continue;
      ++decisions;
      const auto it = by_id.find(e.req);
      ASSERT_NE(it, by_id.end()) << "route decision for unknown request " << e.req;
      ASSERT_GE(e.a, 0);
      ASSERT_LT(e.a, cfg.num_replicas);
      const std::vector<int32_t>& prompt = it->second->prompt_tokens;
      if (prompt.empty()) continue;
      test::ReferenceRadixTree& mirror = *mirrors[static_cast<size_t>(e.a)];
      EXPECT_EQ(e.b, mirror.MatchPrefix(prompt).matched_tokens) << "request " << e.req;
      std::vector<int64_t> pages(prompt.size() / static_cast<size_t>(page));
      int64_t& next = next_page[static_cast<size_t>(e.a)];
      std::iota(pages.begin(), pages.end(), next);
      next += static_cast<int64_t>(pages.size());
      mirror.Insert(prompt, pages);
      if (mirror.TotalCachedPages() > capacity) {
        mirror.EvictLru(mirror.TotalCachedPages() - capacity);
      }
    }
  }
  EXPECT_EQ(decisions, static_cast<int64_t>(reqs.size()));
}

/// Invariant 14, on its own stream so the trial's other draws stay as-is.
void ExpectMultiTenantMatchesEagerReference(uint64_t seed) {
  Rng pick(seed ^ 0x7E4A47ull);
  serving::TenantPoolConfig tcfg;
  tcfg.num_tenants = static_cast<int>(pick.UniformInt(1, 64));
  tcfg.zipf_s = pick.Uniform(0.5, 1.5);
  tcfg.prefix_len_lo = pick.UniformInt(0, 512);
  tcfg.prefix_len_hi = tcfg.prefix_len_lo + pick.UniformInt(0, 512);
  const int n = static_cast<int>(pick.UniformInt(0, 200));
  Rng lazy(pick.NextU64());
  Rng eager = lazy;
  const auto got = serving::MultiTenantWorkload(lazy, n, 50.0, tcfg);
  const auto want = test::ReferenceMultiTenantWorkload(eager, n, 50.0, tcfg);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(test::RequestDiff(got[i], want[i]), "") << "request " << i;
  }
  EXPECT_TRUE(lazy == eager);
}

void RunClusterTrial(uint64_t seed, bool one_token_requests = false) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  g_current_engine = nullptr;  // Abort-path dump only covers engine trials.
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  cluster::ClusterConfig cfg;
  cfg.engine = RandomConfig(rng, seed);
  cfg.num_replicas = 4;
  const double u = rng.NextDouble();
  cfg.policy = u < 0.34   ? cluster::RouterPolicy::kRoundRobin
               : u < 0.67 ? cluster::RouterPolicy::kLeastLoaded
                          : cluster::RouterPolicy::kPrefixAffinity;
  ExpectPricerMatchesReference(cfg.engine, seed);
  // Half the prefix-affinity trials get mirrors small enough to evict on
  // most requests. A separate stream leaves the trial's other draws as-is.
  Rng mirror_rng(seed ^ 0x3A11C0ull);
  if (cfg.policy == cluster::RouterPolicy::kPrefixAffinity && mirror_rng.NextDouble() < 0.5) {
    cfg.prefix_cache_pages = mirror_rng.UniformInt(8, 64);
  }
  EXPECT_EQ(test::RadixOpsDiff(seed, 200), "");
  ExpectMultiTenantMatchesEagerReference(seed);

  serving::TenantPoolConfig tcfg;
  tcfg.num_tenants = static_cast<int>(rng.UniformInt(4, 12));
  auto reqs = serving::MultiTenantWorkload(
      rng, static_cast<int>(rng.UniformInt(30, 60)), rng.Uniform(20.0, 60.0), tcfg);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  if (one_token_requests) SetOneTokenRequests(seed, reqs);

  cluster::ClusterEngine cluster(cfg);
  const auto m = cluster.Run(reqs);

  // Routed everywhere it was asked; every admitted request completed.
  EXPECT_EQ(m.router.routed, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            reqs.size());
  ExpectOutputTokens(m.aggregate, reqs);
  for (const ServingMetrics& r : m.per_replica) ExpectItlSketchRebuilds(r);
  for (const obs::TraceTrack& t : cluster.LastTrace()) {
    EXPECT_EQ(StepShapeDiff(cfg.engine, t.events), "") << t.name;
  }
  EXPECT_EQ(m.aggregate.ttft_ms.size(), m.aggregate.ttft_priority.size());
  EXPECT_EQ(m.aggregate.num_swap_restores + m.aggregate.num_recompute_restores,
            m.aggregate.num_preemptions);
  int64_t per_replica_requests = 0;
  for (int64_t n : m.replica_requests) per_replica_requests += n;
  EXPECT_EQ(per_replica_requests, static_cast<int64_t>(reqs.size()));
  // The merged (replica-relabeled) registry reconciles with the aggregate.
  const obs::MetricsRegistry* reg = cluster.Telemetry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(test::CounterFieldDiff(*reg, m.aggregate), "");
  ExpectClassSketchesRebuild(*reg, m.aggregate);
  if (cfg.policy == cluster::RouterPolicy::kPrefixAffinity) {
    ExpectRouteDecisionsMatchReferenceMirrors(cfg, reqs, cluster.LastTrace());
  }

  if (FailedPartCount() > failed_before) {
    DumpTrialTrace(cluster.LastTrace(), seed);
  }
}

/// Drives one export-mode engine over `reqs` the way the disaggregated
/// driver drives a prefill replica, handing off after every step: a unit
/// ships to a decode engine when it fits there and a coin says so, else it
/// decodes locally. Every hand-off must empty the parked pool and drop the
/// source's KV by exactly the shipped units' charges; both engines drain
/// clean and together emit every expected token.
void ExpectHandOffsEmptyThePool(const EngineConfig& cfg, const std::vector<Request>& reqs,
                                uint64_t seed) {
  EngineConfig scfg = cfg;
  scfg.export_at_first_token = true;
  ServingEngine src(scfg);
  ServingEngine dst(cfg);
  src.Reset();
  dst.Reset();
  for (const auto& r : reqs) src.Admit(r);
  Rng coin(seed ^ 0x4A2D0FFull);
  gpusim::CopyStream link;
  for (int64_t i = 0; i < 500000 && !src.Finished(); ++i) {
    const int64_t kv_before = src.KvTokensInUse();
    int64_t shipped_charge = 0;
    src.HandOffExportable([&](const serving::MigrationUnit& u) {
      if (coin.NextDouble() < 0.3 || !dst.CanAcceptMigration(u)) return false;
      dst.AdmitMigratedUnit(u, link.Enqueue(u.export_s, 200.0));
      shipped_charge += u.kv_charge;
      return true;
    });
    EXPECT_EQ(src.MigratableUnitCount(), 0);
    EXPECT_EQ(src.KvTokensInUse(), kv_before - shipped_charge);
    const double next = src.NextEventTime();
    if (!std::isfinite(next)) break;
    src.StepTo(next);
    dst.StepTo(src.Now());
  }
  ASSERT_TRUE(src.Finished());
  dst.Drain();
  ASSERT_TRUE(dst.Finished());
  for (const ServingEngine* e : {&src, &dst}) {
    EXPECT_EQ(e->KvTokensInUse(), 0);
    EXPECT_EQ(e->HostKvTokensInUse(), 0);
    EXPECT_EQ(e->SpecKvLivePages(), 0);
  }
  const ServingMetrics& sm = src.Metrics();
  EXPECT_EQ(sm.num_migrations_out, dst.Metrics().num_migrations_in);
  if (sm.rejected_requests == 0) {
    int64_t expected = 0;
    for (const auto& r : reqs) expected += ExpectedOutputTokens(r);
    EXPECT_EQ(sm.total_output_tokens + dst.Metrics().total_output_tokens, expected);
  }
}

void RunDisaggTrial(uint64_t seed, bool one_token_requests = false) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  g_current_seed = seed;
  g_current_engine = nullptr;
  const int failed_before = FailedPartCount();
  Rng rng(seed);
  cluster::ClusterConfig cfg;
  // The whole random engine config space (chunking, spec, preemption, tight
  // budgets) soaks through the disaggregated driver: export/import must
  // compose with every subsystem.
  cfg.engine = RandomConfig(rng, seed);
  cfg.engine.backend.composable = DrawComposable(seed);
  cfg.num_replicas = 4;
  cfg.disaggregated = true;
  cfg.prefill_replicas = 1 + static_cast<int>(rng.UniformInt(0, 2));
  cfg.policy = rng.NextDouble() < 0.5 ? cluster::RouterPolicy::kRoundRobin
                                      : cluster::RouterPolicy::kLeastLoaded;
  ExpectPricerMatchesReference(cfg.engine, seed);

  serving::TenantPoolConfig tcfg;
  tcfg.num_tenants = static_cast<int>(rng.UniformInt(4, 12));
  auto reqs = serving::MultiTenantWorkload(
      rng, static_cast<int>(rng.UniformInt(30, 60)), rng.Uniform(20.0, 60.0), tcfg);
  // Three levels, so that retained units can form eviction chains (a
  // victim's room taken by a request that is evicted in turn).
  serving::AssignPriorities(rng, reqs, {0.6, 0.3, 0.1});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  if (one_token_requests) SetOneTokenRequests(seed, reqs);
  if (cfg.engine.backend.composable) {
    // A quarter of the requests decode sibling pairs, whose units can reach
    // a decode replica out of group order. Its own stream, as above.
    Rng pairs(seed ^ 0x9A125ull);
    for (auto& r : reqs) {
      if (pairs.NextDouble() < 0.25) r.parallel_n = 2;
    }
  }

  cluster::ClusterEngine cluster(cfg);
  const auto m = cluster.Run(reqs);

  // Conservation across pools: routed == workload, every admitted request
  // emitted its first token on the prefill pool, extraction == admission.
  EXPECT_EQ(m.router.routed, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(m.aggregate.ttft_ms.size() +
                static_cast<size_t>(m.aggregate.rejected_requests),
            reqs.size());
  ExpectOutputTokens(m.aggregate, reqs);
  for (const ServingMetrics& r : m.per_replica) ExpectItlSketchRebuilds(r);
  for (const obs::TraceTrack& t : cluster.LastTrace()) {
    EXPECT_EQ(StepShapeDiff(cfg.engine, t.events), "") << t.name;
  }
  EXPECT_EQ(m.decode_pool.ttft_ms.size(), 0u);
  EXPECT_EQ(m.prefill_pool.num_migrations_out, m.decode_pool.num_migrations_in);
  EXPECT_EQ(m.aggregate.num_swap_restores + m.aggregate.num_recompute_restores,
            m.aggregate.num_preemptions);
  // Migration time decomposition: hidden time never exceeds transfer time.
  EXPECT_GE(m.decode_pool.total_migration_ms, 0.0);
  EXPECT_LE(m.decode_pool.migration_hidden_ms,
            m.decode_pool.total_migration_ms + 1e-9);
  EXPECT_GE(m.decode_pool.migration_stall_ms, 0.0);
  // Prompts never route to the decode pool.
  for (int i = cfg.prefill_replicas; i < cfg.num_replicas; ++i) {
    EXPECT_EQ(m.replica_requests[static_cast<size_t>(i)], 0);
  }
  const obs::MetricsRegistry* reg = cluster.Telemetry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(test::CounterFieldDiff(*reg, m.aggregate), "");
  ExpectClassSketchesRebuild(*reg, m.aggregate);
  ExpectHandOffsEmptyThePool(cfg.engine, reqs, seed);

  if (FailedPartCount() > failed_before) {
    DumpTrialTrace(cluster.LastTrace(), seed);
  }
}

int TrialCount() {
  const char* env = std::getenv("FI_SOAK_TRIALS");
  if (env == nullptr) return 50;
  return std::max(0, std::atoi(env));
}

// The pinned cases are always on (CI's sanitizer jobs run exactly these by
// setting FI_SOAK_TRIALS=0). Each engine trial is checked for Run ≡ StepTo.
TEST(Soak, PinnedSeeds) {
  for (const uint64_t seed : {0xC0FFEEull, 0xBADF00Dull, 0x5EED42ull}) {
    RunEngineTrial(seed, /*check_step_equiv=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    RunClusterTrial(seed ^ 0xA5A5A5A5ull);
    if (::testing::Test::HasFatalFailure()) return;
    RunDisaggTrial(seed ^ 0xD15A66ull);
  }
}

/// The metered codec swap path: kAuto restores over the copy streams into a
/// tight int8+lz4 host tier, under a tight device budget. The host tier's
/// capacity adds 64 pages plus two per running branch to the token budget,
/// so a small max_running keeps it tight.
void PinMeteredCodecSwap(EngineConfig& cfg) {
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  cfg.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
  cfg.preemption.host_capacity_gb = 0.01;
  cfg.max_running = 8;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 6000);
}

TEST(Soak, PinnedMeteredCodecSwap) {
  ServingMetrics m;
  RunEngineTrial(0xC0DEC00Bull, /*check_step_equiv=*/true, /*one_token_requests=*/false,
                 PinMeteredCodecSwap, &m);
  // On this seed the host tier fills: without the capacity gate its meter
  // would reach 1.27x capacity. Swaps and recomputes both run.
  EXPECT_GT(m.num_swap_restores, 0);
  EXPECT_GT(m.num_recompute_restores, 0);
}

TEST(Soak, RandomizedEngineTrials) {
  const int trials = TrialCount();
  for (int i = 0; i < trials; ++i) {
    // Deterministic seed schedule: trial i always replays identically.
    RunEngineTrial(0x50AC0000ull + static_cast<uint64_t>(i),
                   /*check_step_equiv=*/i % 5 == 0, /*one_token_requests=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Soak, RandomizedClusterTrials) {
  const int trials = (TrialCount() + 5) / 6;  // ~1 cluster trial per 6 engine.
  for (int i = 0; i < trials; ++i) {
    RunClusterTrial(0xC105E0ull + static_cast<uint64_t>(i), /*one_token_requests=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Soak, RandomizedDisaggTrials) {
  const int trials = (TrialCount() + 5) / 6;
  for (int i = 0; i < trials; ++i) {
    RunDisaggTrial(0xD15A0000ull + static_cast<uint64_t>(i), /*one_token_requests=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace flashinfer

// End-to-end serving simulation: Llama-3.1-8B on a simulated H100 under a
// ShareGPT-like workload, comparing the FlashInfer backend against the
// Triton backend (the Fig. 7 setting at example scale), plus the chunked
// prefill / mixed-batching knob: BatchPolicy::kPrefillAlone runs whole
// prompts in steps that decode nothing, and its decode stalls show up in the
// ITL tail and the stall counters.
// The final section turns on engine tracing AND the live telemetry plane,
// re-runs the workload under KV pressure with three tenants and per-class
// SLOs, prints the per-request wall-clock decomposition recovered from the
// trace (queue wait / prefill / decode / preempted / restore), proves every
// stall counter increment is attributable to a trace event, prints the
// per-tenant SLO attainment / burn-rate table, and writes a Chrome/Perfetto
// trace file (open in ui.perfetto.dev — burn alerts land as instants on the
// same timeline) plus a telemetry registry JSON snapshot.
#include <cstdio>

#include "obs/export.h"
#include "obs/query.h"
#include "obs/slo.h"
#include "serving/engine.h"
#include "util/table.h"

using namespace flashinfer;
using namespace flashinfer::serving;

int main() {
  Rng rng(1234);
  const auto workload = ShareGptWorkload(rng, /*num_requests=*/120, /*request_rate=*/20.0);

  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();

  AsciiTable table({"backend", "median ITL (ms)", "median TTFT (ms)", "throughput (tok/s)",
                    "attention share"});
  for (const auto& backend : {FlashInferBackend(), TritonBackend()}) {
    cfg.backend = backend;
    ServingEngine engine(cfg);
    const auto m = engine.Run(workload);
    const double total_ms = m.total_attention_ms + m.total_gemm_ms + m.total_host_ms;
    table.AddRow({backend.name, AsciiTable::Num(m.MedianItlMs()),
                  AsciiTable::Num(m.MedianTtftMs()), AsciiTable::Num(m.ThroughputTokS(), 0),
                  AsciiTable::Num(100.0 * m.total_attention_ms / total_ms, 1) + "%"});
  }
  std::printf("Llama 3.1 8B, simulated 1xH100, 120 ShareGPT-like requests @ 20 req/s\n");
  table.Print();

  // Chunked prefill vs prefill-alone: same workload, same backend, only the
  // batch policy changes.
  std::printf("\nchunked prefill (StepPlan mixed batches) vs prefill-alone:\n");
  AsciiTable chunked({"mode", "P99 ITL (ms)", "max ITL (ms)", "mixed steps %",
                      "stalled branch-steps", "mean stalls/branch"});
  cfg.backend = FlashInferBackend();
  for (const BatchPolicy policy : {BatchPolicy::kPrefillAlone, BatchPolicy::kDecodePriority}) {
    cfg.batch_policy = policy;
    ServingEngine engine(cfg);
    const auto m = engine.Run(workload);
    chunked.AddRow({policy == BatchPolicy::kPrefillAlone ? "prefill-alone" : "chunked (2048)",
                    AsciiTable::Num(m.P99ItlMs(), 2), AsciiTable::Num(m.MaxItlMs(), 2),
                    AsciiTable::Num(100.0 * m.MixedStepFrac(), 1),
                    AsciiTable::Num(static_cast<double>(m.itl_stall_steps), 0),
                    AsciiTable::Num(m.MeanBranchStalls(), 2)});
  }
  chunked.Print();

  // Traced run under KV pressure: every fifth request is high-priority and
  // the KV budget is tight enough that serving them evicts low-priority
  // branches — the trace explains where every request's wall clock went and
  // why every stall happened.
  std::printf("\ntraced run (4k-token KV budget, 20%% high-priority, preemption on):\n");
  auto pressured = workload;
  for (size_t i = 0; i < pressured.size(); ++i) {
    pressured[i].priority = i % 5 == 0 ? 1 : 0;
    pressured[i].tenant = static_cast<int>(i % 3);  // Three tenant classes.
  }
  cfg.preemption.enabled = true;
  cfg.trace.enabled = true;
  // Live telemetry plane: windowed per-(tenant, priority) series plus
  // declarative SLOs — one TTFT objective per tenant and a global ITL
  // objective. Under this budget the preemption churn burns the TTFT error
  // budgets fast enough to fire multi-window burn alerts into the trace.
  cfg.telemetry.enabled = true;
  for (int tenant = 0; tenant < 3; ++tenant) {
    obs::SloSpec slo;
    slo.name = "tenant" + std::to_string(tenant) + "_ttft";
    slo.signal = obs::SloSignal::kTtft;
    slo.threshold_ms = 250.0;
    slo.objective = 0.99;
    slo.tenant = tenant;
    slo.fast_window_s = 2.0;
    slo.slow_window_s = 10.0;
    slo.fast_burn = 5.0;
    slo.slow_burn = 2.0;
    cfg.telemetry.slos.push_back(slo);
  }
  {
    obs::SloSpec slo;
    slo.name = "fleet_itl";
    slo.signal = obs::SloSignal::kItl;
    slo.threshold_ms = 50.0;
    slo.objective = 0.95;
    slo.fast_window_s = 2.0;
    slo.slow_window_s = 10.0;
    slo.fast_burn = 5.0;
    slo.slow_burn = 2.0;
    cfg.telemetry.slos.push_back(slo);
  }
  cfg.hbm_capacity_gb = HbmGbForKvBudget(cfg, 4000);
  ServingEngine traced(cfg);
  const auto m = traced.Run(pressured);
  const obs::TraceQuery query(traced.TraceEvents());
  std::printf("%s", query.BreakdownTable(/*max_rows=*/12).c_str());
  std::printf(
      "\nstall attribution: %lld ITL stall steps, %lld unexplained; "
      "%lld preempt stall steps, %lld unexplained\n",
      static_cast<long long>(query.TotalItlStallSteps()),
      static_cast<long long>(query.UnexplainedItlStalls().size()),
      static_cast<long long>(query.TotalPreemptStallSteps()),
      static_cast<long long>(query.UnexplainedPreemptStalls().size()));
  std::printf("(metrics agree: itl_stall_steps=%lld preempt_stall_steps=%lld)\n",
              static_cast<long long>(m.itl_stall_steps),
              static_cast<long long>(m.preempt_stall_steps));
  // Per-tenant SLO attainment and burn rates over the whole run; alerts are
  // the edge-triggered instants also visible on the Perfetto timeline.
  std::printf("\nSLO attainment (objective: TTFT<=250ms @99%% per tenant, "
              "ITL<=50ms @95%% fleet-wide):\n");
  AsciiTable slo_table({"slo", "signal", "good", "bad", "attainment %",
                        "fast burn", "slow burn", "alerts"});
  for (const auto& s : traced.Slo()->Status(m.makespan_s)) {
    slo_table.AddRow({s.spec->name, obs::SloSignalStr(s.spec->signal),
                      AsciiTable::Num(static_cast<double>(s.good), 0),
                      AsciiTable::Num(static_cast<double>(s.bad), 0),
                      AsciiTable::Num(100.0 * s.attainment, 1),
                      AsciiTable::Num(s.fast_burn, 2), AsciiTable::Num(s.slow_burn, 2),
                      AsciiTable::Num(static_cast<double>(s.alerts), 0)});
  }
  slo_table.Print();
  int64_t alert_instants = 0;
  for (const auto& e : traced.TraceEvents()) {
    if (e.name == obs::TraceName::kSloAlert) ++alert_instants;
  }
  std::printf("burn-rate alerts on the trace timeline: %lld\n",
              static_cast<long long>(alert_instants));

  const char* trace_path = "serving_sim.trace.json";
  if (obs::WritePerfettoFile(trace_path,
                             {{"engine", traced.TraceEvents()}})) {
    std::printf("wrote %s — open in ui.perfetto.dev\n", trace_path);
  }
  const char* metrics_path = "serving_sim.metrics.json";
  if (std::FILE* f = std::fopen(metrics_path, "w")) {
    const std::string snap = traced.Telemetry()->JsonSnapshot(m.makespan_s);
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fclose(f);
    std::printf("wrote %s — windowed per-tenant registry snapshot\n", metrics_path);
  }
  return 0;
}

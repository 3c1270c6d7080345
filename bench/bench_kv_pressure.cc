// KV-pressure survival bench: priority preemption + two-tier KV vs the
// pre-preemption engine that *wedged* (loud FI_CHECK abort) whenever a tight
// kv_budget stranded admission.
//
// Three axes:
//   1. kv_budget sweep x priority mix — the seed engine's wedge condition
//      (any request whose KV need exceeds the total budget) is evaluated
//      analytically per budget point (running it would abort the process);
//      the preempting engine must keep completing the feasible workload and
//      protect the high-priority class's TTFT tail.
//   2. restore-policy crossover — victims with short evicted contexts should
//      be cheaper to RECOMPUTE (chunked prefill rides under the weight-
//      streaming floor the mixed steps pay anyway), victims with long
//      contexts cheaper to SWAP (PCIe bytes scale linearly; prefill compute
//      does not stay under the floor). kAuto must track the winner.
//   3. goodput gate — at a budget where the seed engine wedges, the
//      preempting engine sustains >= 70% of the unconstrained-budget
//      tokens/s on the same feasible workload.
//
// Usage: bench_kv_pressure [--quick] [--json <path>] [--trace <path>]
//
// --trace re-runs the pressure workload on a 2-replica preemption-enabled
// cluster with tracing on and writes a Chrome/Perfetto trace-event JSON
// artifact (open in ui.perfetto.dev); CI schema-checks it.
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "obs/export.h"
#include "serving/engine.h"

using namespace flashinfer;
using namespace flashinfer::serving;

namespace {

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

/// The pre-preemption (seed) engine aborted when a request's admission need
/// (input + decode slack) exceeded the total budget and the engine drained
/// around it. Evaluated analytically — the abort would kill this process.
bool SeedEngineWedges(const std::vector<Request>& reqs, int64_t budget) {
  for (const auto& r : reqs) {
    if (r.input_len + 8 > budget) return true;
  }
  return false;
}

/// Mixed-priority traffic with a couple of oversized prompts that wedge the
/// seed engine at tight budgets.
std::vector<Request> PressureWorkload(Rng& rng, int num_normal, double hi_frac) {
  auto reqs = UniformWorkload(rng, num_normal, 25.0, 256, 1024, 96);
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].priority = rng.NextDouble() < hi_frac ? 1 : 0;
  }
  // Two oversized prompts mid-stream: infeasible at tight budgets (the seed
  // engine's wedge), fine at loose ones.
  for (int i = 0; i < 2; ++i) {
    Request r;
    r.id = num_normal + i;
    r.arrival_s = 0.8 + 0.9 * i;
    r.input_len = 16000;
    r.output_len = 32;
    r.priority = 0;
    reqs.push_back(r);
  }
  return reqs;
}

/// Requests that are feasible at every budget point in the sweep (so
/// tokens/s comparisons across budgets cover identical work).
std::vector<Request> FeasibleSubset(const std::vector<Request>& reqs, int64_t budget) {
  std::vector<Request> out;
  for (const auto& r : reqs) {
    if (r.input_len + 8 + r.output_len <= budget) out.push_back(r);
  }
  return out;
}

/// Crossover scenario: long-lived low-priority victims with context length
/// `ctx`, preempted early by high-priority bursts and decoding long past the
/// last burst — the victims' completion IS the makespan, so every eviction
/// and restore lands on the critical path and the restore policy's cost is
/// what separates the runs.
constexpr int64_t kVictimOutput = 600;

std::vector<Request> CrossoverWorkload(int64_t ctx, int num_victims, int num_bursts) {
  std::vector<Request> reqs;
  for (int i = 0; i < num_victims; ++i) {
    Request r;
    r.id = i;
    r.arrival_s = 0.0;
    r.input_len = ctx;
    r.output_len = kVictimOutput;
    r.priority = 0;
    reqs.push_back(r);
  }
  for (int i = 0; i < num_bursts; ++i) {
    Request r;
    r.id = num_victims + i;
    // Early, closely spaced bursts: victims are evicted while their context
    // is still near `ctx` (it grows with every decoded token).
    r.arrival_s = 0.4 + 0.3 * i;
    r.input_len = 2 * ctx;  // Needs ~2 victims' worth of KV.
    r.output_len = 16;
    r.priority = 1;
    reqs.push_back(r);
  }
  return reqs;
}

ServingMetrics RunPreempting(const std::vector<Request>& reqs, int64_t budget,
                             RestorePolicy restore, bool overlap_swap = false) {
  EngineConfig cfg = BaseConfig();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = restore;
  cfg.preemption.overlap_swap = overlap_swap;
  cfg.hbm_capacity_gb = HbmGbForKvBudget(cfg, budget);
  return ServingEngine(cfg).Run(reqs);
}

const char* RestoreName(RestorePolicy p) {
  switch (p) {
    case RestorePolicy::kSwap: return "swap";
    case RestorePolicy::kRecompute: return "recompute";
    case RestorePolicy::kAuto: return "auto";
  }
  return "?";
}

}  // namespace

/// Traced 2-replica cluster over the feasible pressure workload; the exported
/// Perfetto JSON is the CI trace artifact (replica step/phase/KV tracks plus
/// the router-decision track).
bool WriteTraceArtifact(const char* path, const char* metrics_path,
                        const std::vector<Request>& reqs, int64_t budget) {
  cluster::ClusterConfig ccfg;
  ccfg.engine = BaseConfig();
  ccfg.engine.preemption.enabled = true;
  ccfg.engine.hbm_capacity_gb = HbmGbForKvBudget(ccfg.engine, budget);
  ccfg.engine.trace.enabled = true;
  // Telemetry rides along: the same run also produces the merged-registry
  // snapshot artifact (per-replica windowed counters/sketches under
  // replica="i" labels) when --metrics is given.
  ccfg.engine.telemetry.enabled = true;
  ccfg.num_replicas = 2;
  cluster::ClusterEngine engine(ccfg);
  const auto m = engine.Run(FeasibleSubset(reqs, budget));
  if (!obs::WritePerfettoFile(path, engine.LastTrace())) {
    std::printf("FAILED to write trace artifact to %s\n", path);
    return false;
  }
  std::printf("\ntrace artifact: %s (%zu tracks, %lld preemptions traced)\n",
              path, engine.LastTrace().size(),
              static_cast<long long>(m.aggregate.num_preemptions));
  if (metrics_path != nullptr) {
    std::FILE* f = std::fopen(metrics_path, "w");
    if (f == nullptr) {
      std::printf("FAILED to write metrics snapshot to %s\n", metrics_path);
      return false;
    }
    const std::string snap = engine.Telemetry()->JsonSnapshot(m.makespan_s);
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fclose(f);
    std::printf("metrics snapshot: %s\n", metrics_path);
  }
  return true;
}

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");
  const char* trace_path = bench::ArgValue(argc, argv, "--trace");

  bench::Banner("KV pressure",
                "priority preemption + swap-vs-recompute over a two-tier KV");
  bench::Note("Llama 3.1 8B on H100. The seed engine aborts (FI_CHECK) whenever a");
  bench::Note("request's KV need exceeds the budget; the preempting engine rejects");
  bench::Note("infeasible requests, evicts lowest-priority-youngest branches for");
  bench::Note("blocked higher-priority arrivals, and restores them by swap or");
  bench::Note("recompute, whichever the cost model prices cheaper.");

  bench::JsonResult json;
  json.Add("bench", std::string("kv_pressure"));
  json.Add("quick", quick ? 1.0 : 0.0);

  const int num_normal = quick ? 40 : 80;
  Rng rng(4242);
  const auto workload = PressureWorkload(rng, num_normal, 0.2);

  // --- 1. kv_budget sweep: graceful degradation where the seed wedges. -----
  std::printf("\n--- kv_budget sweep (20%% high-priority traffic, auto restore) ---\n");
  AsciiTable bt({"budget (tok)", "seed engine", "tok/s", "preempt", "rejected",
                 "hi P95 TTFT", "lo P95 TTFT", "swap ms", "recompute tok"});
  const std::vector<int64_t> budgets = {5000, 8000, 14000, 400000};
  // The goodput gate runs at the tightest budget that still wedges the seed
  // engine while leaving enough pages for real batching (the 5000 row shows
  // degradation much deeper into pressure).
  const int64_t gate_budget = 14000;
  double tight_tok_s = 0.0, loose_tok_s = 0.0;
  bool tight_wedges_seed = false;
  int64_t tight_preemptions = 0, tight_completed = 0, tight_feasible = 0;
  for (const int64_t budget : budgets) {
    const bool wedges = SeedEngineWedges(workload, budget);
    const auto m = RunPreempting(workload, budget, RestorePolicy::kAuto);
    // The throughput gate compares identical work across budgets: the
    // feasible subset (everything at loose budgets, all but the oversized
    // prompts at tight ones).
    if (budget == gate_budget) {
      const auto feasible = FeasibleSubset(workload, budget);
      tight_tok_s = RunPreempting(feasible, budget, RestorePolicy::kAuto)
                        .ThroughputTokS();
      tight_wedges_seed = wedges;
      tight_preemptions = m.num_preemptions;
      tight_completed = static_cast<int64_t>(m.ttft_ms.size());
      tight_feasible = static_cast<int64_t>(feasible.size());
    }
    if (budget == budgets.back()) {
      const auto loose_feasible = FeasibleSubset(workload, gate_budget);
      loose_tok_s = RunPreempting(loose_feasible, budget, RestorePolicy::kAuto)
                        .ThroughputTokS();
    }
    bt.AddRow({AsciiTable::Num(static_cast<double>(budget), 0),
               wedges ? "WEDGES (FI_CHECK abort)" : "completes",
               AsciiTable::Num(m.ThroughputTokS(), 0),
               AsciiTable::Num(static_cast<double>(m.num_preemptions), 0),
               AsciiTable::Num(static_cast<double>(m.rejected_requests), 0),
               AsciiTable::Num(m.TtftPercentileMsForPriority(1, 0.95), 0),
               AsciiTable::Num(m.TtftPercentileMsForPriority(0, 0.95), 0),
               AsciiTable::Num(m.total_swap_ms, 1),
               AsciiTable::Num(static_cast<double>(m.recompute_tokens), 0)});
    const std::string key = "budget" + std::to_string(budget);
    json.Add(key + "_seed_wedges", wedges ? 1.0 : 0.0);
    json.Add(key + "_tok_s", m.ThroughputTokS());
    json.Add(key + "_preemptions", static_cast<double>(m.num_preemptions));
    json.Add(key + "_rejected", static_cast<double>(m.rejected_requests));
    json.Add(key + "_hi_p95_ttft_ms", m.TtftPercentileMsForPriority(1, 0.95));
    json.Add(key + "_lo_p95_ttft_ms", m.TtftPercentileMsForPriority(0, 0.95));
  }
  bt.Print();
  bench::Note("\nexpected shape: the seed engine wedges at every budget the 8k");
  bench::Note("prompts cannot fit; the preempting engine keeps serving (rejecting");
  bench::Note("only the infeasible prompts) and the high-priority TTFT tail stays");
  bench::Note("flat while the low class absorbs the pressure.");

  // --- 2. Priority mix at the tight budget. --------------------------------
  std::printf("\n--- priority mix @ %lld-token budget ---\n",
              static_cast<long long>(budgets.front()));
  AsciiTable pt({"high-pri share", "preempt", "hi P95 TTFT", "lo P95 TTFT",
                 "preempt stall steps"});
  bool mix_monotone = true;
  int64_t prev_preempt = -1;
  for (const double frac : {0.0, 0.1, 0.3}) {
    Rng mix_rng(777);
    const auto w = PressureWorkload(mix_rng, num_normal, frac);
    const auto m = RunPreempting(w, budgets.front(), RestorePolicy::kAuto);
    pt.AddRow({bench::Pct(frac, 0), AsciiTable::Num(static_cast<double>(m.num_preemptions), 0),
               frac > 0.0 ? AsciiTable::Num(m.TtftPercentileMsForPriority(1, 0.95), 0)
                          : std::string("-"),
               AsciiTable::Num(m.TtftPercentileMsForPriority(0, 0.95), 0),
               AsciiTable::Num(static_cast<double>(m.preempt_stall_steps), 0)});
    json.Add("mix" + std::to_string(static_cast<int>(frac * 100)) + "_preemptions",
             static_cast<double>(m.num_preemptions));
    if (frac == 0.0 && m.num_preemptions != 0) mix_monotone = false;
    if (prev_preempt >= 0 && m.num_preemptions < prev_preempt) mix_monotone = false;
    prev_preempt = m.num_preemptions;
  }
  pt.Print();
  bench::Note("\nexpected shape: no high-priority traffic -> no preemptions (equal");
  bench::Note("priorities queue FIFO); more interactive share -> more evictions.");

  // --- 3. Swap-vs-recompute crossover. -------------------------------------
  std::printf("\n--- restore-policy crossover (evicted-context length sweep) ---\n");
  AsciiTable ct({"ctx (tok)", "policy", "makespan s", "preempt", "swap ms",
                 "recompute tok", "tok/s"});
  const int num_victims = 6;
  const int num_bursts = quick ? 4 : 6;
  double short_swap_s = 0.0, short_recompute_s = 0.0, short_auto_s = 0.0;
  double long_swap_s = 0.0, long_recompute_s = 0.0, long_auto_s = 0.0;
  const int64_t short_ctx = 256, long_ctx = 4096;
  for (const int64_t ctx : {short_ctx, int64_t{1024}, long_ctx}) {
    // Budget: all victims resident with (almost) nothing to spare, so every
    // burst must evict ceil(burst_need / victim_reserve) >= 1 of them.
    const int64_t victim_reserve = ctx + kVictimOutput + 8;
    const int64_t budget = num_victims * victim_reserve + 64;
    const auto w = CrossoverWorkload(ctx, num_victims, num_bursts);
    for (const RestorePolicy policy :
         {RestorePolicy::kSwap, RestorePolicy::kRecompute, RestorePolicy::kAuto}) {
      const auto m = RunPreempting(w, budget, policy);
      ct.AddRow({AsciiTable::Num(static_cast<double>(ctx), 0), RestoreName(policy),
                 AsciiTable::Num(m.makespan_s, 3),
                 AsciiTable::Num(static_cast<double>(m.num_preemptions), 0),
                 AsciiTable::Num(m.total_swap_ms, 1),
                 AsciiTable::Num(static_cast<double>(m.recompute_tokens), 0),
                 AsciiTable::Num(m.ThroughputTokS(), 0)});
      const std::string key =
          "ctx" + std::to_string(ctx) + "_" + RestoreName(policy);
      json.Add(key + "_makespan_s", m.makespan_s);
      json.Add(key + "_preemptions", static_cast<double>(m.num_preemptions));
      json.Add(key + "_swap_ms", m.total_swap_ms);
      json.Add(key + "_recompute_tokens", static_cast<double>(m.recompute_tokens));
      if (ctx == short_ctx) {
        if (policy == RestorePolicy::kSwap) short_swap_s = m.makespan_s;
        if (policy == RestorePolicy::kRecompute) short_recompute_s = m.makespan_s;
        if (policy == RestorePolicy::kAuto) short_auto_s = m.makespan_s;
      }
      if (ctx == long_ctx) {
        if (policy == RestorePolicy::kSwap) long_swap_s = m.makespan_s;
        if (policy == RestorePolicy::kRecompute) long_recompute_s = m.makespan_s;
        if (policy == RestorePolicy::kAuto) long_auto_s = m.makespan_s;
      }
    }
  }
  ct.Print();
  bench::Note("\nexpected shape: short evicted contexts recompute nearly free (the");
  bench::Note("chunk GEMM hides under the weight-streaming floor) while swap pays");
  bench::Note("fixed PCIe latency; long contexts invert — prefill is compute-bound");
  bench::Note("but PCIe bytes stay linear. kAuto tracks the winner at both ends.");

  // --- 4. Overlapped swap transfers (PreemptionConfig::overlap_swap). ------
  // Both modes move swaps on per-direction copy streams. Serialized mode
  // stalls the whole engine while a stream is busy (stall == the streams'
  // busy time); overlap mode lets steps run under the transfers, so they
  // hide behind attention and only genuine copy-waits stall.
  std::printf("\n--- overlapped swap transfers vs serialized swaps ---\n");
  AsciiTable ot({"scenario", "mode", "makespan s", "tok/s", "swap ms",
                 "stall ms", "hidden ms", "overlap eff"});
  bool gate_overlap_stall = true, gate_overlap_tput = true;
  {
    const int64_t victim_reserve = long_ctx + kVictimOutput + 8;
    const int64_t xbudget = num_victims * victim_reserve + 64;
    const auto xw = CrossoverWorkload(long_ctx, num_victims, num_bursts);
    const auto feasible = FeasibleSubset(workload, gate_budget);
    const std::vector<std::pair<std::string,
                                std::pair<const std::vector<Request>*, int64_t>>>
        scenarios = {{"long-ctx crossover", {&xw, xbudget}},
                     {"tight-budget mix", {&feasible, gate_budget}}};
    for (const auto& [name, sw] : scenarios) {
      const auto serial = RunPreempting(*sw.first, sw.second, RestorePolicy::kSwap,
                                        /*overlap_swap=*/false);
      const auto over = RunPreempting(*sw.first, sw.second, RestorePolicy::kSwap,
                                      /*overlap_swap=*/true);
      for (const auto* m : {&serial, &over}) {
        ot.AddRow({name, m == &serial ? "serialized" : "overlap",
                   AsciiTable::Num(m->makespan_s, 3),
                   AsciiTable::Num(m->ThroughputTokS(), 0),
                   AsciiTable::Num(m->total_swap_ms, 1),
                   AsciiTable::Num(m->swap_stall_ms, 1),
                   AsciiTable::Num(m->swap_hidden_ms, 1),
                   m->SwapOverlapEfficiency()
                       ? AsciiTable::Num(*m->SwapOverlapEfficiency(), 2)
                       : "-"});
      }
      const std::string key =
          name.front() == 'l' ? "overlap_long" : "overlap_tight";
      json.Add(key + "_legacy_stall_ms", serial.swap_stall_ms);
      json.Add(key + "_stall_ms", over.swap_stall_ms);
      json.Add(key + "_hidden_ms", over.swap_hidden_ms);
      json.Add(key + "_efficiency", over.SwapOverlapEfficiency().value_or(0.0));
      json.Add(key + "_legacy_tok_s", serial.ThroughputTokS());
      json.Add(key + "_tok_s", over.ThroughputTokS());
      // Strictly less stall at matched (or better) throughput.
      if (!(serial.swap_stall_ms > 0.0 && over.swap_stall_ms < serial.swap_stall_ms)) {
        gate_overlap_stall = false;
      }
      if (!(over.ThroughputTokS() >= 0.999 * serial.ThroughputTokS())) {
        gate_overlap_tput = false;
      }
    }
  }
  ot.Print();
  bench::Note("\nexpected shape: identical swap bytes move in both modes, but the");
  bench::Note("overlap rows hide most of them behind compute (high overlap eff,");
  bench::Note("stall ms near zero) while serialized swaps stall for every byte.");

  // --- Gates. ---------------------------------------------------------------
  const double goodput_frac = loose_tok_s > 0.0 ? tight_tok_s / loose_tok_s : 0.0;
  const bool gate_wedge = tight_wedges_seed && tight_preemptions > 0 &&
                          tight_completed == tight_feasible;
  const bool gate_goodput = goodput_frac >= 0.70;
  const bool gate_short = short_recompute_s < short_swap_s;
  const bool gate_long = long_swap_s < long_recompute_s;
  const bool gate_auto =
      short_auto_s <= 1.02 * std::min(short_swap_s, short_recompute_s) &&
      long_auto_s <= 1.02 * std::min(long_swap_s, long_recompute_s);
  std::printf("\nseed wedges at %lld-token budget: %s; preempting engine completed"
              " %lld/%lld feasible requests with %lld preemptions\n",
              static_cast<long long>(budgets.front()), tight_wedges_seed ? "yes" : "NO",
              static_cast<long long>(tight_completed),
              static_cast<long long>(tight_feasible),
              static_cast<long long>(tight_preemptions));
  std::printf("goodput under pressure: %.1f%% of unconstrained tokens/s on the same"
              " feasible workload (acceptance: >= 70%%)\n",
              100.0 * goodput_frac);
  std::printf("crossover: short ctx recompute %.3fs vs swap %.3fs (acceptance: <);"
              " long ctx swap %.3fs vs recompute %.3fs (acceptance: <); auto tracks"
              " winner: %s\n",
              short_recompute_s, short_swap_s, long_swap_s, long_recompute_s,
              gate_auto ? "yes" : "NO");
  json.Add("gate_seed_wedges_tight", tight_wedges_seed ? 1.0 : 0.0);
  json.Add("gate_wedge_survived", gate_wedge ? 1.0 : 0.0);
  json.Add("gate_goodput_frac", goodput_frac);
  json.Add("gate_mix_monotone", mix_monotone ? 1.0 : 0.0);
  json.Add("gate_short_recompute_wins", gate_short ? 1.0 : 0.0);
  json.Add("gate_long_swap_wins", gate_long ? 1.0 : 0.0);
  json.Add("gate_auto_tracks_winner", gate_auto ? 1.0 : 0.0);
  std::printf("overlap-swap: stall strictly reduced in every scenario: %s; "
              "throughput held (>= 99.9%% of serialized): %s\n",
              gate_overlap_stall ? "yes" : "NO", gate_overlap_tput ? "yes" : "NO");
  json.Add("gate_overlap_stall_reduced", gate_overlap_stall ? 1.0 : 0.0);
  json.Add("gate_overlap_throughput_held", gate_overlap_tput ? 1.0 : 0.0);
  const bool ok = gate_wedge && gate_goodput && mix_monotone && gate_short &&
                  gate_long && gate_auto && gate_overlap_stall && gate_overlap_tput;
  json.Add("acceptance_passed", ok ? 1.0 : 0.0);
  // The artifact uses the tightest budget so the trace actually shows the
  // preemption/KV machinery in action (the 14k gate budget rarely preempts
  // once the load is split across two replicas).
  if (trace_path != nullptr &&
      !WriteTraceArtifact(trace_path, bench::ArgValue(argc, argv, "--metrics"),
                          workload, budgets.front())) {
    return 1;
  }
  json.Add("wall_ms", wall_timer.ElapsedMs());
  if (!json.WriteTo(json_path)) return 1;
  if (!ok) {
    std::printf("ACCEPTANCE FAILED\n");
    return 1;
  }
  if (const char* baseline = bench::ArgValue(argc, argv, "--check")) {
    if (!bench::CheckBaseline(baseline, json)) return 1;
  }
  return 0;
}

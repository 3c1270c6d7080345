// Chunked prefill + mixed batching bench: P99 inter-token latency vs
// throughput on a bursty long-prompt mix, against the prefill-alone batch
// policy (`BatchPolicy::kPrefillAlone`).
//
// Under prefill-alone, every burst of long prompts head-of-line-blocks the
// running decodes: branches stall through the burst's prefill steps and the
// ITL tail explodes. The StepPlan former instead feeds prompts into the
// running batch one chunk at a time, so every step mixes heterogeneous
// qo_lens — exactly the batch the paper's load-balanced scheduler (Sec.
// 3.3.1, Algorithm 1) absorbs in a single launch. The scheduler ablation
// extends Tables 6/7 to serving: on mixed chunk+decode batches the naive
// (FlashAttention-style, no KV splitting) scheduler pays visibly more
// attention time per step, so its end-to-end win from chunking is smaller
// than the balanced scheduler's.
//
// Gates (bursty workload, balanced scheduler, decode-priority policy):
//   - P99 ITL improves >= 2x at the headline chunk size vs prefill-alone,
//   - at within 5% of prefill-alone tokens/s,
//   - chunking eliminates every decode stall,
//   - naive-scheduler ablation: smaller P99 win + more attention time.
//
// Usage: bench_chunked_prefill [--quick] [--json <path>]
#include <string>

#include "bench_common.h"
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

ServingMetrics RunWith(const std::vector<Request>& w, int64_t chunk,
                       BatchPolicy policy, SchedulerKind sched) {
  EngineConfig cfg = BaseConfig();
  cfg.prefill_chunk_tokens = chunk;
  cfg.batch_policy = policy;
  cfg.backend.scheduler = sched;
  return ServingEngine(cfg).Run(w);
}

ServingMetrics RunAlone(const std::vector<Request>& w, SchedulerKind sched) {
  return RunWith(w, BaseConfig().prefill_chunk_tokens, BatchPolicy::kPrefillAlone, sched);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::WallTimer wall_timer;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ArgValue(argc, argv, "--json");

  bench::Banner("Chunked prefill",
                "mixed prefill/decode batching through a unified StepPlan");
  bench::Note("Llama 3.1 8B on H100; steady short-prompt decode traffic overlaid");
  bench::Note("with bursts of 4k-8k-token prompts. prefill-alone runs whole");
  bench::Note("prompts in steps that decode nothing (decodes stall behind each");
  bench::Note("burst's prefill).");

  const int scale = quick ? 2 : 1;
  BurstyPrefillConfig wcfg;
  wcfg.num_steady = 240 / scale;
  wcfg.steady_rate = 40.0;
  wcfg.steady_output = 64;
  wcfg.num_bursts = 8 / scale;
  wcfg.burst_size = 6;
  wcfg.first_burst_s = 1.0;
  wcfg.burst_period_s = 1.0;
  wcfg.burst_input_lo = 4096;
  wcfg.burst_input_hi = 8192;

  bench::JsonResult json;
  json.Add("bench", std::string("chunked_prefill"));
  json.Add("quick", quick ? 1.0 : 0.0);

  // --- Burstiness x chunking: where does mixed batching pay? ---------------
  // Same 48 (24 quick) long prompts per horizon, arriving solo (smooth),
  // in threes, or in sixes. The win is NOT a burst artifact: even one 4k-8k
  // prompt arriving alone stalls every running decode for its whole prefill
  // under prefill-alone, so the tail explodes across the whole axis; bursts
  // concentrate the same stall time into fewer, longer episodes (higher max
  // ITL per episode, slightly lower P99).
  struct Burstiness {
    const char* name;
    int burst_size;
    int num_bursts;
    double period_s;
  };
  const Burstiness bursty_axis[] = {{"smooth", 1, 48 / scale, 1.0 / 6.0},
                                    {"medium", 3, 16 / scale, 0.5},
                                    {"bursty", 6, 8 / scale, 1.0}};
  const int64_t headline_chunk = 1024;

  std::printf("\n--- burstiness x chunking (chunk %lld, decode-priority) ---\n",
              static_cast<long long>(headline_chunk));
  AsciiTable bt({"arrivals", "mode", "tok/s", "P50 ITL", "P99 ITL", "max ITL",
                 "stalled steps"});
  for (const auto& ba : bursty_axis) {
    BurstyPrefillConfig c = wcfg;
    c.burst_size = ba.burst_size;
    c.num_bursts = ba.num_bursts;
    c.burst_period_s = ba.period_s;
    Rng rng(2027);
    const auto w = BurstyLongPrefillWorkload(rng, c);
    const auto alone = RunAlone(w, SchedulerKind::kBalanced);
    const auto chunked = RunWith(w, headline_chunk, BatchPolicy::kDecodePriority,
                                 SchedulerKind::kBalanced);
    for (const auto* p : {&alone, &chunked}) {
      bt.AddRow({ba.name, p == &alone ? "prefill-alone" : "chunked",
                 AsciiTable::Num(p->ThroughputTokS(), 0),
                 AsciiTable::Num(p->MedianItlMs(), 2),
                 AsciiTable::Num(p->P99ItlMs(), 2), AsciiTable::Num(p->MaxItlMs(), 2),
                 AsciiTable::Num(static_cast<double>(p->itl_stall_steps), 0)});
    }
    json.Add(std::string(ba.name) + "_alone_p99_itl_ms", alone.P99ItlMs());
    json.Add(std::string(ba.name) + "_chunked_p99_itl_ms", chunked.P99ItlMs());
    json.Add(std::string(ba.name) + "_p99_win",
             chunked.P99ItlMs() > 0 ? alone.P99ItlMs() / chunked.P99ItlMs() : 0.0);
  }
  bt.Print();
  bench::Note("\nexpected shape: prefill-alone's tail explodes at every burstiness");
  bench::Note("level (any long prompt stalls the whole decode batch for its");
  bench::Note("prefill); chunked mixed batching is stall-free across the axis.");

  // --- Chunk size x policy sweep on the bursty mix. ------------------------
  Rng rng(2027);
  const auto w = BurstyLongPrefillWorkload(rng, wcfg);
  const auto alone = RunAlone(w, SchedulerKind::kBalanced);
  std::printf("\nprefill-alone baseline: %.0f tok/s, P99 ITL %.1f ms, max ITL"
              " %.1f ms, %lld stalled branch-steps\n",
              alone.ThroughputTokS(), alone.P99ItlMs(), alone.MaxItlMs(),
              static_cast<long long>(alone.itl_stall_steps));
  json.Add("alone_tok_s", alone.ThroughputTokS());
  json.Add("alone_p99_itl_ms", alone.P99ItlMs());
  json.Add("alone_max_itl_ms", alone.MaxItlMs());
  json.Add("alone_p99_ttft_ms", alone.TtftPercentileMs(0.99));

  AsciiTable t({"chunk", "policy", "tok/s", "P50 ITL", "P99 ITL", "max ITL",
                "P99 TTFT", "mixed %", "ITL win"});
  double headline_p99_win = 0.0, headline_tok_frac = 0.0;
  bool headline_stall_free = false;
  for (const int64_t chunk : {int64_t{512}, int64_t{1024}, int64_t{2048},
                              int64_t{4096}}) {
    for (const BatchPolicy policy :
         {BatchPolicy::kDecodePriority, BatchPolicy::kThroughputPriority}) {
      const auto m = RunWith(w, chunk, policy, SchedulerKind::kBalanced);
      const double win = m.P99ItlMs() > 0 ? alone.P99ItlMs() / m.P99ItlMs() : 0.0;
      const char* pname =
          policy == BatchPolicy::kDecodePriority ? "decode-pri" : "throughput-pri";
      t.AddRow({AsciiTable::Num(static_cast<double>(chunk), 0), pname,
                AsciiTable::Num(m.ThroughputTokS(), 0),
                AsciiTable::Num(m.MedianItlMs(), 2), AsciiTable::Num(m.P99ItlMs(), 2),
                AsciiTable::Num(m.MaxItlMs(), 2),
                AsciiTable::Num(m.TtftPercentileMs(0.99), 0),
                bench::Pct(m.MixedStepFrac(), 0), AsciiTable::Num(win, 1)});
      const std::string key = "chunk" + std::to_string(chunk) + "_" +
                              (policy == BatchPolicy::kDecodePriority ? "dp" : "tp");
      json.Add(key + "_tok_s", m.ThroughputTokS());
      json.Add(key + "_p99_itl_ms", m.P99ItlMs());
      json.Add(key + "_p99_ttft_ms", m.TtftPercentileMs(0.99));
      json.Add(key + "_mixed_frac", m.MixedStepFrac());
      json.Add(key + "_p99_win", win);
      if (chunk == headline_chunk && policy == BatchPolicy::kDecodePriority) {
        headline_p99_win = win;
        headline_tok_frac = m.ThroughputTokS() / alone.ThroughputTokS();
        headline_stall_free = m.itl_stall_steps == 0;
      }
    }
  }
  t.Print();
  bench::Note("\nexpected shape: every chunked point is stall-free; smaller chunks");
  bench::Note("buy a lower ITL tail at the cost of more steps (P50 rises);");
  bench::Note("throughput-priority drains burst TTFT faster but fattens the ITL");
  bench::Note("tail — the knob trades the two paper metrics against each other.");

  // --- Scheduler ablation (Tables 6/7 extended to serving): the naive
  // scheduler prices the SAME mixed chunk+decode batches without KV
  // splitting, so one long-KV work unit dominates each launch. ------------
  std::printf("\n--- scheduler ablation @ chunk %lld (decode-priority) ---\n",
              static_cast<long long>(headline_chunk));
  const auto naive_alone = RunAlone(w, SchedulerKind::kNaive);
  const auto naive_chunked = RunWith(w, headline_chunk, BatchPolicy::kDecodePriority,
                                     SchedulerKind::kNaive);
  const auto bal_chunked = RunWith(w, headline_chunk, BatchPolicy::kDecodePriority,
                                   SchedulerKind::kBalanced);
  const double bal_win = bal_chunked.P99ItlMs() > 0
                             ? alone.P99ItlMs() / bal_chunked.P99ItlMs()
                             : 0.0;
  const double naive_win = naive_chunked.P99ItlMs() > 0
                               ? naive_alone.P99ItlMs() / naive_chunked.P99ItlMs()
                               : 0.0;
  AsciiTable at({"scheduler", "mode", "tok/s", "P99 ITL", "attn time (ms)",
                 "ITL win"});
  at.AddRow({"balanced", "prefill-alone", AsciiTable::Num(alone.ThroughputTokS(), 0),
             AsciiTable::Num(alone.P99ItlMs(), 2),
             AsciiTable::Num(alone.total_attention_ms, 0), "-"});
  at.AddRow({"balanced", "chunked", AsciiTable::Num(bal_chunked.ThroughputTokS(), 0),
             AsciiTable::Num(bal_chunked.P99ItlMs(), 2),
             AsciiTable::Num(bal_chunked.total_attention_ms, 0),
             AsciiTable::Num(bal_win, 1)});
  at.AddRow({"naive", "prefill-alone", AsciiTable::Num(naive_alone.ThroughputTokS(), 0),
             AsciiTable::Num(naive_alone.P99ItlMs(), 2),
             AsciiTable::Num(naive_alone.total_attention_ms, 0), "-"});
  at.AddRow({"naive", "chunked", AsciiTable::Num(naive_chunked.ThroughputTokS(), 0),
             AsciiTable::Num(naive_chunked.P99ItlMs(), 2),
             AsciiTable::Num(naive_chunked.total_attention_ms, 0),
             AsciiTable::Num(naive_win, 1)});
  at.Print();
  const double naive_attn_frac =
      bal_chunked.total_attention_ms > 0
          ? naive_chunked.total_attention_ms / bal_chunked.total_attention_ms
          : 0.0;
  bench::Note("\nexpected shape: naive pays more attention time on every mixed");
  bench::Note("batch (heterogeneous qo tiles, no KV splitting), so its chunking");
  bench::Note("win lands below the balanced scheduler's.");

  // --- Gates. --------------------------------------------------------------
  std::printf("\nchunked @ %lld (balanced): P99 ITL win %.1fx (acceptance: >= 2x),"
              " tokens/s %.1f%% of prefill-alone (acceptance: >= 95%%)\n",
              static_cast<long long>(headline_chunk), headline_p99_win,
              100.0 * headline_tok_frac);
  std::printf("naive ablation: win %.1fx vs balanced %.1fx (acceptance: smaller),"
              " naive chunked attention %.2fx balanced (acceptance: >= 1.1x)\n",
              naive_win, bal_win, naive_attn_frac);
  json.Add("gate_p99_win", headline_p99_win);
  json.Add("gate_tok_frac", headline_tok_frac);
  json.Add("gate_stall_free", headline_stall_free ? 1.0 : 0.0);
  json.Add("gate_bal_win", bal_win);
  json.Add("gate_naive_win", naive_win);
  json.Add("gate_naive_attn_frac", naive_attn_frac);
  const bool ok = headline_p99_win >= 2.0 && headline_tok_frac >= 0.95 &&
                  headline_stall_free && naive_win < bal_win &&
                  naive_attn_frac >= 1.1;
  json.Add("acceptance_passed", ok ? 1.0 : 0.0);
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

// Real-time CPU micro-benchmarks (google-benchmark) of the actual kernels.
//
// Everything else in bench/ reports simulated-device numbers; this binary
// measures the real C++ implementations on the host CPU. The headline
// comparison is compiled (template-specialized) vs interpreted
// (std::function hooks) variant dispatch over the identical micro-kernel —
// the CPU analog of the FlashInfer-vs-FlexAttention gap of Tables 1-4 —
// plus the cost of the supporting machinery: state merging, scheduling (plan
// time), per-step attention and spec-verify pricing, per-token telemetry
// samples, KV storage conversions, radix-tree matching and eviction, and
// the set-up fi_bench times: tenant workload generation and admission.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>
#include <vector>

#include "core/attention_state.h"
#include "core/kernel_dispatch.h"
#include "core/microkernel.h"
#include "jit/interpreted.h"
#include "kvcache/radix.h"
#include "obs/metrics.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "serving/engine.h"
#include "serving/workload.h"
#include "spec/verify.h"
#include "util/float_types.h"
#include "util/rng.h"

// The shared problem fixture lives with the tests; reuse it here.
#include "../tests/test_util.h"

namespace flashinfer {
namespace {

test::Problem MakeDecodeProblem(int batch, int64_t kv_len) {
  test::ProblemSpec spec;
  spec.qo_lens.assign(static_cast<size_t>(batch), 1);
  spec.kv_lens.assign(static_cast<size_t>(batch), kv_len);
  spec.num_qo_heads = 8;
  spec.num_kv_heads = 2;
  spec.head_dim = 64;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 4;
  return test::MakeProblem(spec);
}

void BM_DecodeCompiledVariant(benchmark::State& state) {
  auto prob = MakeDecodeProblem(4, state.range(0));
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_DecodeCompiledVariant)->Arg(256)->Arg(1024);

void BM_DecodeInterpretedVariant(benchmark::State& state) {
  // FlexAttention-style: identical math, every logit routed through
  // std::function hooks.
  jit::SetInterpretedHooks({});
  auto prob = MakeDecodeProblem(4, state.range(0));
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 4;
  jit::InterpretedHooks hooks;
  hooks.logits_transform = [](const VariantParams& vp, float logit, const LogitsCtx&) {
    return logit * vp.sm_scale;
  };
  hooks.logits_mask = [](const VariantParams& vp, const LogitsCtx& ctx) {
    return DefaultMask(vp, ctx);
  };
  jit::SetInterpretedHooks(hooks);
  auto fn = jit::GetInterpretedKernel(true, false, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  jit::SetInterpretedHooks({});
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_DecodeInterpretedVariant)->Arg(256)->Arg(1024);

void BM_PrefillCompiled(benchmark::State& state) {
  test::ProblemSpec spec;
  spec.qo_lens = {state.range(0)};
  spec.kv_lens = {state.range(0)};
  spec.num_qo_heads = 4;
  spec.num_kv_heads = 4;
  spec.head_dim = 64;
  spec.page_size = 16;
  spec.kv_dtype = DType::kF16;
  spec.tile_q = 16;
  auto prob = test::MakeProblem(spec);
  auto p = prob.Params();
  p.variant.causal = true;
  KernelConfig cfg;
  cfg.tile_q = 16;
  cfg.tile_kv = 64;
  auto fn = GetBuiltinKernel(VariantKind::kVanilla, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
  const double flops = 4.0 * spec.num_qo_heads * 64.0 * state.range(0) * state.range(0) / 2.0;
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PrefillCompiled)->Arg(128)->Arg(512);

void BM_FusedRopeVariant(benchmark::State& state) {
  auto prob = MakeDecodeProblem(4, 512);
  auto p = prob.Params();
  p.variant.rope_theta = 10000.0f;
  KernelConfig cfg;
  cfg.tile_q = 4;
  auto fn = GetBuiltinKernel(VariantKind::kFusedRope, DType::kF16);
  for (auto _ : state) {
    test::RunSerial(p, cfg, fn);
    benchmark::DoNotOptimize(prob.o.data.data());
  }
}
BENCHMARK(BM_FusedRopeVariant);

void BM_MergeStates(benchmark::State& state) {
  Rng rng(7);
  const int d = 128;
  std::vector<AttentionState> parts;
  for (int i = 0; i < 8; ++i) {
    AttentionState s = AttentionState::Identity(d);
    for (auto& x : s.o) x = static_cast<float>(rng.Normal(0, 1));
    s.lse = static_cast<float>(rng.Normal(0, 2));
    parts.push_back(std::move(s));
  }
  for (auto _ : state) {
    auto merged = MergeAll(parts, d);
    benchmark::DoNotOptimize(merged.o.data());
  }
}
BENCHMARK(BM_MergeStates);

void BM_BalancedPlan(benchmark::State& state) {
  // The per-generation-step inspector cost (Sec. 3.3: runs on CPU each step,
  // amortized over layers through the plan cache).
  auto prob = MakeDecodeProblem(static_cast<int>(state.range(0)), 1024);
  auto p = prob.Params();
  KernelConfig cfg;
  cfg.tile_q = 4;
  cfg.tile_kv = 64;
  for (auto _ : state) {
    auto plan = MakeBalancedPlan(p, cfg, 132, int64_t{1} << 40);
    benchmark::DoNotOptimize(plan.cta_queues.data());
  }
}
BENCHMARK(BM_BalancedPlan)->Arg(8)->Arg(64)->Arg(256);

/// 16 skewed decode batches of `rows` rows: ShareGPT-like KV lengths, a
/// prompt plus part of its response.
std::vector<std::vector<int64_t>> ShareGptDecodeKvLens(int rows) {
  Rng rng(17);
  std::vector<std::vector<int64_t>> kv_lens(16);
  for (auto& batch : kv_lens) {
    for (const auto& r : serving::ShareGptWorkload(rng, rows, 1.0)) {
      batch.push_back(r.input_len + rng.UniformInt(0, r.output_len));
    }
  }
  return kv_lens;
}

void BM_ScheduleBalanced(benchmark::State& state) {
  // Algorithm 1 alone, listing its assignments as Make*Plan does: block
  // rows straight from a skewed decode batch of range(0) rows, range(1)
  // fused kv heads (8: Llama-3.1-8B; 2: one Llama-3.1-70B shard at TP=4;
  // 1: a single head, so CTAs are placed one by one rather than in groups
  // of gcd(132, heads)), a 132-CTA grid. The chunk costs mostly differ,
  // unlike BM_BalancedPlan's uniform KV, and each chunk is placed once per
  // kv head. The iterations cycle through 16 such batches: repeating a
  // single one lets the branch predictor learn its comparisons, which a
  // serving run never repeats.
  const std::vector<int64_t> qo_lens(static_cast<size_t>(state.range(0)), 1);
  const int num_heads = static_cast<int>(state.range(1));
  const auto kv_lens = ShareGptDecodeKvLens(static_cast<int>(state.range(0)));
  std::vector<BlockRowShape> rows;
  ChunkSchedule schedule;
  AssignmentList list(num_heads);
  int64_t items = 0;
  size_t next = 0;
  for (auto _ : state) {
    BlockRowsFromLengths(qo_lens, kv_lens[next], /*fuse=*/4, /*tile_q=*/16, /*causal=*/true,
                         &rows);
    ScheduleBalanced(rows, num_heads, /*tile_kv=*/64, /*num_ctas=*/132, &schedule, list);
    benchmark::DoNotOptimize(list.assignments().data());
    items += static_cast<int64_t>(list.assignments().size());
    next = (next + 1) % kv_lens.size();
  }
  state.SetItemsProcessed(items);
}
BENCHMARK(BM_ScheduleBalanced)->ArgsProduct({{64, 256, 1024}, {1, 2, 8}});

void BM_PriceStep(benchmark::State& state) {
  // The serving engine's whole per-step attention price (the time-only
  // entry: block rows, Algorithm 1 charging each chunk to its CTA as it is
  // placed, the makespan and the merge kernel) over BM_ScheduleBalanced's
  // 16 cycled decode batches: range(0) rows, range(1) kv heads with 4 qo
  // heads each (its 4 fused rows per request), on the H100.
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  std::vector<serving::AttnSimInput> batches;
  for (auto& kv : ShareGptDecodeKvLens(static_cast<int>(state.range(0)))) {
    serving::AttnSimInput in;
    in.num_kv_heads = static_cast<int>(state.range(1));
    in.num_qo_heads = 4 * in.num_kv_heads;
    in.qo_lens.assign(kv.size(), 1);
    in.kv_lens = std::move(kv);
    batches.push_back(std::move(in));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serving::BatchAttentionTimeUs(dev, backend, batches[next]));
    next = (next + 1) % batches.size();
  }
}
BENCHMARK(BM_PriceStep)->ArgsProduct({{64, 256}, {2, 8}});

void BM_PriceDecodeRun(benchmark::State& state) {
  // The same time-only price over one decode batch stepped as the engine
  // steps it: each iteration prices the batch, then grows every row's KV by
  // one token, for 512 steps before the batch starts over. Most steps keep
  // the previous step's chunk counts, so Algorithm 1 re-sorts the previous
  // key order instead of sorting afresh, which BM_PriceStep's unrelated
  // batches never do. range(0) rows of BM_PriceStep's first batch,
  // range(1) kv heads with 4 qo heads each, on the H100.
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  serving::AttnSimInput in;
  in.num_kv_heads = static_cast<int>(state.range(1));
  in.num_qo_heads = 4 * in.num_kv_heads;
  in.kv_lens = ShareGptDecodeKvLens(static_cast<int>(state.range(0)))[0];
  in.qo_lens.assign(in.kv_lens.size(), 1);
  const std::vector<int64_t> first = in.kv_lens;
  int step = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serving::BatchAttentionTimeUs(dev, backend, in));
    if (++step == 512) {
      in.kv_lens = first;
      step = 0;
    } else {
      for (auto& kv : in.kv_lens) ++kv;
    }
  }
}
BENCHMARK(BM_PriceDecodeRun)->ArgsProduct({{64, 256}, {2, 8}});

void BM_PriceComposableStep(benchmark::State& state) {
  // The same time-only price of a parallel-generation decode step (Fig. 10,
  // n = 4) with composable formats, shaped like the parallel_n4 workload's:
  // range(0) ShareGPT-like prompts, each decoded by 4 branches that share
  // its KV as one prefix group and have generated equally many tokens, so
  // the combined batch repeats each suffix length 4 times. Llama-3.1-8B
  // geometry (32 qo heads, 8 kv heads) on the H100; the iterations cycle
  // through 16 such batches.
  const auto dev = gpusim::H100Sxm80GB();
  auto backend = serving::FlashInferBackend();
  backend.composable = true;
  Rng rng(23);
  std::vector<serving::AttnSimInput> batches(16);
  for (auto& in : batches) {
    for (const auto& r : serving::ShareGptWorkload(rng, static_cast<int>(state.range(0)), 1.0)) {
      const int64_t kv = r.input_len + rng.UniformInt(1, std::max<int64_t>(r.output_len, 1));
      serving::AttnSimInput::Group group;
      group.prefix_len = r.input_len;
      for (int branch = 0; branch < 4; ++branch) {
        group.members.push_back(static_cast<int>(in.qo_lens.size()));
        in.qo_lens.push_back(1);
        in.kv_lens.push_back(kv);
      }
      in.groups.push_back(std::move(group));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(serving::BatchAttentionTimeUs(dev, backend, batches[next]));
    next = (next + 1) % batches.size();
  }
}
BENCHMARK(BM_PriceComposableStep)->Arg(16)->Arg(64);

void BM_PriceVerifyStep(benchmark::State& state) {
  // The serving engine's per-step verify price under speculative decoding
  // (the time-only entry: level 0 over every branch's context, the draft
  // tree's mask rows, lowered once, repeated per branch through Algorithm 1,
  // and the merge) at Llama-3.1-8B geometry on the H100: range(0) branches
  // whose contexts cycle through BM_ScheduleBalanced's 16 decode batches,
  // over a chain-4 tree (range(1) = 0) or a depth-2 x branching-2 tree (1).
  const auto dev = gpusim::H100Sxm80GB();
  const auto backend = serving::FlashInferBackend();
  const serving::AttnSimInput geometry;  // 32 qo heads, 8 kv heads, head dim 128.
  const spec::DraftTree tree(state.range(1) == 0 ? spec::TreeConfig{4, 1}
                                                 : spec::TreeConfig{2, 2});
  const auto mask = spec::LowerVerifyMask(tree, backend, geometry);
  const auto contexts = ShareGptDecodeKvLens(static_cast<int>(state.range(0)));
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serving::VerifyAttentionTimeUs(dev, backend, geometry, mask, contexts[next]));
    next = (next + 1) % contexts.size();
  }
}
BENCHMARK(BM_PriceVerifyStep)->ArgsProduct({{16, 64}, {0, 1}});

void BM_EngineRun(benchmark::State& state) {
  // One whole ServingEngine::Run over a fixed, seeded 200-request ShareGPT
  // workload on one Llama-3.1-8B replica (H100), the engine's step loop
  // end to end: admission, batch formation, the step price, the decode
  // commit and its samples. range(0) = 0 is the FlashInfer backend at 60
  // requests/s (fi_bench's sharegpt shape); 1 is parallel generation, n = 4
  // per request, on the composable backend at 24 requests/s (parallel_n4's).
  // The time is per run; per_step is the time per simulated step.
  const bool n4 = state.range(0) == 1;
  serving::EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  cfg.backend.composable = n4;
  Rng rng(37);
  const auto reqs = serving::ShareGptWorkload(rng, 200, n4 ? 24.0 : 60.0, n4 ? 4 : 1);
  serving::ServingEngine engine(cfg);
  int64_t steps = 0;
  for (auto _ : state) {
    const serving::ServingMetrics m = engine.Run(reqs);
    steps += m.num_steps;
    benchmark::DoNotOptimize(m.makespan_s);
  }
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EngineRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MultiTenantWorkload(benchmark::State& state) {
  // fi_bench's tenant_prefix window: 1,800 requests over 1,024 tenants at
  // Zipf 1.0, each prompt a tenant's system prompt and a user turn. A
  // tenant's prompt is drawn when a request first picks it; the stream
  // skips the rest. Every iteration generates the same seeded window. Each
  // window is freed only after the next is generated, so the allocator
  // reuses its pages instead of returning them to the system and faulting
  // them in again, as in fi_bench, where long-lived windows keep the heap.
  serving::TenantPoolConfig pool;
  pool.num_tenants = 1024;
  pool.zipf_s = 1.0;
  std::vector<serving::Request> window;
  for (auto _ : state) {
    Rng rng(53);
    window = serving::MultiTenantWorkload(rng, 1800, 300.0, pool);
    benchmark::DoNotOptimize(window.data());
  }
  state.SetItemsProcessed(state.iterations() * 1800);
}
BENCHMARK(BM_MultiTenantWorkload)->Unit(benchmark::kMillisecond);

void BM_AdmitInOrder(benchmark::State& state) {
  // fi_bench's sharegpt set-up: a fresh engine, then an Admit of each of
  // 1,800 ShareGPT requests in arrival order, each appended to the queue.
  // The time is per engine, construction included.
  serving::EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  Rng rng(47);
  const auto reqs = serving::ShareGptWorkload(rng, 1800, 60.0);
  for (auto _ : state) {
    serving::ServingEngine engine(cfg);
    for (const serving::Request& r : reqs) engine.Admit(r);
    benchmark::DoNotOptimize(engine.Finished());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(reqs.size()));
}
BENCHMARK(BM_AdmitInOrder)->Unit(benchmark::kMicrosecond);

/// 4096 ITL-like samples in ms, log-uniform from 1 ms (a decode step's gap)
/// to 1 s (a preemption stall).
std::vector<double> ItlSamples() {
  Rng rng(19);
  std::vector<double> samples(4096);
  for (double& v : samples) v = std::exp(rng.Uniform(0.0, std::log(1000.0)));
  return samples;
}

void BM_HistogramAdd(benchmark::State& state) {
  // One sample into the default-geometry log-bucketed histogram: what
  // ServingMetrics::AddItl pays for every committed token.
  const auto samples = ItlSamples();
  obs::Histogram h;
  benchmark::DoNotOptimize(&h);
  size_t next = 0;
  for (auto _ : state) {
    h.Add(samples[next]);
    benchmark::ClobberMemory();
    next = (next + 1) % samples.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void BM_SketchObserve(benchmark::State& state) {
  // One sample into a registry sketch (cumulative histogram plus a 10 s
  // window of 5 slots), as the engine's per-class ITL series takes them: 16
  // samples per 6 ms step at one timestamp, whose ring position is worked
  // out once, so a window slot is reused and cleared every ~5k samples.
  const auto samples = ItlSamples();
  const obs::WindowConfig window;
  obs::Sketch sketch(window);
  benchmark::DoNotOptimize(&sketch);
  size_t next = 0;
  double t_s = 0.0;
  obs::WindowPos at = window.PosAt(t_s);
  for (auto _ : state) {
    sketch.Observe(at, samples[next]);
    benchmark::ClobberMemory();
    next = (next + 1) % samples.size();
    if (next % 16 == 0) at = window.PosAt(t_s += 0.006);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchObserve);

/// Bytes the allocator has handed out and not taken back (mallinfo2: heap
/// chunks in use plus mmapped ones).
double HeapBytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

void BM_RegisterClassSeries(benchmark::State& state) {
  // N (tenant, priority) classes registered into a fresh registry through
  // the engine's class path: what a kv_pressure engine pays once per request
  // (every request is its own priority class there). The registry's
  // destruction is not timed; the engine's happens after its run.
  // heap_B_per_class: the heap the N classes hold, over N.
  const int n = static_cast<int>(state.range(0));
  const double before = HeapBytes();  // Every iteration frees what it takes.
  double bytes = 0.0;
  for (auto _ : state) {
    auto reg = std::make_unique<obs::MetricsRegistry>();
    for (int i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(serving::ClassSeries::Register(*reg, -1, i));
    }
    state.PauseTiming();
    bytes = HeapBytes() - before;
    reg.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["heap_B_per_class"] = bytes / n;
}
BENCHMARK(BM_RegisterClassSeries)->Arg(64)->Arg(400);

void BM_ClassLifecycle(benchmark::State& state) {
  // What a kv_pressure window pays per request class, all timed: N classes
  // registered into a fresh registry through the engine's class path, each
  // given one TTFT sample and 255 ITL samples (one token per commit, as
  // ClassSeries::ObserveTokens takes them) spread over three 2 s slots of
  // the default window, then the registry's destruction. The ITL gaps rise
  // from 20 to 160 ms with +-10% jitter, the 12-14 buckets most kv_pressure
  // classes span. heap_B_per_class: the heap the N classes hold before
  // destruction, over N.
  const int n = static_cast<int>(state.range(0));
  constexpr int kItl = 255;
  Rng rng(29);
  const obs::Histogram geometry;
  std::vector<double> itl_ms(kItl), itl_t(kItl);
  std::vector<int64_t> itl_bucket(kItl);
  for (int k = 0; k < kItl; ++k) {
    itl_ms[static_cast<size_t>(k)] = 20.0 * std::exp2(3.0 * k / kItl) * rng.Uniform(0.9, 1.1);
    itl_bucket[static_cast<size_t>(k)] = geometry.IndexOf(itl_ms[static_cast<size_t>(k)]);
    itl_t[static_cast<size_t>(k)] = 0.1 + 5.8 * (k + 1) / kItl;  // Epochs 0, 1 and 2.
  }
  const double before = HeapBytes();  // Every iteration frees what it takes.
  double bytes = 0.0;
  for (auto _ : state) {
    auto reg = std::make_unique<obs::MetricsRegistry>();
    for (int i = 0; i < n; ++i) {
      const serving::ClassSeries s = serving::ClassSeries::Register(*reg, -1, i);
      const obs::WindowPos first = reg->PosAt(0.1);
      s.ttft->Observe(first, 150.0);
      s.tokens->Inc(first);
      for (size_t k = 0; k < itl_ms.size(); ++k) {
        s.ObserveTokens(reg->PosAt(itl_t[k]), 1, itl_bucket[k], itl_ms[k]);
      }
    }
    state.PauseTiming();
    bytes = HeapBytes() - before;
    state.ResumeTiming();
    reg.reset();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["heap_B_per_class"] = bytes / n;
}
BENCHMARK(BM_ClassLifecycle)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_ObserveClassTokens(benchmark::State& state) {
  // One committed token per class for K classes at one instant (a decode
  // step of K branches, each its own class), through the engine's class
  // path; the instant advances one 6 ms step per iteration. Buckets are
  // looked up outside the loop: CommitDecode has them from ServingMetrics.
  const int k = static_cast<int>(state.range(0));
  const auto samples = ItlSamples();
  const obs::Histogram geometry;
  std::vector<int64_t> buckets;
  for (double v : samples) buckets.push_back(geometry.IndexOf(v));
  obs::MetricsRegistry reg;
  std::vector<serving::ClassSeries> series;
  for (int i = 0; i < k; ++i) series.push_back(serving::ClassSeries::Register(reg, -1, i));
  size_t next = 0;
  double t_s = 0.0;
  for (auto _ : state) {
    const obs::WindowPos at = reg.PosAt(t_s);
    for (const serving::ClassSeries& s : series) {
      s.ObserveTokens(at, 1, buckets[next], samples[next]);
      if (++next == samples.size()) next = 0;
    }
    t_s += 0.006;
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_ObserveClassTokens)->Arg(16)->Arg(256);

/// 4096 KV-like values, N(0, 2): one page's worth of keys to convert.
std::vector<float> KvValues() {
  Rng rng(23);
  std::vector<float> values(4096);
  for (float& v : values) v = static_cast<float>(rng.Normal(0.0, 2.0));
  return values;
}

/// Converts 4096 KV-like values into storage type T (arg 0, encode) or
/// back to float (arg 1, decode), the KV cache's store and load.
template <typename T>
void BM_Convert(benchmark::State& state) {
  const auto values = KvValues();
  std::vector<T> stored(values.size());
  for (size_t i = 0; i < values.size(); ++i) stored[i] = T(values[i]);
  std::vector<float> loaded(values.size());
  const bool decode = state.range(0) == 1;
  for (auto _ : state) {
    if (decode) {
      for (size_t i = 0; i < stored.size(); ++i) loaded[i] = static_cast<float>(stored[i]);
      benchmark::DoNotOptimize(loaded.data());
    } else {
      for (size_t i = 0; i < values.size(); ++i) stored[i] = T(values[i]);
      benchmark::DoNotOptimize(stored.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(values.size()));
}
BENCHMARK_TEMPLATE(BM_Convert, half_t)->ArgName("decode")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Convert, bf16_t)->ArgName("decode")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Convert, fp8_e4m3_t)->ArgName("decode")->Arg(0)->Arg(1);
BENCHMARK_TEMPLATE(BM_Convert, fp8_e5m2_t)->ArgName("decode")->Arg(0)->Arg(1);

void BM_RadixMatch(benchmark::State& state) {
  RadixTree tree(16);
  Rng rng(11);
  std::vector<int32_t> prefix(1024);
  for (auto& t : prefix) t = static_cast<int32_t>(rng.UniformInt(0, 31999));
  std::vector<int64_t> pages(64);
  for (size_t i = 0; i < pages.size(); ++i) pages[i] = static_cast<int64_t>(i);
  tree.Insert(prefix, pages);
  for (auto _ : state) {
    auto m = tree.MatchPrefix(prefix);
    benchmark::DoNotOptimize(m.pages.data());
  }
}
BENCHMARK(BM_RadixMatch);

void BM_RadixInsertEvict(benchmark::State& state) {
  // A router prefix mirror at capacity: each request inserts a fresh tail
  // behind a shared system prompt, then evicts back to capacity. Eviction
  // pops an index of leaves, but the time per iteration still rises with
  // the capacity (Arg, in pages) through cache misses: 0.41-0.66 us at
  // 1,024 pages against 0.59-1.07 us at 65,536 (Release, 4-vCPU Xeon VM).
  constexpr int kPage = 16;
  constexpr size_t kPrefixTokens = 4 * kPage;
  constexpr size_t kTailPages = 8;
  const int64_t capacity = state.range(0);
  RadixTree tree(kPage);
  Rng rng(13);
  std::vector<int32_t> prompt(kPrefixTokens + kTailPages * kPage);
  for (size_t i = 0; i < kPrefixTokens; ++i) {
    prompt[i] = static_cast<int32_t>(rng.UniformInt(0, 31999));
  }
  int32_t next_token = 32000;
  std::vector<int64_t> pages(prompt.size() / kPage);
  int64_t next_page = 0;
  auto insert_fresh = [&] {
    for (size_t i = kPrefixTokens; i < prompt.size(); ++i) prompt[i] = next_token++;
    std::iota(pages.begin(), pages.end(), next_page);
    next_page += static_cast<int64_t>(pages.size());
    tree.Insert(prompt, pages);
  };
  while (tree.TotalCachedPages() < capacity) insert_fresh();
  tree.EvictLru(tree.TotalCachedPages() - capacity);
  for (auto _ : state) {
    insert_fresh();
    auto freed = tree.EvictLru(tree.TotalCachedPages() - capacity);
    benchmark::DoNotOptimize(freed.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kTailPages));
}
BENCHMARK(BM_RadixInsertEvict)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_RadixRouteMix(benchmark::State& state) {
  // fi_bench's tenant_prefix routing: four prefix mirrors, each holding an
  // eighth of a replica's KV budget in pages, over prompts from 1,024 Zipf
  // 1.0 tenants. One iteration routes one request as ClusterEngine::Run
  // does: it peeks every mirror, then on the mirror with the longest cached
  // prefix (ties rotate with the request) inserts the prompt, reading the
  // cached prefix off the return, and evicts back to capacity.
  serving::EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  const int page = cfg.page_size;
  const int64_t capacity = serving::ServingEngine(cfg).KvTokenBudget() / page / 8;
  serving::TenantPoolConfig pool;
  pool.num_tenants = 1024;
  pool.zipf_s = 1.0;
  Rng rng(17);
  const auto requests = serving::MultiTenantWorkload(rng, 2048, 300.0, pool);
  constexpr size_t kMirrors = 4;
  std::deque<RadixTree> mirrors;  // A tree never moves.
  for (size_t i = 0; i < kMirrors; ++i) mirrors.emplace_back(page);
  std::vector<int64_t> no_page_ids;  // The mirrors never read page ids.
  size_t routed = 0;
  auto route = [&] {
    const auto& prompt = requests[routed % requests.size()].prompt_tokens;
    size_t target = 0;
    int64_t longest = -1;
    for (size_t k = 0; k < kMirrors; ++k) {
      const size_t i = (routed + k) % kMirrors;
      const int64_t matched = mirrors[i].PeekPrefixTokens(prompt);
      if (matched > longest) {
        target = i;
        longest = matched;
      }
    }
    ++routed;
    RadixTree& tree = mirrors[target];
    const size_t full_pages = prompt.size() / static_cast<size_t>(page);
    no_page_ids.resize(std::max(no_page_ids.size(), full_pages));
    benchmark::DoNotOptimize(static_cast<int64_t>(full_pages) - tree.Insert(prompt, no_page_ids));
    if (tree.TotalCachedPages() > capacity) {
      benchmark::DoNotOptimize(tree.EvictLru(tree.TotalCachedPages() - capacity).data());
    }
  };
  // Start with every mirror full, as tenant_prefix runs most of its time.
  while (std::any_of(mirrors.begin(), mirrors.end(), [&](const RadixTree& t) {
    return t.TotalCachedPages() < capacity;
  })) {
    route();
  }
  for (auto _ : state) route();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadixRouteMix);

}  // namespace
}  // namespace flashinfer

BENCHMARK_MAIN();

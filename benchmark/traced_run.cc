// The traced run. Everything here goes through the program's public API:
//
//   * single-engine workloads are driven with Admit() then
//     StepTo(NextEventTime()), one host-time span per call;
//   * each step's attention input is rebuilt from the engine's own trace
//     events (kStep, kChunk, first-token, finish, evict and restore events)
//     plus the benchmark's request lengths, and SimulateBatchAttention,
//     sparse::BuildBatchBsr, MakeBalancedPlan and SimExecutor::Makespan are
//     timed on it; every replayed step must price exactly to the engine's
//     kPhaseAttn span, and the sum to total_attention_ms;
//   * tenant_prefix replays every replica's router-side prefix mirror from
//     the kRouteDecision events (matched tokens must agree request by
//     request) and runs each replica standalone on the requests routed to it
//     (metrics must equal ClusterMetrics::per_replica);
//   * kv_pressure reruns with telemetry off (metrics must not change).
#include "traced_run.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "core/tile_heuristics.h"
#include "gpusim/executor.h"
#include "kvcache/radix.h"
#include "kvcache/ragged.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "sparse/bsr.h"

namespace fi_bench {

using namespace flashinfer;
using flashinfer::obs::TraceEvent;
using flashinfer::obs::TraceName;
using flashinfer::serving::AttnSimInput;
using flashinfer::serving::ServingEngine;

namespace {

// --- Spans ---------------------------------------------------------------

/// Host-time spans around calls into the program, kept in memory and written
/// once at the end as Chrome trace-event JSON (Perfetto loads it).
class SpanLog {
 public:
  SpanLog() : origin_s_(NowS()) {}

  /// Opens a span and returns its id; `req` is the request id or -1.
  int Begin(const char* name, int parent = -1, int req = -1) {
    spans_.push_back({name, NowS(), 0.0, parent, req});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double End(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_s = NowS();
    return s.end_s - s.start_s;
  }
  /// Records a span timed by the caller.
  void Add(const char* name, double start_s, double end_s, int parent, int req = -1) {
    spans_.push_back({name, start_s, end_s, parent, req});
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fi_bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                   "\"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, \"req\": %d}}%s\n",
                   s.name, (s.start_s - origin_s_) * 1e6, (s.end_s - s.start_s) * 1e6, i,
                   s.parent, s.req, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    int req;
  };
  double origin_s_;
  std::vector<Span> spans_;
};

/// Median (p = 0.5) or other linear-interpolated percentile; 0 when empty.
double Pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : serving::Percentile(v, p);
}

double MeanOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Reports only the first failed expectation of one replay: once it has
/// diverged, every later step would repeat the failure.
class FirstFailure {
 public:
  FirstFailure(std::string label, Checks& checks) : label_(std::move(label)), checks_(checks) {}

  bool operator()(bool ok, const std::string& what) {
    if (ok || failed_) return ok;
    failed_ = true;
    return checks_.Expect(false, label_ + " replay: " + what);
  }

 private:
  std::string label_;
  Checks& checks_;
  bool failed_ = false;
};

// --- Stepping driver -------------------------------------------------------

/// One engine driven call by call with engine tracing on.
struct Driven {
  ServingMetrics metrics;
  std::vector<TraceEvent> events;
  int64_t kv_budget = 0;
  double wall_s = 0.0;
  /// Host time of every StepTo call, microseconds.
  std::vector<double> step_us;
};

/// Trace ring large enough for every event of a run whose untraced metrics
/// are `m`: per work step one kStep, up to six phases, seven counters and
/// its chunks; per branch its lifecycle events; per preemption and restore
/// their KV and copy events. dropped() == 0 is checked afterwards.
int64_t TraceCapacity(const ServingMetrics& m, const std::vector<Request>& reqs) {
  int64_t branches = 0;
  for (const Request& r : reqs) branches += r.parallel_n;
  return 16 * (m.num_steps + m.prefill_chunks) +
         8 * (branches + static_cast<int64_t>(reqs.size())) +
         16 * (m.num_preemptions + m.num_swap_restores + m.num_recompute_restores) + 4096;
}

/// Drives a fresh engine: Admit() every request, then StepTo(NextEventTime())
/// until it finishes, one span per call. `after_step(k)` runs after each
/// StepTo call, outside its span, with the work steps the call executed.
Driven DriveEngine(const EngineConfig& cfg, const std::vector<Request>& reqs,
                   int64_t trace_capacity, int parent_span, SpanLog& spans, Checks& checks,
                   const std::function<void(int64_t)>& after_step) {
  EngineConfig traced = cfg;
  traced.trace.enabled = true;
  traced.trace.capacity = trace_capacity;
  ServingEngine engine(traced);
  Driven d;
  d.kv_budget = engine.KvTokenBudget();
  const int root = spans.Begin("drive engine", parent_span);
  for (const Request& r : reqs) {
    const int id = spans.Begin("Admit", root, r.id);
    engine.Admit(r);
    spans.End(id);
  }
  while (!engine.Finished()) {
    const double next = engine.NextEventTime();
    if (!std::isfinite(next)) {
      checks.Expect(false, "drive: unfinished engine has no next event");
      break;
    }
    const int id = spans.Begin("StepTo", root);
    const int64_t work_steps = engine.StepTo(next);
    d.step_us.push_back(spans.End(id) * 1e6);
    if (after_step) after_step(work_steps);
  }
  d.wall_s = spans.End(root);
  d.metrics = engine.Metrics();
  d.events = engine.TraceEvents();
  checks.Expect(engine.Trace()->dropped() == 0,
                "drive: trace ring dropped " + std::to_string(engine.Trace()->dropped()) +
                    " events");
  return d;
}

// --- Attention replay ------------------------------------------------------

/// Sequential fake page tables, as the pricing path builds them.
std::vector<sparse::RequestKv> FakePages(const std::vector<int64_t>& kv_lens, int page_size,
                                         const std::vector<int64_t>& pos_offsets) {
  std::vector<sparse::RequestKv> kv(kv_lens.size());
  int64_t next_page = 0;
  for (size_t r = 0; r < kv_lens.size(); ++r) {
    const int64_t pages = (kv_lens[r] + page_size - 1) / page_size;
    kv[r].pages.resize(static_cast<size_t>(pages));
    std::iota(kv[r].pages.begin(), kv[r].pages.end(), next_page);
    next_page += pages;
    kv[r].last_page_len =
        kv_lens[r] == 0 ? 0 : static_cast<int>(kv_lens[r] - (pages - 1) * page_size);
    kv[r].pos_offset = pos_offsets.empty() ? 0 : pos_offsets[r];
  }
  return kv;
}

/// One work step as the engine priced it: its attention input, rebuilt from
/// the trace, and the attention time its kPhaseAttn span recorded.
struct StepInput {
  AttnSimInput in;
  double attn_us = 0.0;
};

/// Simulated step shape from the engine's kStep events.
struct StepStats {
  std::vector<double> decode_rows, prefill_tokens;
  std::vector<double> decode_ms, mixed_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> kv_device_util;
};

/// Rebuilds every work step's AttnSimInput from one engine's trace events:
/// decode rows from the running branches (first token, finish, evict and
/// restore events maintain them, in the engine's order), then one row per
/// prefill chunk from kChunk and the request lengths.
class StepParser {
 public:
  StepParser(const EngineConfig& cfg, const std::vector<Request>& reqs, int64_t kv_budget,
             const std::string& label, StepStats& stats, Checks& checks)
      : cfg_(cfg), kv_budget_(kv_budget), stats_(stats), expect_(label, checks) {
    for (const Request& r : reqs) reqs_[r.id] = &r;
    geometry_.num_qo_heads = cfg.model.num_qo_heads / cfg.model.tensor_parallel;
    geometry_.num_kv_heads = std::max(1, cfg.model.num_kv_heads / cfg.model.tensor_parallel);
    geometry_.head_dim = cfg.model.head_dim;
    geometry_.page_size = cfg.page_size;
  }

  /// One StepInput per kStep event, in execution order.
  std::vector<StepInput> Parse(const std::vector<TraceEvent>& events) {
    for (const TraceEvent& e : events) Apply(e);
    return std::move(steps_);
  }

 private:
  struct Row {
    int req = 0;
    int64_t kv_len = 0;
    int group = -1;
    int64_t prefix_len = 0;
  };

  void Apply(const TraceEvent& e) {
    switch (e.name) {
      case TraceName::kStep: {
        steps_.push_back({geometry_, 0.0});
        stats_.decode_rows.push_back(static_cast<double>(e.b));
        stats_.prefill_tokens.push_back(static_cast<double>(e.a));
        if (e.b > 0) (e.a > 0 ? stats_.mixed_ms : stats_.decode_ms).push_back(e.dur_us * 1e-3);
        expect_(static_cast<int64_t>(running_.size()) == e.b,
               "decode rows " + std::to_string(running_.size()) + " != kStep " +
                   std::to_string(e.b));
        if (e.b > 0) AddDecodeRows(steps_.back().in);
        break;
      }
      case TraceName::kPhaseAttn:
        if (expect_(!steps_.empty(), "kPhaseAttn before any kStep")) {
          steps_.back().attn_us = e.dur_us;
        }
        break;
      case TraceName::kChunk: {
        // a = tokens, b = completes, c = 0 prompt / 1 recompute / 2 swap-in.
        if (e.a > 0 && expect_(!steps_.empty(), "kChunk before any kStep")) {
          const int64_t cached = e.c == 0 ? CachedTokens(Req(e.req)) : 0;
          int64_t& computed = computed_[e.req];
          steps_.back().in.qo_lens.push_back(e.a);
          steps_.back().in.kv_lens.push_back(cached + computed + e.a);
          computed += e.a;
        }
        if (e.b != 0) computed_.erase(e.req);
        break;
      }
      case TraceName::kReqFirstToken: {
        const Request& r = Req(e.req);
        expect_(r.output_len >= 2, "request " + std::to_string(r.id) + " emits one token");
        const int group = r.parallel_n > 1 ? next_group_++ : -1;
        for (int n = 0; n < r.parallel_n; ++n) {
          running_.push_back({r.id, r.input_len + 1, group, r.parallel_n > 1 ? r.input_len : 0});
        }
        break;
      }
      case TraceName::kReqFinish:
        Take(e.req);
        break;
      case TraceName::kKvEvictSwap:
      case TraceName::kKvEvictDrop: {
        const Row row = Take(e.req);
        expect_(row.kv_len == e.a, "evicted kv_len " + std::to_string(row.kv_len) +
                                      " != event " + std::to_string(e.a));
        evicted_[e.req] = row.kv_len;
        break;
      }
      case TraceName::kReqSwapIn:
      case TraceName::kReqRecompute: {
        expect_(evicted_.count(e.req) != 0 && evicted_[e.req] == e.a,
               "restored kv_len of request " + std::to_string(e.req) + " does not match");
        evicted_.erase(e.req);
        running_.push_back({e.req, e.a, -1, 0});
        break;
      }
      case TraceName::kReqQueued:
        stats_.queue_wait_ms.push_back(e.dur_us * 1e-3);
        break;
      case TraceName::kCtrKvDevice:
        stats_.kv_device_util.push_back(Ratio(e.v, static_cast<double>(kv_budget_)));
        break;
      default:
        break;
    }
  }

  /// Decode rows come first, in running order; under composable formats,
  /// parallel-n siblings sharing at least a page of prompt form groups,
  /// ordered by group id.
  void AddDecodeRows(AttnSimInput& in) {
    std::map<int, AttnSimInput::Group> groups;
    for (size_t i = 0; i < running_.size(); ++i) {
      in.qo_lens.push_back(1);
      in.kv_lens.push_back(running_[i].kv_len);
      if (running_[i].group >= 0) {
        auto& g = groups[running_[i].group];
        g.prefix_len = running_[i].prefix_len;
        g.members.push_back(static_cast<int>(i));
      }
      ++running_[i].kv_len;  // The step commits one token per branch.
    }
    for (auto& [id, g] : groups) {
      if (g.members.size() >= 2 && g.prefix_len >= cfg_.page_size && cfg_.backend.composable) {
        in.groups.push_back(g);
      }
    }
  }

  /// Prompt tokens the engine treats as cached for `r` (at least one token
  /// is always computed).
  static int64_t CachedTokens(const Request& r) {
    return std::min(std::max<int64_t>(r.cached_prefix_len, 0),
                    std::max<int64_t>(r.input_len - 1, 0));
  }

  const Request& Req(int id) const {
    const auto it = reqs_.find(id);
    if (it == reqs_.end()) {
      std::fprintf(stderr, "fi_bench: trace names unknown request %d\n", id);
      std::abort();
    }
    return *it->second;
  }

  /// Removes the first running row of request `req`.
  Row Take(int req) {
    const auto it = std::find_if(running_.begin(), running_.end(),
                                 [req](const Row& r) { return r.req == req; });
    if (!expect_(it != running_.end(), "request " + std::to_string(req) + " is not running")) {
      return {};
    }
    const Row row = *it;
    running_.erase(it);
    return row;
  }

  const EngineConfig& cfg_;
  const int64_t kv_budget_;
  StepStats& stats_;
  FirstFailure expect_;
  std::unordered_map<int, const Request*> reqs_;
  AttnSimInput geometry_;
  std::vector<StepInput> steps_;
  std::vector<Row> running_;
  std::unordered_map<int, int64_t> computed_;
  std::unordered_map<int, int64_t> evicted_;
  int next_group_ = 0;
};

/// Host time of the pricing layers over all replayed steps.
struct PriceStats {
  std::vector<double> price_us, bsr_us, plan_us, makespan_us;
  std::vector<double> rows, work_items;
  int64_t repeat_shapes = 0;
  int64_t kv_plus1 = 0;
  double attention_ms = 0.0;  // Replayed sum, in the engine's units.
};

/// Times SimulateBatchAttention, BuildBatchBsr, MakeBalancedPlan and
/// SimExecutor::Makespan on one step's input, and checks the replay prices
/// exactly what the engine priced.
class Pricer {
 public:
  Pricer(const EngineConfig& cfg, const std::string& label, SpanLog& spans, int parent_span,
         PriceStats& stats, Checks& checks)
      : cfg_(cfg), spans_(spans), parent_(parent_span), stats_(stats), expect_(label, checks) {}

  void Price(const StepInput& step) {
    const AttnSimInput& in = step.in;
    if (in.qo_lens.empty()) {
      expect_(step.attn_us == 0.0, "attention priced on a step without attention rows");
      return;
    }
    const auto& dev = cfg_.device;
    const auto& backend = cfg_.backend;
    double t0 = NowS();
    const gpusim::SimReport report = serving::SimulateBatchAttention(dev, backend, in);
    double t1 = NowS();
    spans_.Add("SimulateBatchAttention", t0, t1, parent_);
    stats_.price_us.push_back((t1 - t0) * 1e6);
    const double attn_us = report.time_us * cfg_.model.num_layers;
    expect_(attn_us == step.attn_us, "replayed attention " + std::to_string(attn_us) +
                                        " us != kPhaseAttn " + std::to_string(step.attn_us) +
                                        " us");
    stats_.attention_ms += attn_us * 1e-3;

    // The lowering the pricing path performs: composable groups become one
    // prefix "request" per group ahead of the suffix rows.
    std::vector<int64_t> qo = in.qo_lens, kv = in.kv_lens, pos;
    int tile_override = 0;
    const int g = in.num_qo_heads / in.num_kv_heads;
    const int fuse = backend.head_fusion ? g : 1;
    const bool composable = backend.composable && !in.groups.empty();
    if (composable) {
      std::vector<int64_t> cqo, ckv, cpos;
      int max_rows = 1;
      for (const auto& group : in.groups) {
        int64_t rows = 0;
        for (int m : group.members) rows += qo[static_cast<size_t>(m)];
        cqo.push_back(rows);
        ckv.push_back(group.prefix_len);
        cpos.push_back(0);
        max_rows = std::max<int>(max_rows, static_cast<int>(rows) * fuse);
      }
      std::vector<int64_t> l1_pos(kv.size(), 0);
      for (const auto& group : in.groups) {
        for (int m : group.members) {
          kv[static_cast<size_t>(m)] -= group.prefix_len;
          l1_pos[static_cast<size_t>(m)] = group.prefix_len;
        }
      }
      cqo.insert(cqo.end(), qo.begin(), qo.end());
      ckv.insert(ckv.end(), kv.begin(), kv.end());
      cpos.insert(cpos.end(), l1_pos.begin(), l1_pos.end());
      qo = std::move(cqo);
      kv = std::move(ckv);
      pos = std::move(cpos);
      tile_override = std::min(max_rows, 128);
    }
    const int64_t total_q = std::accumulate(qo.begin(), qo.end(), int64_t{0});
    const double avg_fused =
        static_cast<double>(total_q) / static_cast<double>(qo.size()) * fuse;
    const int kvb = DTypeBytes(backend.kv_dtype);
    KernelConfig kcfg =
        SelectKernelConfig(dev, avg_fused, in.head_dim, kvb, /*sparse=*/!in.force_dense);
    kcfg.head_fusion = backend.head_fusion;
    if (tile_override > 0) kcfg.tile_q = tile_override;
    std::vector<int64_t> fused(qo.size());
    for (size_t i = 0; i < qo.size(); ++i) fused[i] = qo[i] * fuse;
    const auto fused_indptr = BuildIndptr(fused);
    const auto pages = FakePages(kv, in.page_size, pos);

    t0 = NowS();
    const sparse::BsrMatrix bsr =
        sparse::BuildBatchBsr(fused_indptr, pages, in.page_size, kcfg.tile_q);
    t1 = NowS();
    spans_.Add("BuildBatchBsr", t0, t1, parent_);
    stats_.bsr_us.push_back((t1 - t0) * 1e6);

    AttentionParams p;
    p.bsr = &bsr;
    p.qo_indptr = BuildIndptr(qo);
    p.kv_len = kv;
    p.num_qo_heads = in.num_qo_heads;
    p.num_kv_heads = in.num_kv_heads;
    p.head_dim = in.head_dim;
    p.head_fusion = backend.head_fusion;
    p.variant.causal = in.causal;
    t0 = NowS();
    const Plan plan = MakeBalancedPlan(p, kcfg, dev.num_sms, int64_t{1} << 40);
    t1 = NowS();
    spans_.Add("MakeBalancedPlan", t0, t1, parent_);
    stats_.plan_us.push_back((t1 - t0) * 1e6);

    const auto shape =
        ResidencyModel(dev, OccupancyModel(dev, kcfg, in.head_dim, kvb), plan.NumCtas());
    t0 = NowS();
    const double makespan = gpusim::SimExecutor::Makespan(report.cta_time_us, shape.slots);
    t1 = NowS();
    spans_.Add("SimExecutor::Makespan", t0, t1, parent_);
    stats_.makespan_us.push_back((t1 - t0) * 1e6);

    // The lowering must be the one the engine priced: same grid, and on the
    // single-format path without split-KV merges the launch time is exactly
    // the makespan plus the launch latency.
    expect_(report.num_ctas == plan.NumCtas(), "replayed plan grid differs from the priced one");
    if (!composable && plan.rmap.Empty()) {
      const double launch_us = (makespan + dev.kernel_launch_us) * backend.kernel_time_scale;
      expect_(std::abs(launch_us - report.time_us) <= 1e-9 * report.time_us,
             "replayed plan makespan differs from the priced launch");
    }

    stats_.rows.push_back(static_cast<double>(in.qo_lens.size()));
    stats_.work_items.push_back(static_cast<double>(plan.NumWorkItems()));
    const std::vector<int64_t> groups = GroupKey(in);
    if (!shapes_.insert(ShapeHash(in, groups)).second) ++stats_.repeat_shapes;
    if (prev_qo_ == in.qo_lens && prev_groups_ == groups &&
        std::equal(prev_kv_.begin(), prev_kv_.end(), in.kv_lens.begin(),
                   [](int64_t a, int64_t b) { return a + 1 == b; })) {
      ++stats_.kv_plus1;
    }
    prev_qo_ = in.qo_lens;
    prev_kv_ = in.kv_lens;
    prev_groups_ = groups;
  }

 private:
  static std::vector<int64_t> GroupKey(const AttnSimInput& in) {
    std::vector<int64_t> key;
    for (const auto& g : in.groups) {
      key.push_back(g.prefix_len);
      key.push_back(static_cast<int64_t>(g.members.size()));
      key.insert(key.end(), g.members.begin(), g.members.end());
    }
    return key;
  }

  static uint64_t ShapeHash(const AttnSimInput& in, const std::vector<int64_t>& groups) {
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](int64_t v) {
      h ^= static_cast<uint64_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    };
    for (int64_t v : in.qo_lens) mix(v);
    mix(-1);
    for (int64_t v : in.kv_lens) mix(v);
    mix(-2);
    for (int64_t v : groups) mix(v);
    return h;
  }

  const EngineConfig& cfg_;
  SpanLog& spans_;
  const int parent_;
  PriceStats& stats_;
  FirstFailure expect_;
  std::unordered_set<uint64_t> shapes_;
  std::vector<int64_t> prev_qo_, prev_kv_, prev_groups_;
};

/// The first traced drive of an engine on `reqs`; it must reproduce the
/// untraced Run() metrics `expect` exactly.
Driven FirstDrive(const EngineConfig& cfg, const std::vector<Request>& reqs,
                  const ServingMetrics& expect, const std::string& label, SpanLog& spans,
                  Checks& checks) {
  Driven d = DriveEngine(cfg, reqs, TraceCapacity(expect, reqs), -1, spans, checks, {});
  checks.Expect(Fingerprint(d.metrics) == Fingerprint(expect),
                label + ": stepping-driver metrics differ from Run() metrics");
  return d;
}

/// Parses the step inputs from `first`'s trace, then drives the engine
/// again and replays each step's pricing right after the StepTo call that
/// executed it, so the step spans and the replayed pricing they are compared
/// with see the same host speed. Returns that drive's StepTo times (us).
std::vector<double> ReplayDrive(const EngineConfig& cfg, const std::vector<Request>& reqs,
                                const Driven& first, const ServingMetrics& expect,
                                const std::string& label, SpanLog& spans, PriceStats& price,
                                StepStats& stats, Checks& checks) {
  const std::vector<StepInput> steps =
      StepParser(cfg, reqs, first.kv_budget, label, stats, checks).Parse(first.events);
  const double before_ms = price.attention_ms;
  size_t next = 0;
  const int root = spans.Begin("drive + replay pricing");
  Pricer pricer(cfg, label, spans, root, price, checks);
  const Driven second = DriveEngine(cfg, reqs, TraceCapacity(expect, reqs), root, spans, checks,
                                    [&](int64_t work_steps) {
                                      for (int64_t i = 0; i < work_steps && next < steps.size();
                                           ++i) {
                                        pricer.Price(steps[next++]);
                                      }
                                    });
  spans.End(root);
  checks.Expect(next == steps.size() && Fingerprint(second.metrics) == Fingerprint(expect),
                label + ": interleaved drive diverged from the first");
  checks.Expect(std::abs((price.attention_ms - before_ms) - expect.total_attention_ms) <=
                    1e-9 * expect.total_attention_ms,
                label + ": replayed attention " +
                    std::to_string(price.attention_ms - before_ms) +
                    " ms != total_attention_ms " + std::to_string(expect.total_attention_ms));
  return second.step_us;
}

// --- Prefix-mirror replay --------------------------------------------------

struct RadixStats {
  double match_s = 0.0, insert_s = 0.0, evict_s = 0.0, peek_s = 0.0;
  int64_t evicted_pages = 0;
  int64_t requests = 0;
};

struct Route {
  int replica = -1;
  int64_t matched = 0;
};

/// Replays the router's mirror operations in arrival order: a read-only
/// peek of every replica's tree, then MatchPrefix, Insert and LRU eviction
/// on the chosen one, exactly as the cluster driver issues them.
RadixStats ReplayMirrors(const Workload& w, const std::vector<Request>& sorted,
                         const std::unordered_map<int, Route>& routes, SpanLog& spans,
                         Checks& checks) {
  const int page = w.Engine().page_size;
  // A tree holds pointers to its own root, so trees never move.
  std::deque<RadixTree> trees;
  for (int i = 0; i < w.cluster.num_replicas; ++i) trees.emplace_back(page);
  std::vector<int64_t> next_page(trees.size(), 0);
  RadixStats st;
  int64_t mismatches = 0;
  const int root = spans.Begin("replay prefix mirrors");
  for (const Request& r : sorted) {
    const auto it = routes.find(r.id);
    if (it == routes.end() || it->second.replica < 0 ||
        it->second.replica >= static_cast<int>(trees.size())) {
      ++mismatches;
      continue;
    }
    const Route& route = it->second;
    RadixTree& tree = trees[static_cast<size_t>(route.replica)];
    ++st.requests;

    double t0 = NowS();
    int64_t peeked = 0;
    for (const RadixTree& t : trees) peeked += t.PeekPrefixTokens(r.prompt_tokens);
    double t1 = NowS();
    spans.Add("PeekPrefixTokens", t0, t1, root, r.id);
    st.peek_s += t1 - t0;

    t0 = NowS();
    const auto match = tree.MatchPrefix(r.prompt_tokens);
    t1 = NowS();
    spans.Add("MatchPrefix", t0, t1, root, r.id);
    st.match_s += t1 - t0;
    if (match.matched_tokens != route.matched || peeked < match.matched_tokens) ++mismatches;

    const int64_t full_pages = static_cast<int64_t>(r.prompt_tokens.size()) / page;
    std::vector<int64_t> pages(static_cast<size_t>(full_pages));
    int64_t& next = next_page[static_cast<size_t>(route.replica)];
    std::iota(pages.begin(), pages.end(), next);
    next += full_pages;
    t0 = NowS();
    tree.Insert(r.prompt_tokens, pages);
    t1 = NowS();
    spans.Add("Insert", t0, t1, root, r.id);
    st.insert_s += t1 - t0;

    const int64_t cap = w.cluster.prefix_cache_pages;
    if (cap > 0 && tree.TotalCachedPages() > cap) {
      t0 = NowS();
      const auto freed = tree.EvictLru(tree.TotalCachedPages() - cap);
      t1 = NowS();
      spans.Add("EvictLru", t0, t1, root, r.id);
      st.evict_s += t1 - t0;
      st.evicted_pages += static_cast<int64_t>(freed.size());
    }
  }
  spans.End(root);
  checks.Expect(mismatches == 0, w.name + ": prefix-mirror replay matched tokens differ from "
                                          "kRouteDecision on " + std::to_string(mismatches) +
                                          " requests");
  return st;
}

}  // namespace

void RunTraced(const Workload& w, const std::vector<Request>& reqs, const std::string& dir,
               Report& report, Checks& checks) {
  SpanLog spans;
  PriceStats price;
  StepStats steps;
  RadixStats radix;
  std::vector<double> step_us;
  double run_s = 0.0, driver_s = 0.0, trace_overhead = 0.0, telemetry_overhead = 0.0;

  // Untraced reference: a warm-up, then timed runs. Host speed drifts over
  // seconds, so every overhead ratio divides by the mean of the untraced
  // runs just before and just after the run it measures.
  const SimRun warm = Simulate(w, reqs, checks);
  const SimRun base = Simulate(w, reqs, checks);
  checks.Expect(Fingerprint(w, warm) == Fingerprint(w, base),
                w.name + ": simulated metrics differ between repeats of one seed");
  const ServingMetrics& m = base.metrics;
  double before_s = base.wall_s;

  if (!w.IsCluster()) {
    if (w.Engine().telemetry.enabled) {
      ClusterConfig off = w.cluster;
      off.engine.telemetry.enabled = false;
      const SimRun quiet = Simulate(w, off, reqs, checks);
      const SimRun again = Simulate(w, reqs, checks);
      checks.Expect(Fingerprint(quiet.metrics) == Fingerprint(m),
                    w.name + ": metrics with telemetry off differ from telemetry on");
      telemetry_overhead = 0.5 * (base.wall_s + again.wall_s) / quiet.wall_s - 1.0;
      before_s = again.wall_s;
    }
    const Driven first = FirstDrive(w.Engine(), reqs, m, w.name, spans, checks);
    const double after_s = Simulate(w, reqs, checks).wall_s;
    trace_overhead = first.wall_s / (0.5 * (before_s + after_s)) - 1.0;
    run_s = first.wall_s;
    driver_s =
        first.wall_s - std::accumulate(first.step_us.begin(), first.step_us.end(), 0.0) * 1e-6;
    step_us = ReplayDrive(w.Engine(), reqs, first, m, w.name, spans, price, steps, checks);
  } else {
    ClusterConfig traced = w.cluster;
    traced.engine.trace.enabled = true;
    traced.engine.trace.capacity = 1024;  // Only the router track is replayed.
    flashinfer::cluster::ClusterEngine engine(traced);
    const int root = spans.Begin("ClusterEngine::Run");
    const ClusterMetrics traced_metrics = engine.Run(reqs);
    run_s = spans.End(root);
    checks.Expect(Fingerprint(traced_metrics) == Fingerprint(base.cluster),
                  w.name + ": traced cluster metrics differ from untraced");
    const double after_s = Simulate(w, reqs, checks).wall_s;
    trace_overhead = run_s / (0.5 * (before_s + after_s)) - 1.0;

    // kRouteDecision: a = replica, b = matched prefix tokens.
    std::unordered_map<int, Route> routes;
    for (const auto& track : engine.LastTrace()) {
      if (track.name != "router") continue;
      for (const TraceEvent& e : track.events) {
        routes[e.req] = {static_cast<int>(e.a), e.b};
      }
    }
    if (!checks.Expect(routes.size() == reqs.size(),
                       w.name + ": " + std::to_string(routes.size()) +
                           " route decisions for " + std::to_string(reqs.size()) +
                           " requests")) {
      return;
    }
    std::vector<Request> sorted(reqs);
    std::stable_sort(sorted.begin(), sorted.end(), [](const Request& a, const Request& b) {
      return a.arrival_s < b.arrival_s;
    });
    radix = ReplayMirrors(w, sorted, routes, spans, checks);

    // Each replica standalone on exactly the requests routed to it.
    double replicas_s = 0.0;
    for (int i = 0; i < w.cluster.num_replicas; ++i) {
      std::vector<Request> mine;
      for (const Request& r : sorted) {
        const Route& route = routes[r.id];
        if (route.replica != i) continue;
        mine.push_back(r);
        mine.back().cached_prefix_len = route.matched;
      }
      const ServingMetrics& expect = base.cluster.per_replica[static_cast<size_t>(i)];
      const std::string label = w.name + " replica " + std::to_string(i);
      const Driven first = FirstDrive(w.Engine(), mine, expect, label, spans, checks);
      replicas_s += first.wall_s;
      const auto us = ReplayDrive(w.Engine(), mine, first, expect, label, spans, price, steps,
                                  checks);
      step_us.insert(step_us.end(), us.begin(), us.end());
    }
    driver_s = run_s - replicas_s;
  }

  const double step_total_us = std::accumulate(step_us.begin(), step_us.end(), 0.0);
  const double price_total_us =
      std::accumulate(price.price_us.begin(), price.price_us.end(), 0.0);
  const double radix_s = radix.match_s + radix.insert_s + radix.evict_s + radix.peek_s;
  const double n_steps = static_cast<double>(steps.decode_rows.size());
  const double n_calls = static_cast<double>(price.price_us.size());
  const double routed = static_cast<double>(std::max<int64_t>(radix.requests, 1));
  std::printf("%s: pricing is %.1f%% of StepTo time; prefix mirrors are %.1f%% of the "
              "traced run\n",
              w.name.c_str(), 100.0 * Ratio(price_total_us, step_total_us),
              100.0 * Ratio(radix_s, run_s));

  report.mode = "per_layer";
  report.sent = static_cast<int64_t>(reqs.size());
  report.ok = report.sent - m.rejected_requests;
  report.failed = m.rejected_requests;
  report.Set("price.calls", n_calls);
  report.Set("price.us_per_call_p50", Pct(price.price_us, 0.5));
  report.Set("price.us_per_call_p99", Pct(price.price_us, 0.99));
  report.Set("price.share_of_step", Ratio(price_total_us, step_total_us));
  report.Set("price.rows_per_call_mean", MeanOf(price.rows));
  report.Set("price.work_items_per_call_mean", MeanOf(price.work_items));
  report.Set("bsr.us_per_call_p50", Pct(price.bsr_us, 0.5));
  report.Set("plan.us_per_call_p50", Pct(price.plan_us, 0.5));
  report.Set("makespan.us_per_call_p50", Pct(price.makespan_us, 0.5));
  report.Set("price.repeat_shape_frac", Ratio(static_cast<double>(price.repeat_shapes), n_calls));
  report.Set("price.kv_plus1_frac", Ratio(static_cast<double>(price.kv_plus1), n_calls));
  report.Set("radix.match_us_per_req", radix.match_s * 1e6 / routed);
  report.Set("radix.insert_us_per_req", radix.insert_s * 1e6 / routed);
  report.Set("radix.evict_us_per_req", radix.evict_s * 1e6 / routed);
  report.Set("radix.peek_us_per_req", radix.peek_s * 1e6 / routed);
  report.Set("radix.evicted_pages_per_req", static_cast<double>(radix.evicted_pages) / routed);
  report.Set("cluster.run_s", run_s);
  report.Set("cluster.driver_s", driver_s);
  report.Set("cluster.prefix_hit_rate", w.IsCluster() ? base.cluster.prefix_hit_rate : 0.0);
  report.Set("engine.cached_prefix_frac",
             Ratio(static_cast<double>(m.cached_prefix_tokens),
                   static_cast<double>(m.cached_prefix_tokens + m.total_prefill_tokens)));
  report.Set("cluster.load_imbalance", w.IsCluster() ? base.cluster.load_imbalance : 1.0);
  report.Set("cluster.fallback_frac",
             w.IsCluster()
                 ? Ratio(static_cast<double>(base.cluster.router.load_fallbacks +
                                             base.cluster.router.pressure_fallbacks),
                         static_cast<double>(base.cluster.router.routed))
                 : 0.0);
  report.Set("engine.steps", n_steps);
  report.Set("engine.step_us_p50", Pct(step_us, 0.5));
  report.Set("engine.step_us_p99", Pct(step_us, 0.99));
  report.Set("engine.self_us_per_step", Ratio(step_total_us - price_total_us, n_steps));
  report.Set("engine.decode_rows_mean", MeanOf(steps.decode_rows));
  report.Set("engine.prefill_tokens_per_step_mean", MeanOf(steps.prefill_tokens));
  report.Set("engine.mixed_step_frac", m.MixedStepFrac());
  report.Set("engine.queue_wait_ms_p50", Pct(steps.queue_wait_ms, 0.5));
  report.Set("engine.queue_wait_ms_p99", Pct(steps.queue_wait_ms, 0.99));
  report.Set("sim.attn_share", Ratio(m.total_attention_ms, m.BusyMs()));
  report.Set("sim.step_ms_decode_p50", Pct(steps.decode_ms, 0.5));
  report.Set("sim.step_ms_mixed_p50", Pct(steps.mixed_ms, 0.5));
  report.Set("kv.preemptions", static_cast<double>(m.num_preemptions));
  report.Set("kv.swap_restores", static_cast<double>(m.num_swap_restores));
  report.Set("kv.recompute_restores", static_cast<double>(m.num_recompute_restores));
  report.Set("kv.evicted_pages", static_cast<double>(m.evicted_pages));
  report.Set("kv.swap_hidden_frac", m.SwapOverlapEfficiency().value_or(0.0));
  report.Set("kv.swap_stall_share", Ratio(m.swap_stall_ms, m.makespan_s * 1e3));
  report.Set("kv.host_stored_ratio", m.HostStoredRatio());
  report.Set("kv.device_util_mean", MeanOf(steps.kv_device_util));
  report.Set("kv.quant_mse", m.MeanPageQuantMse());
  report.Set("obs.telemetry_overhead_frac", telemetry_overhead);
  report.Set("obs.trace_overhead_frac", trace_overhead);

  if (!dir.empty()) {
    checks.Expect(spans.Write(dir + "/" + w.name + ".spans.json"),
                  w.name + ": cannot write the spans file");
  }
}

}  // namespace fi_bench

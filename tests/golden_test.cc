// Golden digests: "nothing moved" as a test. A fixed matrix of small seeded
// engine and cluster runs reaches every engine mode — chunked prefill under
// both batch policies and prefill-alone, each backend preset, spec decode
// (chain and tree, with parallel-n), composable formats, packed tiles,
// preemption by swap/recompute/auto with and without overlapped copies and
// the int8+lz4 host codec, each router over token-id prompts, and
// disaggregated serving. Per case the test hashes the bit patterns of every
// simulated output: each kMetricFields value, the sample vectors, the ITL
// sketch, the ClusterMetrics fields, every trace event, and the telemetry
// registry's JSON snapshot. tests/golden/digests.txt holds one FNV-1a 64 per
// (case, key); a mismatch names the case and its first differing key.
//
// A change that moves the model on purpose regenerates the file and says
// why:
//   golden_test --gtest_also_run_disabled_tests --gtest_filter='*Regenerate*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/workload.h"

namespace flashinfer {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using cluster::ClusterMetrics;
using serving::BatchPolicy;
using serving::EngineConfig;
using serving::Request;
using serving::RestorePolicy;
using serving::ServingEngine;
using serving::ServingMetrics;

/// FNV-1a 64 over the bytes of scalars (bit patterns, so 1 ulp shows) and
/// the elements of vectors, prefixed by their size.
class Hasher {
 public:
  template <typename T>
  void Add(const T& v) {
    static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char c : bytes) h_ = (h_ ^ c) * 0x100000001b3ull;
  }
  template <typename T>
  void Add(const std::vector<T>& v) {
    Add(v.size());
    for (const T& x : v) Add(x);
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) Add(c);
  }
  uint64_t value() const noexcept { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One case's digests, keyed in the order they were taken.
using Digests = std::vector<std::pair<std::string, uint64_t>>;

template <typename T>
void Put(Digests& d, const std::string& key, const T& v) {
  Hasher h;
  h.Add(v);
  d.emplace_back(key, h.value());
}

void HashSketch(Hasher& h, const obs::Histogram& s) {
  h.Add(s.Count());
  h.Add(s.MinValue());
  h.Add(s.MaxValue());
  h.Add(s.Mean());
  for (int64_t i = 0; i < s.NumBuckets(); ++i) h.Add(s.BucketCount(i));
}

/// Everything ServingMetrics holds, in a fixed order: each kMetricFields
/// value (keyed by index and, when published, registry family), then the
/// remaining members.
void HashMetricsInto(Hasher& h, const ServingMetrics& m) {
  for (const serving::MetricField& f : serving::kMetricFields) h.Add(f.Value(m));
  h.Add(m.ttft_ms);
  h.Add(m.ttft_priority);
  h.Add(m.itl_ms);
  HashSketch(h, m.itl_sketch);
  h.Add(m.bounded_itl);
  h.Add(m.makespan_s);
  h.Add(m.branch_stalls);
  h.Add(m.accepted_len_hist);
}

void PutMetrics(Digests& d, const std::string& prefix, const ServingMetrics& m) {
  int i = 0;
  for (const serving::MetricField& f : serving::kMetricFields) {
    std::string key = prefix + "f" + (i < 10 ? "0" : "") + std::to_string(i);
    if (f.family != nullptr) key += std::string(":") + f.family;
    Put(d, key, f.Value(m));
    ++i;
  }
  Put(d, prefix + "ttft_ms", m.ttft_ms);
  Put(d, prefix + "ttft_priority", m.ttft_priority);
  Put(d, prefix + "itl_ms", m.itl_ms);
  Hasher sketch;
  HashSketch(sketch, m.itl_sketch);
  d.emplace_back(prefix + "itl_sketch", sketch.value());
  Put(d, prefix + "bounded_itl", m.bounded_itl);
  Put(d, prefix + "makespan_s", m.makespan_s);
  Put(d, prefix + "branch_stalls", m.branch_stalls);
  Put(d, prefix + "accepted_len_hist", m.accepted_len_hist);
}

/// Whole-struct digest for the per-replica and per-pool copies.
void PutMetricsWhole(Digests& d, const std::string& key, const ServingMetrics& m) {
  Hasher h;
  HashMetricsInto(h, m);
  d.emplace_back(key, h.value());
}

/// Trace events in blocks, so a mismatch names the block that moved.
constexpr size_t kTraceBlock = 256;

void PutTrace(Digests& d, const std::string& track, const std::string& name,
              const std::vector<obs::TraceEvent>& events) {
  Hasher head;
  head.Add(name);
  head.Add(events.size());
  d.emplace_back(track + ".events", head.value());
  for (size_t begin = 0; begin < events.size(); begin += kTraceBlock) {
    const size_t end = std::min(events.size(), begin + kTraceBlock);
    Hasher h;
    for (size_t i = begin; i < end; ++i) {
      const obs::TraceEvent& e = events[i];
      h.Add(e.ts_us);
      h.Add(e.dur_us);
      h.Add(e.name);
      h.Add(e.flags);
      h.Add(e.req);
      h.Add(e.a);
      h.Add(e.b);
      h.Add(e.c);
      h.Add(e.d);
      h.Add(e.v);
    }
    d.emplace_back(track + ".events[" + std::to_string(begin) + "," + std::to_string(end) + ")",
                   h.value());
  }
}

// --- The matrix ---------------------------------------------------------------

EngineConfig Base() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  cfg.trace.enabled = true;
  return cfg;
}

std::vector<Request> ShareGpt(uint64_t seed, int n, int parallel_n = 1) {
  Rng rng(seed);
  auto reqs = serving::ShareGptWorkload(rng, n, 20.0, parallel_n);
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

/// Every third request asks for two generations.
std::vector<Request> WithPairs(std::vector<Request> reqs) {
  for (size_t i = 0; i < reqs.size(); i += 3) reqs[i].parallel_n = 2;
  return reqs;
}

std::vector<Request> Bursty(uint64_t seed) {
  Rng rng(seed);
  serving::BurstyPrefillConfig w;
  w.num_steady = 30;
  w.steady_output = 64;
  w.num_bursts = 2;
  w.burst_size = 3;
  w.burst_input_lo = 2048;
  w.burst_input_hi = 4096;
  w.burst_output = 24;
  return serving::BurstyLongPrefillWorkload(rng, w);
}

std::vector<Request> Pressure(uint64_t seed) {
  Rng rng(seed);
  auto reqs = serving::UniformWorkload(rng, 40, 25.0, 512, 1024, 96);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

std::vector<Request> Tenants(uint64_t seed) {
  Rng rng(seed);
  serving::TenantPoolConfig t;
  t.num_tenants = 6;
  t.output_len_mean = 64;
  auto reqs = serving::MultiTenantWorkload(rng, 48, 40.0, t);
  serving::AssignPriorities(rng, reqs, {0.7, 0.3});
  serving::AssignAcceptance(rng, reqs, 0.3, 0.95);
  return reqs;
}

Digests RunEngine(const EngineConfig& cfg, const std::vector<Request>& reqs) {
  ServingEngine engine(cfg);
  const ServingMetrics m = engine.Run(reqs);
  Digests d;
  PutMetrics(d, "", m);
  PutTrace(d, "trace", "engine", engine.TraceEvents());
  if (const obs::MetricsRegistry* reg = engine.Telemetry()) {
    Put(d, "registry", reg->JsonSnapshot(engine.Now()));
  }
  return d;
}

Digests RunCluster(const ClusterConfig& cfg, const std::vector<Request>& reqs) {
  ClusterEngine engine(cfg);
  const ClusterMetrics m = engine.Run(reqs);
  Digests d;
  PutMetrics(d, "aggregate.", m.aggregate);
  for (size_t i = 0; i < m.per_replica.size(); ++i) {
    PutMetricsWhole(d, "replica" + std::to_string(i), m.per_replica[i]);
  }
  PutMetricsWhole(d, "prefill_pool", m.prefill_pool);
  PutMetricsWhole(d, "decode_pool", m.decode_pool);
  Put(d, "replica_utilization", m.replica_utilization);
  Put(d, "replica_requests", m.replica_requests);
  Put(d, "replica_pool", m.replica_pool);
  Put(d, "load_imbalance", m.load_imbalance);
  Put(d, "prefix_hit_rate", m.prefix_hit_rate);
  Put(d, "router", std::vector<int64_t>{m.router.routed, m.router.affinity_hits,
                                        m.router.load_fallbacks, m.router.pressure_fallbacks});
  Put(d, "makespan_s", m.makespan_s);
  Put(d, "migrations", std::vector<int64_t>{m.aggregate.num_migrations_out,
                                            m.aggregate.num_migrations_retained});
  const auto& tracks = engine.LastTrace();
  for (size_t i = 0; i < tracks.size(); ++i) {
    PutTrace(d, "trace" + std::to_string(i), tracks[i].name, tracks[i].events);
  }
  if (const obs::MetricsRegistry* reg = engine.Telemetry()) {
    Put(d, "registry", reg->JsonSnapshot(m.makespan_s));
  }
  return d;
}

EngineConfig Preempting(RestorePolicy restore, bool overlap, bool codec) {
  EngineConfig cfg = Base();
  cfg.telemetry.enabled = true;
  cfg.preemption.enabled = true;
  cfg.preemption.restore = restore;
  cfg.preemption.overlap_swap = overlap;
  if (codec) cfg.preemption.host_codec = {KvQuantFormat::kInt8, /*compress=*/true};
  // kAuto runs against a host tier small enough to fill, so its capacity
  // gate turns swaps into recomputes.
  if (restore == RestorePolicy::kAuto) cfg.preemption.host_capacity_gb = 0.3;
  cfg.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg, 8000);
  return cfg;
}

ClusterConfig Routed(cluster::RouterPolicy policy) {
  ClusterConfig cfg;
  cfg.engine = Base();
  cfg.engine.telemetry.enabled = true;
  cfg.num_replicas = 4;
  cfg.policy = policy;
  return cfg;
}

ClusterConfig Disaggregated() {
  ClusterConfig cfg;
  cfg.engine = Base();
  cfg.engine.telemetry.enabled = true;
  cfg.num_replicas = 4;
  cfg.disaggregated = true;
  cfg.prefill_replicas = 2;
  cfg.policy = cluster::RouterPolicy::kLeastLoaded;
  return cfg;
}

struct Case {
  std::string name;
  std::function<Digests()> run;
};

std::vector<Case> Matrix() {
  std::vector<Case> cases;
  auto engine = [&cases](std::string name, EngineConfig cfg, std::vector<Request> reqs) {
    cases.push_back({std::move(name), [cfg, reqs] { return RunEngine(cfg, reqs); }});
  };
  auto cluster = [&cases](std::string name, ClusterConfig cfg, std::vector<Request> reqs) {
    cases.push_back({std::move(name), [cfg, reqs] { return RunCluster(cfg, reqs); }});
  };

  // Batch formation.
  {
    EngineConfig cfg = Base();
    cfg.prefill_chunk_tokens = 512;
    engine("chunked_decode_priority", cfg, Bursty(1));
    cfg.batch_policy = BatchPolicy::kThroughputPriority;
    engine("chunked_throughput_priority", cfg, Bursty(1));
    cfg.batch_policy = BatchPolicy::kPrefillAlone;
    engine("prefill_alone", cfg, Bursty(1));
  }
  // Backend presets: Triton and FlashAttention schedule without Algorithm 1
  // and launch RoPE separately.
  {
    EngineConfig cfg = Base();
    engine("backend_flashinfer", cfg, ShareGpt(2, 40));
    cfg.backend = serving::TritonBackend();
    engine("backend_triton", cfg, ShareGpt(2, 40));
    cfg.backend = serving::FlashAttentionBackend();
    engine("backend_flashattention", cfg, ShareGpt(2, 40));
    cfg.backend = serving::VllmDefaultBackend();
    engine("backend_vllm", cfg, ShareGpt(2, 40));
  }
  // Speculative decoding with parallel generation.
  {
    EngineConfig cfg = Base();
    cfg.spec.enabled = true;
    cfg.spec.tree = {/*depth=*/3, /*branching=*/1};
    engine("spec_chain_n2", cfg, WithPairs(ShareGpt(3, 30)));
    cfg.spec.tree = {/*depth=*/2, /*branching=*/2};
    engine("spec_tree_n2", cfg, WithPairs(ShareGpt(3, 30)));
    cfg.backend = serving::TritonBackend();
    cfg.spec.tree = {/*depth=*/3, /*branching=*/1};
    engine("spec_triton", cfg, WithPairs(ShareGpt(3, 30)));
  }
  // Composable formats and packed tiles.
  {
    EngineConfig cfg = Base();
    cfg.backend.composable = true;
    engine("composable_n4", cfg, ShareGpt(4, 16, /*parallel_n=*/4));
    cfg = Base();
    cfg.backend.packed_tiles = true;
    engine("packed_tiles", cfg, Bursty(5));
  }
  // Preemption: restore policy x copy overlap x host codec, telemetry on.
  for (const auto& [restore, rname] :
       {std::pair{RestorePolicy::kSwap, "swap"}, std::pair{RestorePolicy::kRecompute, "recompute"},
        std::pair{RestorePolicy::kAuto, "auto"}}) {
    for (const bool overlap : {false, true}) {
      for (const bool codec : {false, true}) {
        engine(std::string("preempt_") + rname + (overlap ? "_overlap" : "_serial") +
                   (codec ? "_int8lz4" : "_raw"),
               Preempting(restore, overlap, codec), Pressure(13));
      }
    }
  }
  {
    EngineConfig cfg = Preempting(RestorePolicy::kAuto, /*overlap=*/true, /*codec=*/false);
    cfg.spec.enabled = true;
    cfg.spec.tree = {/*depth=*/2, /*branching=*/2};
    engine("preempt_spec", cfg, Pressure(14));
    cfg = Preempting(RestorePolicy::kRecompute, /*overlap=*/false, /*codec=*/false);
    cfg.batch_policy = BatchPolicy::kPrefillAlone;
    engine("preempt_prefill_alone", cfg, Pressure(15));
  }
  // Routers over token-id prompts.
  cluster("router_round_robin", Routed(cluster::RouterPolicy::kRoundRobin), Tenants(6));
  cluster("router_least_loaded", Routed(cluster::RouterPolicy::kLeastLoaded), Tenants(6));
  cluster("router_prefix_affinity", Routed(cluster::RouterPolicy::kPrefixAffinity), Tenants(6));
  {
    ClusterConfig cfg = Routed(cluster::RouterPolicy::kPrefixAffinity);
    cfg.prefix_cache_pages = 24;  // Mirrors evict on most requests.
    cluster("router_prefix_affinity_evicting", cfg, Tenants(6));
  }
  // Disaggregated prefill/decode.
  {
    ClusterConfig cfg = Disaggregated();
    cluster("disagg_vanilla", cfg, WithPairs(Bursty(7)));
    cfg.engine.spec.enabled = true;
    cluster("disagg_spec", cfg, WithPairs(Bursty(7)));
    // One small decode replica: units that do not fit are retained.
    cfg = Disaggregated();
    cfg.num_replicas = 2;
    cfg.prefill_replicas = 1;
    cfg.engine.preemption.enabled = true;
    cfg.engine.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg.engine, 6000);
    Rng rng(29);
    auto reqs = serving::UniformWorkload(rng, 30, 60.0, 512, 2048, /*output_len=*/128);
    serving::AssignPriorities(rng, reqs, {0.7, 0.3});
    cluster("disagg_preemption", cfg, reqs);
  }
  return cases;
}

// --- The digests file -------------------------------------------------------

std::string DigestsPath() {
  const std::string src = __FILE__;
  return src.substr(0, src.find_last_of('/')) + "/golden/digests.txt";
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// case -> its digests in file order.
std::map<std::string, Digests> LoadGolden() {
  std::map<std::string, Digests> golden;
  std::ifstream in(DigestsPath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, key, hex;
    fields >> name >> key >> hex;
    golden[name].emplace_back(key, std::stoull(hex, nullptr, 16));
  }
  return golden;
}

/// "" when equal; else the first key whose digest differs (or that only
/// one side has).
std::string FirstDifference(const Digests& want, const Digests& got) {
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    if (i >= want.size()) return "extra key " + got[i].first;
    if (i >= got.size()) return "missing key " + want[i].first;
    if (want[i].first != got[i].first) {
      return "key " + got[i].first + " where the golden file has " + want[i].first;
    }
    if (want[i].second != got[i].second) {
      return "key " + got[i].first + ": golden " + Hex(want[i].second) + ", got " +
             Hex(got[i].second);
    }
  }
  return "";
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, MatchesDigests) {
  static const std::map<std::string, Digests> golden = LoadGolden();
  ASSERT_FALSE(golden.empty()) << "no digests at " << DigestsPath();
  for (const Case& c : Matrix()) {
    if (c.name != GetParam()) continue;
    const auto it = golden.find(c.name);
    ASSERT_NE(it, golden.end()) << "case " << c.name << " has no golden digests";
    EXPECT_EQ(FirstDifference(it->second, c.run()), "") << "case " << c.name;
    return;
  }
  FAIL() << "unknown case " << GetParam();
}

std::vector<std::string> CaseNames() {
  std::vector<std::string> names;
  for (const Case& c : Matrix()) names.push_back(c.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Matrix, Golden, ::testing::ValuesIn(CaseNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Golden, EveryGoldenCaseIsInTheMatrix) {
  const auto golden = LoadGolden();
  const std::vector<std::string> names = CaseNames();
  for (const auto& [name, digests] : golden) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "golden case " << name << " is no longer run";
  }
}

TEST(Golden, DISABLED_Regenerate) {
  std::ofstream out(DigestsPath());
  ASSERT_TRUE(out) << DigestsPath();
  out << "# FNV-1a 64 digests of tests/golden_test.cc's case matrix, one line per\n"
         "# (case, key). Regenerate only for a change that moves the model on\n"
         "# purpose, and say why in CHANGES.md:\n"
         "#   golden_test --gtest_also_run_disabled_tests --gtest_filter='*Regenerate*'\n";
  for (const Case& c : Matrix()) {
    for (const auto& [key, digest] : c.run()) {
      out << c.name << ' ' << key << ' ' << Hex(digest) << '\n';
    }
  }
}

}  // namespace
}  // namespace flashinfer

// End-to-end trace export validation: a preemption-enabled multi-replica
// cluster run is exported to Chrome/Perfetto trace-event JSON, parsed back
// with the shared JSON parser, and schema-checked — the same validation CI
// runs against the bench-emitted trace artifact.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "cluster/cluster.h"
#include "obs/export.h"
#include "obs/query.h"
#include "serving/engine.h"
#include "util/json.h"

namespace flashinfer {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterEngine;
using serving::EngineConfig;
using serving::Request;

EngineConfig BaseConfig() {
  EngineConfig cfg;
  cfg.model = serving::Llama31_8B();
  cfg.device = gpusim::H100Sxm80GB();
  cfg.backend = serving::FlashInferBackend();
  cfg.trace.enabled = true;
  return cfg;
}

Request MakeReq(int id, double arrival, int64_t in, int64_t out, int priority) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.input_len = in;
  r.output_len = out;
  r.priority = priority;
  return r;
}

/// Two replicas under KV pressure: a mixed two-priority workload sized so
/// both replicas preempt at least once.
ClusterConfig PressureClusterConfig() {
  ClusterConfig cfg;
  cfg.engine = BaseConfig();
  cfg.engine.preemption.enabled = true;
  cfg.engine.hbm_capacity_gb = serving::HbmGbForKvBudget(cfg.engine, 6000);
  cfg.num_replicas = 2;
  cfg.policy = cluster::RouterPolicy::kRoundRobin;
  return cfg;
}

std::vector<Request> PressureWorkload() {
  std::vector<Request> reqs;
  int id = 0;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(MakeReq(id++, i * 0.05, 2200 + 300 * (i % 3), 250, 0));
  }
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(MakeReq(id++, 0.5 + i * 0.05, 2800, 60, 1));
  }
  return reqs;
}

TEST(TraceExport, ClusterMergesReplicaAndRouterTracks) {
  ClusterEngine engine(PressureClusterConfig());
  const auto m = engine.Run(PressureWorkload());
  ASSERT_GE(m.aggregate.num_preemptions, 1);

  const auto& tracks = engine.LastTrace();
  ASSERT_EQ(tracks.size(), 3u);  // 2 replicas + router.
  EXPECT_EQ(tracks[0].name, "replica 0");
  EXPECT_EQ(tracks[1].name, "replica 1");
  EXPECT_EQ(tracks[2].name, "router");
  EXPECT_FALSE(tracks[0].events.empty());
  EXPECT_FALSE(tracks[1].events.empty());
  // One router decision per request, carrying the routed replica index.
  ASSERT_EQ(tracks[2].events.size(), PressureWorkload().size());
  for (const auto& e : tracks[2].events) {
    EXPECT_EQ(e.name, obs::TraceName::kRouteDecision);
    EXPECT_GE(e.a, 0);
    EXPECT_LT(e.a, 2);
    EXPECT_GE(e.req, 0);
  }
  // Per-replica traces reconcile with per-replica metrics.
  for (int rep = 0; rep < 2; ++rep) {
    const obs::TraceQuery q(tracks[static_cast<size_t>(rep)].events);
    EXPECT_EQ(q.TotalItlStallSteps(), m.per_replica[static_cast<size_t>(rep)].itl_stall_steps);
    EXPECT_TRUE(q.UnexplainedItlStalls().empty());
    EXPECT_TRUE(q.UnexplainedPreemptStalls().empty());
  }
}

TEST(TraceExport, PerfettoJsonSchemaValidates) {
  ClusterEngine engine(PressureClusterConfig());
  engine.Run(PressureWorkload());
  std::ostringstream os;
  obs::WritePerfettoJson(os, engine.LastTrace());

  util::JsonValue doc;
  std::string err;
  ASSERT_TRUE(util::JsonParse(os.str(), &doc, &err)) << err;
  ASSERT_TRUE(doc.IsObject());
  EXPECT_EQ(doc.StringOr("displayTimeUnit", ""), "ms");
  const util::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  ASSERT_GT(events->arr.size(), 100u);

  std::set<double> pids;
  std::set<std::string> process_names;
  int steps = 0, counters = 0, async_open = 0, async_close = 0, kv_instants = 0;
  for (const auto& e : events->arr) {
    const std::string ph = e.StringOr("ph", "");
    const std::string name = e.StringOr("name", "");
    ASSERT_FALSE(ph.empty());
    ASSERT_FALSE(name.empty());
    ASSERT_NE(e.Find("pid"), nullptr);
    pids.insert(e.NumberOr("pid", -1.0));
    if (ph == "M") {
      if (name == "process_name") {
        process_names.insert(e.Find("args")->StringOr("name", ""));
      }
      continue;
    }
    ASSERT_GE(e.NumberOr("ts", -1.0), 0.0) << name;
    if (ph == "X") {
      ASSERT_GE(e.NumberOr("dur", -1.0), 0.0);
      if (name == "step") ++steps;
    } else if (ph == "C") {
      ++counters;
      ASSERT_NE(e.Find("args"), nullptr);
      ASSERT_NE(e.Find("args")->Find("value"), nullptr);
    } else if (ph == "b") {
      ++async_open;
      EXPECT_EQ(e.StringOr("cat", ""), "request");
      ASSERT_NE(e.Find("id"), nullptr);
    } else if (ph == "e") {
      ++async_close;
    } else if (ph == "i") {
      if (e.NumberOr("tid", 0.0) == 1.0) ++kv_instants;
    }
  }
  // >= 2 replica tracks plus the router track, each announced by metadata.
  EXPECT_GE(pids.size(), 3u);
  EXPECT_TRUE(process_names.count("replica 0"));
  EXPECT_TRUE(process_names.count("replica 1"));
  EXPECT_TRUE(process_names.count("router"));
  EXPECT_GT(steps, 0);
  EXPECT_GT(counters, 0);
  EXPECT_GT(kv_instants, 0);             // Preemption KV traffic on the kv tid.
  EXPECT_EQ(async_open, async_close);    // Every request span is closed.
}

TEST(TraceExport, FileRoundTrip) {
  ClusterEngine engine(PressureClusterConfig());
  engine.Run(PressureWorkload());
  const std::string perfetto = ::testing::TempDir() + "/trace_export_test.trace.json";
  ASSERT_TRUE(obs::WritePerfettoFile(perfetto, engine.LastTrace()));
  EXPECT_FALSE(obs::WritePerfettoFile("/nonexistent-dir/x.json", engine.LastTrace()));
}

}  // namespace
}  // namespace flashinfer

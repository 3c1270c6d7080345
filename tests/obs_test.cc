// Unit tests for the observability layer: trace recorder ring semantics,
// histogram statistics, the shared JSON escape/parse helpers, exporter
// output shape, and the TraceQuery accounting primitives.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.h"
#include "obs/query.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/json.h"
#include "util/rng.h"

namespace flashinfer {
namespace {

using obs::Histogram;
using obs::TraceEvent;
using obs::TraceKind;
using obs::TraceName;
using obs::TraceRecorder;
using obs::TraceTrack;

TraceEvent Ev(TraceName n, double ts_us, double dur_us = 0.0, int32_t req = -1) {
  TraceEvent e;
  e.name = n;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.req = req;
  return e;
}

// --- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorder, RecordsInOrderBelowCapacity) {
  TraceRecorder rec(8);
  for (int i = 0; i < 5; ++i) rec.Record(Ev(TraceName::kStep, i * 10.0));
  EXPECT_EQ(rec.size(), 5);
  EXPECT_EQ(rec.dropped(), 0);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(events[i].ts_us, i * 10.0);
}

TEST(TraceRecorder, RingOverwriteKeepsTrailingWindow) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) rec.Record(Ev(TraceName::kStep, i * 1.0));
  EXPECT_EQ(rec.size(), 4);
  EXPECT_EQ(rec.dropped(), 6);
  const auto events = rec.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: events 6..9 survive.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(events[i].ts_us, 6.0 + i);
}

TEST(TraceRecorder, ClearResetsCounts) {
  TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) rec.Record(Ev(TraceName::kStep, i));
  rec.Clear();
  EXPECT_EQ(rec.size(), 0);
  EXPECT_EQ(rec.dropped(), 0);
  EXPECT_TRUE(rec.Events().empty());
}

TEST(TraceNames, KindPartitionAndStableStrings) {
  EXPECT_EQ(InfoOf(TraceName::kStep).kind, TraceKind::kSpan);
  EXPECT_EQ(InfoOf(TraceName::kPhaseHost).kind, TraceKind::kSpan);
  EXPECT_EQ(InfoOf(TraceName::kReqRecompute).kind, TraceKind::kSpan);
  EXPECT_EQ(InfoOf(TraceName::kChunk).kind, TraceKind::kInstant);
  EXPECT_EQ(InfoOf(TraceName::kRouteDecision).kind, TraceKind::kInstant);
  EXPECT_EQ(InfoOf(TraceName::kCtrKvDevice).kind, TraceKind::kCounter);
  EXPECT_EQ(InfoOf(TraceName::kCtrTokPerS).kind, TraceKind::kCounter);
  EXPECT_STREQ(TraceNameStr(TraceName::kStep), "step");
  EXPECT_STREQ(TraceNameStr(TraceName::kReqPreempted), "preempted");
  EXPECT_STREQ(TraceNameStr(TraceName::kCtrKvDevice), "kv_device_tokens");
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, QuantilesBracketSamples) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.Count(), 1000);
  // Log-bucketed quantiles are approximate: within one growth factor.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 500.0 * 0.2);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 990.0 * 0.2);
  // Quantiles are clamped to the observed range.
  EXPECT_GE(h.Quantile(0.0), 1.0 * 0.8);
  EXPECT_LE(h.Quantile(1.0), 1000.0 * 1.2);
}

TEST(Histogram, UnderflowAndOverflowCounted) {
  Histogram h;  // Regular buckets span [0.01, 1e5).
  h.Add(1e-4);
  h.Add(10.0);
  h.Add(1e7);
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.BucketCount(0), 1);                    // Underflow bucket.
  EXPECT_EQ(h.BucketCount(h.NumBuckets() - 1), 1);   // Overflow bucket.
}

TEST(Histogram, EmptyIsWellDefined) {
  const Histogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleBucketQuantilesClampToObservedRange) {
  Histogram h;
  // Identical samples land in one bucket: every quantile must answer within
  // the observed (degenerate) range, not the bucket's full geometric span.
  for (int i = 0; i < 100; ++i) h.Add(42.0);
  EXPECT_DOUBLE_EQ(h.MinValue(), 42.0);
  EXPECT_DOUBLE_EQ(h.MaxValue(), 42.0);
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(p), 42.0) << "p=" << p;
  }
}

TEST(Histogram, OverflowBucketQuantileStaysWithinMax) {
  Histogram h;
  // Most mass beyond the top regular bucket (1e5): the overflow bucket has
  // no upper edge, so quantiles interpolating inside it must clamp to the
  // tracked exact max rather than extrapolating.
  h.Add(50.0);
  for (int i = 0; i < 99; ++i) h.Add(1e6 + i);
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 1e5);
  EXPECT_LE(p99, h.MaxValue());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.MaxValue());
}

TEST(Histogram, MergeFromAccumulatesAndTracksExtremes) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.Add(static_cast<double>(i));
  for (int i = 101; i <= 200; ++i) b.Add(static_cast<double>(i));
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 200);
  EXPECT_DOUBLE_EQ(a.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(a.MaxValue(), 200.0);
  EXPECT_NEAR(a.Mean(), 100.5, 1e-9);
  EXPECT_NEAR(a.Quantile(0.5), 100.0, 100.0 * 0.2);
  // Merging an empty histogram is a no-op (including min/max).
  const double before = a.Quantile(0.9);
  a.MergeFrom(Histogram());
  EXPECT_EQ(a.Count(), 200);
  EXPECT_DOUBLE_EQ(a.Quantile(0.9), before);
  // Merging INTO an empty histogram adopts the source's extremes.
  Histogram c;
  c.MergeFrom(a);
  EXPECT_EQ(c.Count(), 200);
  EXPECT_DOUBLE_EQ(c.MinValue(), 1.0);
  EXPECT_DOUBLE_EQ(c.MaxValue(), 200.0);
}

// A sample whose quotient v / lo overflows to +inf counts as overflow. The
// log formula's float-to-int cast of +inf is undefined; on x86 it wrapped
// such samples into bucket 1, whose quantiles then read ~0.012.
TEST(Histogram, InfiniteQuotientsOverflow) {
  Histogram h;
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(1e307);
  const int64_t overflow = h.NumBuckets() - 1;
  EXPECT_EQ(h.BucketCount(overflow), 2);
  EXPECT_EQ(h.BucketCount(1), 0);
  EXPECT_GE(h.Quantile(0.5), 1e307);
}

// IndexOf's table lookup puts every sample in the bucket the log formula
// (test::ReferenceBucketIndex) names: each double within 4096 ulps of every
// bucket edge, log-uniform samples over the whole range and beyond, and the
// special values.
TEST(Histogram, IndexOfMatchesLogFormula) {
  constexpr int64_t kUlps = 4096;
  constexpr int kSamples = 1000000;
  const double inf = std::numeric_limits<double>::infinity();
  const Histogram h;
  const double lo = 1e-2, hi = 1e5;  // The shared geometry's range.
  int64_t mismatches = 0;
  const auto check = [&](double v) {
    const int64_t want = test::ReferenceBucketIndex(h, v);
    if (h.IndexOf(v) != want && ++mismatches <= 5) {
      ADD_FAILURE() << "v=" << v << ": IndexOf " << h.IndexOf(v) << " != formula " << want;
    }
  };
  for (int64_t i = 1; i < h.NumBuckets(); ++i) {
    // Bucket i's least value lies within a few ulps of its printed edge
    // lo * growth^(i-1), so the sweep must cross into bucket i.
    const auto edge = std::bit_cast<uint64_t>(h.BucketLowerEdge(i));
    EXPECT_LT(test::ReferenceBucketIndex(h, std::bit_cast<double>(edge - kUlps)), i);
    EXPECT_GE(test::ReferenceBucketIndex(h, std::bit_cast<double>(edge + kUlps)), i);
    for (uint64_t b = edge - kUlps; b <= edge + kUlps; ++b) check(std::bit_cast<double>(b));
  }
  Rng rng(7);
  const double log_min = std::log(lo / 20.0), log_max = std::log(hi * 20.0);
  for (int n = 0; n < kSamples; ++n) check(std::exp(rng.Uniform(log_min, log_max)));
  for (const double v : {0.0, -0.0, -1.0, -lo, -inf, std::nan(""),
                         std::numeric_limits<double>::denorm_min(), lo, hi,
                         std::numeric_limits<double>::max(), inf}) {
    check(v);
  }
  EXPECT_EQ(mismatches, 0);
}

// A Histogram stores only the span of buckets it counts. Random sample
// streams run through it and through the dense reference (test_util.h):
// clustered samples whose centre jumps so that spans grow at either edge or
// land disjoint, log-uniform samples far past both ends of the geometry, and
// NaN, zeros, negatives, infinities and the extreme doubles; interleaved with
// Clears, MergeFroms in both directions between two histograms whose spans
// overlap or are disjoint, copies (a write to the copy must not reach the
// original) and moves. After every step every bucket, the count, sum, min,
// max and quantiles must read bit for bit as the reference's.
TEST(Histogram, SpanStorageMatchesDenseReference) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::nan(""), 0.0, -0.0, -3.5, -inf, inf,
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(), 1e-2, 1e5};
  Rng rng(11);
  for (int trial = 0; trial < 150; ++trial) {
    // Natural-log centres of the two histograms' sample clusters: the
    // same on a third of the trials, else independent.
    double centre[2] = {rng.Uniform(std::log(1e-5), std::log(1e8)), 0.0};
    centre[1] = rng.NextDouble() < 0.33 ? centre[0] : rng.Uniform(std::log(1e-5), std::log(1e8));
    const double spread = rng.Uniform(0.05, 2.0);
    const auto draw = [&](int which) {
      const double u = rng.NextDouble();
      if (u < 0.8) return std::exp(centre[which] + spread * rng.Normal(0.0, 1.0));
      if (u < 0.9) return std::exp(rng.Uniform(std::log(1e-7), std::log(1e9)));
      return specials[rng.UniformInt(0, std::size(specials) - 1)];
    };
    Histogram h[2];
    test::DenseHistogram ref[2];
    const int64_t steps = rng.UniformInt(1, 400);
    for (int64_t step = 0; step < steps; ++step) {
      const int a = static_cast<int>(rng.UniformInt(0, 1)), b = 1 - a;
      const double u = rng.NextDouble();
      if (u < 0.75) {
        const double v = draw(a);
        h[a].Add(v);
        ref[a].Add(v);
      } else if (u < 0.82) {
        h[a].MergeFrom(h[b]);
        ref[a].MergeFrom(ref[b]);
      } else if (u < 0.86) {
        h[a].Clear();
        ref[a].Clear();
      } else if (u < 0.90) {
        // The cluster moves: later samples widen the span or, after a
        // Clear, re-centre it.
        centre[a] = rng.Uniform(std::log(1e-5), std::log(1e8));
      } else if (u < 0.95) {
        Histogram copy = h[a];
        const test::DenseHistogram before = ref[a];
        const double v = draw(a);
        copy.Add(v);
        ref[a].Add(v);
        ASSERT_EQ(test::HistogramDiff(h[a], before), "") << "copy wrote through: trial " << trial;
        if (rng.NextDouble() < 0.5) {
          h[a] = copy;
        } else {
          h[a] = std::move(copy);
        }
      } else {
        Histogram moved(std::move(h[a]));
        h[a] = Histogram();
        h[a] = std::move(moved);
      }
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(test::HistogramDiff(h[k], ref[k]), "")
            << "trial " << trial << " step " << step << " histogram " << k;
      }
    }
  }
}

// Merging into an empty histogram, or an emptied one whose block is too
// small or sits elsewhere, must cover the source's whole span; buckets 0 and
// 95 are the edges a span's headroom is clamped at.
TEST(Histogram, MergeIntoEmptyAndClampedEdges) {
  Histogram wide, narrow, edges;
  test::DenseHistogram wide_ref, narrow_ref, edges_ref;
  for (const double v : {1e-3, 0.05, 3.0, 400.0, 2e4, 1e9}) {
    wide.Add(v);
    wide_ref.Add(v);
  }
  narrow.Add(7.0);
  narrow_ref.Add(7.0);
  narrow.Clear();
  narrow_ref.Clear();
  narrow.MergeFrom(wide);  // Emptied, block smaller than the source's span.
  narrow_ref.MergeFrom(wide_ref);
  EXPECT_EQ(test::HistogramDiff(narrow, narrow_ref), "");
  // An emptied 3-bucket block (its sample's headroom clamped at bucket 0)
  // takes a 4-bucket span clamped at the top whose last bucket counts: one
  // bucket too many for the block to move in place.
  Histogram low, top;
  test::DenseHistogram top_ref;
  low.Add(-1.0);
  low.Clear();
  for (const double v : {1.1e5, 2e5}) {  // Buckets 94 and 95.
    top.Add(v);
    top_ref.Add(v);
  }
  low.MergeFrom(top);
  EXPECT_EQ(test::HistogramDiff(low, top_ref), "");
  Histogram fresh;
  fresh.MergeFrom(wide);
  EXPECT_EQ(test::HistogramDiff(fresh, wide_ref), "");
  for (const double v : {-1.0, 1e9, 2e-3, 5e8}) {  // Underflow, overflow, both again.
    edges.Add(v);
    edges_ref.Add(v);
    EXPECT_EQ(test::HistogramDiff(edges, edges_ref), "") << v;
  }
  EXPECT_EQ(edges.BucketCount(0), 2);
  EXPECT_EQ(edges.BucketCount(Histogram::NumBuckets() - 1), 2);
  EXPECT_EQ(edges.BucketCount(-1), 0);
  EXPECT_EQ(edges.BucketCount(Histogram::NumBuckets()), 0);
}

// --- JSON helpers ------------------------------------------------------------

TEST(Json, EscapeControlAndQuote) {
  EXPECT_EQ(util::JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(util::JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, NumFiniteAndNonFinite) {
  EXPECT_EQ(util::JsonNum(2.5), "2.5");
  EXPECT_EQ(util::JsonNum(std::nan("")), "0");
  EXPECT_EQ(util::JsonNum(1.0 / 0.0), "0");
}

TEST(Json, ParseRoundTrip) {
  util::JsonValue v;
  std::string err;
  ASSERT_TRUE(util::JsonParse(
      R"({"a": 1.5, "s": "x\ny", "arr": [1, true, null], "o": {"k": -2e3}})", &v,
      &err))
      << err;
  ASSERT_TRUE(v.IsObject());
  EXPECT_DOUBLE_EQ(v.NumberOr("a", 0.0), 1.5);
  EXPECT_EQ(v.StringOr("s", ""), "x\ny");
  const util::JsonValue* arr = v.Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_TRUE(arr->IsArray());
  ASSERT_EQ(arr->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->arr[0].number, 1.0);
  EXPECT_TRUE(arr->arr[1].boolean);
  EXPECT_EQ(arr->arr[2].type, util::JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(v.Find("o")->NumberOr("k", 0.0), -2000.0);
}

TEST(Json, ParseRejectsMalformed) {
  util::JsonValue v;
  std::string err;
  EXPECT_FALSE(util::JsonParse("{\"a\": }", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(util::JsonParse("[1, 2] trailing", &v, &err));
  EXPECT_FALSE(util::JsonParse("", &v, &err));
  // Nesting past the cap fails at its first bracket instead of overflowing
  // the stack; a document exactly at the cap still parses.
  for (const size_t depth : {size_t{100000}, size_t{1000000}}) {
    EXPECT_FALSE(util::JsonParse(std::string(depth, '['), &v, &err));
    EXPECT_EQ(err, "nesting deeper than 256 at offset 256");
  }
  const auto arrays = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(util::JsonParse(arrays(util::kJsonMaxDepth), &v, &err)) << err;
  EXPECT_FALSE(util::JsonParse(arrays(util::kJsonMaxDepth + 1), &v, &err));
  std::string objects;
  for (int i = 0; i < util::kJsonMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_TRUE(util::JsonParse(objects + "1" + std::string(util::kJsonMaxDepth, '}'), &v, &err))
      << err;
  EXPECT_FALSE(util::JsonParse("[" + objects + "1" + std::string(util::kJsonMaxDepth, '}') + "]",
                               &v, &err));
}

// --- Exporters ---------------------------------------------------------------

std::vector<TraceTrack> SampleTracks() {
  TraceTrack t;
  t.name = "replica 0";
  TraceEvent step = Ev(TraceName::kStep, 0.0, 100.0);
  step.a = 32;
  step.b = 2;
  t.events.push_back(step);
  t.events.push_back(Ev(TraceName::kPhaseGemm, 0.0, 100.0));
  TraceEvent q = Ev(TraceName::kReqQueued, 0.0, 50.0, /*req=*/7);
  t.events.push_back(q);
  t.events.push_back(Ev(TraceName::kReqFinish, 100.0, 0.0, /*req=*/7));
  TraceEvent ctr = Ev(TraceName::kCtrKvDevice, 100.0);
  ctr.v = 4096.0;
  t.events.push_back(ctr);
  return {t};
}

TEST(Export, PerfettoJsonParsesAndHasSchema) {
  std::ostringstream os;
  obs::WritePerfettoJson(os, SampleTracks());
  util::JsonValue doc;
  std::string err;
  ASSERT_TRUE(util::JsonParse(os.str(), &doc, &err)) << err;
  const util::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  int spans = 0, asyncs = 0, counters = 0, meta = 0;
  for (const auto& e : events->arr) {
    const std::string ph = e.StringOr("ph", "");
    ASSERT_FALSE(ph.empty());
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.NumberOr("dur", -1.0), 0.0);
    } else if (ph == "b" || ph == "e" || ph == "n") {
      ++asyncs;
      EXPECT_EQ(e.StringOr("cat", ""), "request");
    } else if (ph == "C") {
      ++counters;
      ASSERT_NE(e.Find("args"), nullptr);
      EXPECT_DOUBLE_EQ(e.Find("args")->NumberOr("value", -1.0), 4096.0);
    } else if (ph == "M") {
      ++meta;
    }
  }
  EXPECT_EQ(spans, 2);     // step + gemm phase.
  EXPECT_EQ(asyncs, 3);    // queued b/e + finish n.
  EXPECT_EQ(counters, 1);
  EXPECT_GE(meta, 3);      // process_name + 2 thread_names.
}

// One event of every TraceName value (5, the retired swap phase, included),
// once with no request id and no flags and once with both, every payload
// field distinct, so a key bound to the wrong field, row, kind or name shows.
std::vector<TraceTrack> EveryNameTracks() {
  TraceTrack t;
  t.name = "replica 0";
  for (int n = 0; n <= static_cast<int>(TraceName::kCtrHostStoredBytes); ++n) {
    for (const int scoped : {0, 1}) {
      TraceEvent e = Ev(static_cast<TraceName>(n), 10.0 * n + 5.0 * scoped, 2.5,
                        scoped ? 100 + n : -1);
      e.flags = static_cast<uint16_t>(scoped ? 3 : 0);
      e.a = 1 + 10 * scoped;
      e.b = 2 + 10 * scoped;
      e.c = 3 + 10 * scoped;
      e.d = 4 + 10 * scoped;
      e.v = 0.5 + scoped;
      t.events.push_back(e);
    }
  }
  return {t};
}

// The Perfetto exporter writes exactly the bytes pinned in tests/golden/ for
// every name: its display name, kind, row and payload keys.
TEST(Export, EveryNameMatchesPinnedOutput) {
  std::ostringstream perfetto;
  obs::WritePerfettoJson(perfetto, EveryNameTracks());
  EXPECT_EQ(test::FirstLineDiff(perfetto.str(), test::ReadGolden("every_name.trace.json")), "");
}

// --- TraceQuery --------------------------------------------------------------

TEST(TraceQuery, PerRequestAccumulatesPhases) {
  std::vector<TraceEvent> events;
  events.push_back(Ev(TraceName::kReqQueued, 0.0, 10.0, 1));
  events.push_back(Ev(TraceName::kReqPrefill, 10.0, 20.0, 1));
  events.push_back(Ev(TraceName::kReqDecode, 30.0, 40.0, 1));
  events.push_back(Ev(TraceName::kReqPreempted, 70.0, 5.0, 1));
  events.push_back(Ev(TraceName::kReqSwapIn, 75.0, 5.0, 1));
  events.push_back(Ev(TraceName::kReqDecode, 80.0, 20.0, 1));
  events.push_back(Ev(TraceName::kReqFinish, 100.0, 0.0, 1));
  events.push_back(Ev(TraceName::kReqReject, 3.0, 0.0, 2));
  const obs::TraceQuery query(events);
  const auto rows = query.PerRequest();
  ASSERT_EQ(rows.size(), 2u);
  const auto& r = rows[0];
  EXPECT_EQ(r.req, 1);
  EXPECT_DOUBLE_EQ(r.queued_ms, 10e-3);
  EXPECT_DOUBLE_EQ(r.prefill_ms, 20e-3);
  EXPECT_DOUBLE_EQ(r.decode_ms, 60e-3);
  EXPECT_DOUBLE_EQ(r.preempted_ms, 5e-3);
  EXPECT_DOUBLE_EQ(r.swap_ms, 5e-3);
  // Phases tile arrival -> finish.
  EXPECT_NEAR(r.TotalMs(), r.finish_ms - r.arrival_ms, 1e-9);
  EXPECT_TRUE(rows[1].rejected);
}

TEST(TraceQuery, StallAttribution) {
  std::vector<TraceEvent> events;
  // Step with stalls explained by prefill-alone (a > 0, b == 0).
  TraceEvent s1 = Ev(TraceName::kStep, 0.0, 10.0);
  s1.a = 64;
  s1.c = 2;
  events.push_back(s1);
  obs::TraceQuery ok(events);
  EXPECT_TRUE(ok.UnexplainedItlStalls().empty());
  EXPECT_EQ(ok.TotalItlStallSteps(), 2);

  // A stalled step with decode tokens is unexplained, and so is one with no
  // prompt tokens: a step that only lands a transfer decodes.
  TraceEvent bad = Ev(TraceName::kStep, 20.0, 10.0);
  bad.a = 64;
  bad.b = 2;
  bad.c = 2;
  events.push_back(bad);
  TraceEvent transfer_only = Ev(TraceName::kStep, 30.0, 10.0);
  transfer_only.c = 1;
  events.push_back(transfer_only);
  obs::TraceQuery broken(events);
  ASSERT_EQ(broken.UnexplainedItlStalls().size(), 2u);
  EXPECT_DOUBLE_EQ(broken.UnexplainedItlStalls()[0].ts_us, 20.0);
  EXPECT_DOUBLE_EQ(broken.UnexplainedItlStalls()[1].ts_us, 30.0);
}

TEST(TraceQuery, PreemptStallCoverage) {
  std::vector<TraceEvent> events;
  TraceEvent s = Ev(TraceName::kStep, 10.0, 10.0);
  s.d = 1;
  events.push_back(s);
  // Not yet covered by any preempted span -> unexplained.
  EXPECT_EQ(obs::TraceQuery(events).UnexplainedPreemptStalls().size(), 1u);
  // A preempted span enclosing the step explains it.
  events.push_back(Ev(TraceName::kReqPreempted, 5.0, 30.0, 3));
  EXPECT_TRUE(obs::TraceQuery(events).UnexplainedPreemptStalls().empty());
  EXPECT_EQ(obs::TraceQuery(events).TotalPreemptStallSteps(), 1);
}

TEST(TraceQuery, MigrationWaitCoverage) {
  std::vector<TraceEvent> events;
  events.push_back(Ev(TraceName::kReqMigrateIn, 10.0, 20.0, /*req=*/4));
  // A migrate-in span with no link transfer is unexplained.
  EXPECT_EQ(obs::TraceQuery(events).UnexplainedMigrationWaits().size(), 1u);
  // Neither a transfer for another request nor one that starts after the
  // wait ended explains it.
  events.push_back(Ev(TraceName::kCopyMigrate, 5.0, 25.0, /*req=*/5));
  events.push_back(Ev(TraceName::kCopyMigrate, 40.0, 5.0, /*req=*/4));
  ASSERT_EQ(obs::TraceQuery(events).UnexplainedMigrationWaits().size(), 1u);
  EXPECT_EQ(obs::TraceQuery(events).UnexplainedMigrationWaits()[0].req, 4);
  // The same request's transfer, landing as the wait ends, explains it.
  events.push_back(Ev(TraceName::kCopyMigrate, 5.0, 25.0, /*req=*/4));
  EXPECT_TRUE(obs::TraceQuery(events).UnexplainedMigrationWaits().empty());
}

}  // namespace
}  // namespace flashinfer

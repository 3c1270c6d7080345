// Live telemetry plane: a registry of labeled counters / gauges / histogram
// sketches that the serving engine publishes into on every step, in
// *simulated* time.
//
// Three metric types, each carrying both a cumulative view (monotone totals,
// full-run distribution) and a *sliding-window* view (a ring of time slots
// covering the trailing `window_s` seconds) so live signals — tokens/s over
// the last 10 s, the windowed TTFT p99 of one tenant class — are first-class
// and bounded in memory no matter how long the run:
//
//   Counter  Inc(t, v)      -> total(), WindowSum(now), WindowRatePerS(now)
//            SetTotal(t, v)    (moves the total to v; the window gets the step)
//   Gauge    Set(t, v)      -> value(), WindowMax(now)
//   Sketch   Observe(t, v)  -> cumulative Histogram + WindowSnapshot(now)
//
// The Histogram reused here is the log-bucketed percentile sketch from
// obs/stats.h: a few dozen buckets resolve latency tails spanning five orders
// of magnitude at ~19% worst-case relative error, so per-token ITL
// distributions cost O(1) memory instead of one double per emitted token.
//
// Labels are a small sorted key=value set (tenant, priority, replica, ...).
// The registry stores each instance by value in one typed slot and hands out
// stable pointers, so a hot emission site resolves its instance once and
// publishes with a single function call per sample.
//
// Exposition:
//   * PrometheusText(now): the standard text scrape format — counters,
//     gauges, and cumulative histograms with `le` buckets.
//   * JsonSnapshot(now): one JSON document (written/parsed with the shared
//     src/util/json machinery) carrying both cumulative and windowed views —
//     what a dashboard or the CI artifact uploader consumes.
//   * MergeFrom(other, "replica", "3"): ClusterEngine folds per-replica
//     registries into one cluster view by re-labeling every instance.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/stats.h"

namespace flashinfer::obs {

/// Canonical sorted label set. Construct with {{"tenant","3"},{"priority","1"}}
/// in any order; Key() is the canonical `k1=v1,k2=v2` form used for instance
/// identity and exposition.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Returns a copy with `key=value` added (replacing an existing key).
  LabelSet With(const std::string& key, const std::string& value) const;

  const std::vector<std::pair<std::string, std::string>>& Pairs() const noexcept {
    return kv_;
  }
  bool empty() const noexcept { return kv_.empty(); }

  /// Canonical identity string: `k1=v1,k2=v2` (keys sorted).
  std::string Key() const;
  /// Prometheus selector body: `k1="v1",k2="v2"` (values escaped).
  std::string Prometheus() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;  // Sorted by key.
};

/// Helper: the (tenant, priority) class labels every per-class serving metric
/// uses. tenant < 0 (single-tenant workloads) labels as tenant="-".
LabelSet ClassLabels(int tenant, int priority);

/// Sliding-window accumulator: a ring of `slots` sub-buckets, each
/// `window_s / slots` of simulated time wide. A slot is lazily reset when its
/// ring position is reused by a later epoch, so Add is O(1) and the window
/// state is a fixed-size array regardless of run length. A timestamp's
/// (epoch, slot) is worked out once per instant, not once per window: the
/// engine publishes a whole step at one time into windows of one geometry,
/// so each thread keeps the last answer.
class WindowedSum {
 public:
  WindowedSum(double window_s, int slots);

  void Add(double t_s, double v);

  /// Sum over slots still inside [now - window_s, now].
  double Sum(double now_s) const;
  /// Max of per-sample values inside the live window (0 when empty).
  double Max(double now_s) const;
  int64_t Count(double now_s) const;
  double RatePerS(double now_s) const { return Sum(now_s) / window_s_; }

  double window_s() const noexcept { return window_s_; }

 private:
  struct Slot {
    int64_t epoch = -1;  // floor(t / slot_s) when last written.
    double sum = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };
  double slot_s_ = 1.0;
  double window_s_ = 1.0;
  std::vector<Slot> slots_;
};

/// Sliding-window percentile sketch: a ring of default-geometry Histograms
/// (same lazy-epoch scheme as WindowedSum, a reused slot cleared in place);
/// Merged(now) folds the live slots into one Histogram for quantile queries
/// over the trailing window.
class WindowedSketch {
 public:
  WindowedSketch(double window_s, int slots);

  void Observe(double t_s, double v);
  /// Observe(t_s, v) for a caller that knows v's default-geometry bucket.
  void ObserveAt(double t_s, int64_t index, double v);
  Histogram Merged(double now_s) const;

 private:
  struct Slot {
    int64_t epoch = -1;
    Histogram hist;
  };
  double slot_s_ = 1.0;
  double window_s_ = 1.0;
  std::vector<Slot> slots_;
};

/// Window geometry shared by every instance a registry creates.
struct WindowConfig {
  double window_s = 10.0;
  int slots = 5;
};

/// Monotone counter with a windowed rate view.
class Counter {
 public:
  explicit Counter(const WindowConfig& w) : window_(w.window_s, w.slots) {}

  void Inc(double t_s, double v = 1.0) {
    total_ += v;
    window_.Add(t_s, v);
  }

  /// Moves the total to `total` (a publisher's own running sum), adding the
  /// difference to the window at `t_s`.
  void SetTotal(double t_s, double total) {
    window_.Add(t_s, total - total_);
    total_ = total;
  }

  double total() const noexcept { return total_; }
  double WindowSum(double now_s) const { return window_.Sum(now_s); }
  double WindowRatePerS(double now_s) const { return window_.RatePerS(now_s); }

 private:
  double total_ = 0.0;
  WindowedSum window_;
};

/// Last-write-wins gauge with a windowed max.
class Gauge {
 public:
  explicit Gauge(const WindowConfig& w) : window_(w.window_s, w.slots) {}

  void Set(double t_s, double v) {
    value_ = v;
    window_.Add(t_s, v);
  }

  double value() const noexcept { return value_; }
  double WindowMax(double now_s) const { return window_.Max(now_s); }

 private:
  double value_ = 0.0;
  WindowedSum window_;
};

/// Bounded percentile sketch: cumulative log-bucketed Histogram plus the
/// sliding-window ring, one bucket lookup per sample for both.
class Sketch {
 public:
  explicit Sketch(const WindowConfig& w) : window_(w.window_s, w.slots) {}

  void Observe(double t_s, double v) {
    const int64_t index = cumulative_.IndexOf(v);
    cumulative_.AddAt(index, v);
    window_.ObserveAt(t_s, index, v);
  }

  const Histogram& Cumulative() const noexcept { return cumulative_; }
  Histogram WindowSnapshot(double now_s) const { return window_.Merged(now_s); }

 private:
  Histogram cumulative_;
  WindowedSketch window_;
};

/// Registry of metric families. Get registers on first use and returns a
/// stable pointer (instances are never destroyed while the registry lives),
/// so emission sites resolve once and publish lock-free ever after (the
/// engine is single-threaded per replica; cross-replica merge copies).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(WindowConfig window = {});

  /// The `T` (Counter, Gauge or Sketch) instance of `name` with `labels`,
  /// registered on first use. A name binds to one type (checked).
  template <class T>
  T* Get(const std::string& name, const LabelSet& labels = {});
  /// Lookup without registration; nullptr when the instance does not exist
  /// or has another type.
  template <class T>
  const T* Find(const std::string& name, const LabelSet& labels = {}) const;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {}) {
    return Get<Counter>(name, labels);
  }
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {}) {
    return Get<Gauge>(name, labels);
  }
  Sketch* GetSketch(const std::string& name, const LabelSet& labels = {}) {
    return Get<Sketch>(name, labels);
  }
  const Counter* FindCounter(const std::string& name, const LabelSet& labels = {}) const {
    return Find<Counter>(name, labels);
  }
  const Gauge* FindGauge(const std::string& name, const LabelSet& labels = {}) const {
    return Find<Gauge>(name, labels);
  }
  const Sketch* FindSketch(const std::string& name, const LabelSet& labels = {}) const {
    return Find<Sketch>(name, labels);
  }

  /// Sum of `total()` across every instance of a counter family (all labels).
  double CounterFamilyTotal(const std::string& name) const;

  /// Copies every instance of `other` into this registry with
  /// `label_key=label_value` added to its labels — the cluster merge: each
  /// replica's registry lands under its own `replica="i"` label, so instances
  /// never collide and per-replica views survive in the merged exposition.
  void MergeFrom(const MetricsRegistry& other, const std::string& label_key,
                 const std::string& label_value);

  /// Prometheus text exposition format (counters, gauges, and cumulative
  /// histograms with `le` buckets; windowed views are JSON-only — Prometheus
  /// derives rates server-side).
  std::string PrometheusText(double now_s) const;

  /// Full JSON snapshot: cumulative totals/distributions plus the windowed
  /// aggregates (rate over the trailing window, windowed quantiles), one
  /// entry per instance. Parses cleanly with util::JsonParse — pinned by the
  /// schema test.
  std::string JsonSnapshot(double now_s) const;

  const WindowConfig& window() const noexcept { return window_; }

  /// Every registered (family, label) pair, for iteration in tests.
  std::vector<std::pair<std::string, std::string>> InstanceNames() const;

 private:
  struct Instance {
    LabelSet labels;
    std::variant<Counter, Gauge, Sketch> metric;
  };
  /// A family's instances keyed by LabelSet::Key(): the map keeps exposition
  /// order deterministic, and its nodes keep the addresses Get hands out.
  using Family = std::map<std::string, Instance>;

  WindowConfig window_;
  std::map<std::string, Family> families_;
};

}  // namespace flashinfer::obs

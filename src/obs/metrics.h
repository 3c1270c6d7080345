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
// Each call also takes a WindowPos in place of t: a publisher stamping many
// samples at one instant asks the registry for the instant's ring position
// once (MetricsRegistry::PosAt) instead of dividing per sample.
//
// The Histogram reused here is the log-bucketed percentile sketch from
// obs/stats.h: a few dozen buckets resolve latency tails spanning five orders
// of magnitude at ~19% worst-case relative error, so per-token ITL
// distributions cost O(1) memory instead of one double per emitted token.
//
// Storage. A Histogram holds no heap memory until its first sample, and then
// stores only the span of buckets it counts (obs/stats.h), so a window slot
// is 24 bytes and no bucket block until it is written. The registry allocates its
// instances' map nodes and their window rings from one arena that it frees
// whole when it is destroyed (instances are never removed before that); only
// histogram blocks come from the general heap. A (tenant, priority) class of
// three instances (fi_tokens_total, fi_ttft_ms, fi_itl_ms) with one TTFT and
// 255 ITL samples over three window slots holds ~1.7 KB in 6 heap blocks
// (bench_cpu_kernels BM_ClassLifecycle).
//
// An instance's Labels are its (tenant, priority) class, its replica, both
// or neither, and they key it in its family. The registry stores each
// instance by value in one typed slot and hands out stable pointers, so a
// hot emission site resolves its instance once and publishes with a single
// function call per sample. Label strings exist only in Labels::Key and
// JsonSnapshot.
//
// Exposition is one format: JsonSnapshot(now), a JSON document (written and
// parsed with the shared src/util/json machinery) carrying both cumulative
// and windowed views, which `bench_kv_pressure --metrics` and
// example_serving_sim write. MergeFrom(other, 3) is how ClusterEngine folds
// per-replica registries into one cluster view: it labels every instance
// with replica 3.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory_resource>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "obs/stats.h"

namespace flashinfer::obs {

/// The packed integer id of class (tenant, priority). Every tenant < 0 is
/// the unassigned one.
constexpr int64_t ClassId(int tenant, int priority) {
  return (static_cast<int64_t>(std::max(tenant, -1)) << 32) |
         static_cast<int64_t>(static_cast<uint32_t>(priority));
}

/// An instance's labels: a (tenant, priority) class or none, and a replica
/// or none.
struct Labels {
  std::optional<int64_t> class_id;  // ClassId(tenant, priority)
  std::optional<int> replica;

  static Labels Class(int tenant, int priority) { return {ClassId(tenant, priority), {}}; }
  static Labels Replica(int replica) { return {{}, replica}; }

  /// Canonical `priority=P,replica=R,tenant=T`, absent labels left out; the
  /// unassigned tenant reads "-". A family exposes its instances in this
  /// key's string order.
  std::string Key() const;
  bool operator==(const Labels&) const = default;
};

/// An instant's place in a window ring: its epoch, floor(t / slot width),
/// and that epoch's slot, epoch mod the slot count.
struct WindowPos {
  int64_t epoch = 0;
  size_t slot = 0;
};

/// Window geometry: a ring of `slots` slots, each `window_s / slots` of
/// simulated time wide. Every instance a registry creates has the
/// registry's geometry, so one WindowPos serves all of them. Instants are
/// simulated times >= 0: PosAt and LiveFrom check it (NaN fails too).
struct WindowConfig {
  double window_s = 10.0;
  int slots = 5;

  /// The ring position of instant `t_s`.
  WindowPos PosAt(double t_s) const;
  /// The least epoch still inside the window ending at `now_s`.
  int64_t LiveFrom(double now_s) const;
};

/// Sliding-window accumulator over a WindowConfig ring. A slot is lazily
/// reset when its ring position is reused by a later epoch, so Add is O(1)
/// and the window state is a fixed-size array regardless of run length.
class WindowedSum {
 public:
  /// The ring is allocated from `mem`.
  WindowedSum(double window_s, int slots,
              std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  void Add(double t_s, double v) { Add(geometry_.PosAt(t_s), v); }
  /// Add at a position this window's geometry gave.
  void Add(const WindowPos& at, double v) {
    Slot& s = slots_[at.slot];
    if (s.epoch != at.epoch) s = Slot{at.epoch, 0.0, 0.0, 0};
    s.sum += v;
    s.max = s.count == 0 ? v : std::max(s.max, v);
    ++s.count;
  }

  /// Sum over slots still inside [now - window_s, now].
  double Sum(double now_s) const;
  /// Max of per-sample values inside the live window (0 when empty).
  double Max(double now_s) const;
  int64_t Count(double now_s) const;
  double RatePerS(double now_s) const { return Sum(now_s) / geometry_.window_s; }

  const WindowConfig& geometry() const noexcept { return geometry_; }

 private:
  struct Slot {
    int64_t epoch = -1;  // floor(t / slot width) when last written.
    double sum = 0.0;
    double max = 0.0;
    int64_t count = 0;
  };
  WindowConfig geometry_;
  std::pmr::vector<Slot> slots_;
};

/// Sliding-window percentile sketch: a ring of default-geometry Histograms
/// (same lazy-epoch scheme as WindowedSum, a reused slot cleared in place).
/// A never-written slot is an epoch and an empty Histogram: its buckets are
/// allocated by its first sample, so a series that touches one slot holds
/// one bucket block, not one per slot. Merged(now) folds the live slots into
/// one Histogram for quantile queries over the trailing window.
class WindowedSketch {
 public:
  /// The ring (not the slots' buckets) is allocated from `mem`.
  WindowedSketch(double window_s, int slots,
                 std::pmr::memory_resource* mem = std::pmr::get_default_resource());

  void Observe(double t_s, double v);
  /// Observe for a caller that knows v's default-geometry bucket `index`
  /// and the ring position `at` of its instant.
  void ObserveAt(const WindowPos& at, int64_t index, double v) {
    Slot& s = slots_[at.slot];
    if (s.epoch != at.epoch) {
      s.epoch = at.epoch;
      s.hist.Clear();
    }
    s.hist.AddAt(index, v);
  }
  Histogram Merged(double now_s) const;

  const WindowConfig& geometry() const noexcept { return geometry_; }

 private:
  struct Slot {
    int64_t epoch = -1;
    Histogram hist;
  };
  WindowConfig geometry_;
  std::pmr::vector<Slot> slots_;
};

/// Monotone counter with a windowed rate view.
class Counter {
 public:
  explicit Counter(const WindowConfig& w,
                   std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : window_(w.window_s, w.slots, mem) {}

  void Inc(double t_s, double v = 1.0) { Inc(window_.geometry().PosAt(t_s), v); }
  void Inc(const WindowPos& at, double v = 1.0) {
    total_ += v;
    window_.Add(at, v);
  }

  /// Moves the total to `total` (a publisher's own running sum), adding the
  /// difference to the window at `t_s`.
  void SetTotal(double t_s, double total) {
    SetTotal(window_.geometry().PosAt(t_s), total);
  }
  void SetTotal(const WindowPos& at, double total);

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
  explicit Gauge(const WindowConfig& w,
                 std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : window_(w.window_s, w.slots, mem) {}

  void Set(double t_s, double v) { Set(window_.geometry().PosAt(t_s), v); }
  void Set(const WindowPos& at, double v) {
    value_ = v;
    window_.Add(at, v);
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
  explicit Sketch(const WindowConfig& w,
                  std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : window_(w.window_s, w.slots, mem) {}

  void Observe(double t_s, double v) { Observe(window_.geometry().PosAt(t_s), v); }
  void Observe(const WindowPos& at, double v) { ObserveAt(at, cumulative_.IndexOf(v), v); }
  /// Observe for a caller that knows v's default-geometry bucket.
  void ObserveAt(const WindowPos& at, int64_t index, double v) {
    cumulative_.AddAt(index, v);
    window_.ObserveAt(at, index, v);
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
  T* Get(const std::string& name, const Labels& labels = {});
  /// Lookup without registration; nullptr when the instance does not exist
  /// or has another type.
  template <class T>
  const T* Find(const std::string& name, const Labels& labels = {}) const;

  /// The ring position of instant `t_s` in every window this registry
  /// creates. The last answer is kept: the engine asks at one instant
  /// several times per step (commits, gauges, flush).
  WindowPos PosAt(double t_s) {
    if (t_s != pos_t_s_) {
      pos_ = window_.PosAt(t_s);
      pos_t_s_ = t_s;
    }
    return pos_;
  }

  /// Sum of `total()` across every instance of a counter family (all labels),
  /// in exposition order.
  double CounterFamilyTotal(const std::string& name) const;

  /// Copies every instance of `other` into this registry under `replica`,
  /// keeping its class — the cluster merge: each replica's registry lands
  /// under its own replica label, so instances never collide and
  /// per-replica views survive in the merged exposition.
  void MergeFrom(const MetricsRegistry& other, int replica);

  /// Full JSON snapshot: cumulative totals/distributions plus the windowed
  /// aggregates (rate over the trailing window, windowed quantiles), one
  /// entry per instance. Parses cleanly with util::JsonParse — pinned by the
  /// schema test.
  std::string JsonSnapshot(double now_s) const;

  const WindowConfig& window() const noexcept { return window_; }

  /// Every registered (family, labels) pair, in exposition order.
  std::vector<std::pair<std::string, Labels>> InstanceNames() const;

 private:
  struct LabelsHash {
    size_t operator()(const Labels& l) const noexcept {
      return std::hash<uint64_t>()(static_cast<uint64_t>(l.class_id.value_or(0)) * 31u +
                                   static_cast<uint64_t>(l.replica.value_or(-1)));
    }
  };
  using Instance = std::variant<Counter, Gauge, Sketch>;
  /// A family's instances. The map's nodes (in arena_) keep the addresses
  /// Get hands out; every reader that iterates sorts by label key (Sorted).
  using Family = std::pmr::unordered_map<Labels, Instance, LabelsHash>;

  /// `fam`'s instances with their label keys, sorted by key.
  static std::vector<std::pair<std::string, const Family::value_type*>> Sorted(
      const Family& fam);

  WindowConfig window_;
  WindowPos pos_;  // PosAt's last answer, for instant pos_t_s_.
  double pos_t_s_ = std::numeric_limits<double>::quiet_NaN();
  /// Every family's nodes and every instance's window ring; declared before
  /// families_ so that it outlives them.
  std::pmr::monotonic_buffer_resource arena_;
  std::map<std::string, Family> families_;  // By name: exposition order.
};

}  // namespace flashinfer::obs

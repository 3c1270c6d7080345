#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/json.h"

namespace flashinfer::obs {

// ---------------------------------------------------------------------------
// LabelSet

LabelSet::LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv)
    : kv_(kv) {
  std::sort(kv_.begin(), kv_.end());
  for (size_t i = 1; i < kv_.size(); ++i) {
    FI_CHECK(kv_[i - 1].first != kv_[i].first);
  }
}

LabelSet LabelSet::With(const std::string& key, const std::string& value) const {
  LabelSet out = *this;
  for (auto& [k, v] : out.kv_) {
    if (k == key) {
      v = value;
      return out;
    }
  }
  out.kv_.emplace_back(key, value);
  std::sort(out.kv_.begin(), out.kv_.end());
  return out;
}

std::string LabelSet::Key() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::string LabelSet::Prometheus() const {
  std::string out;
  for (const auto& [k, v] : kv_) {
    if (!out.empty()) out += ',';
    out += k;
    out += "=\"";
    out += util::JsonEscape(v);  // Prometheus shares JSON string escaping.
    out += '"';
  }
  return out;
}

LabelSet ClassLabels(int tenant, int priority) {
  return LabelSet{{"tenant", tenant >= 0 ? std::to_string(tenant) : std::string("-")},
                  {"priority", std::to_string(priority)}};
}

// ---------------------------------------------------------------------------
// WindowedSum / WindowedSketch

namespace {

/// floor(t_s / slot_s) as an integer, without a libm call: truncation, then
/// one step down for a negative non-integer quotient.
int64_t EpochAt(double t_s, double slot_s) {
  const double q = t_s / slot_s;
  const auto epoch = static_cast<int64_t>(q);
  return static_cast<double>(epoch) > q ? epoch - 1 : epoch;
}

struct RingPos {
  int64_t epoch = 0;  // EpochAt(t, slot_s).
  size_t slot = 0;    // epoch mod the ring size.
};

/// The ring position of instant `t_s` in a ring of `slots` slots `slot_s`
/// wide, memoized per thread: the engine publishes a whole step at one
/// timestamp into many windows that share one geometry.
RingPos PosOf(double t_s, double slot_s, size_t slots) {
  constinit thread_local struct {
    double t_s = std::numeric_limits<double>::quiet_NaN();
    double slot_s = 0.0;
    size_t slots = 0;
    RingPos pos;
  } last;
  if (t_s != last.t_s || slot_s != last.slot_s || slots != last.slots) {
    const int64_t epoch = EpochAt(t_s, slot_s);
    last.t_s = t_s;
    last.slot_s = slot_s;
    last.slots = slots;
    last.pos = {epoch, static_cast<size_t>(epoch % static_cast<int64_t>(slots))};
  }
  return last.pos;
}

}  // namespace

WindowedSum::WindowedSum(double window_s, int slots)
    : slot_s_(window_s / slots), window_s_(window_s), slots_(static_cast<size_t>(slots)) {
  FI_CHECK_GT(window_s, 0.0);
  FI_CHECK_GT(slots, 0);
}

void WindowedSum::Add(double t_s, double v) {
  const RingPos pos = PosOf(t_s, slot_s_, slots_.size());
  Slot& s = slots_[pos.slot];
  if (s.epoch != pos.epoch) s = Slot{pos.epoch, 0.0, 0.0, 0};
  s.sum += v;
  s.max = s.count == 0 ? v : std::max(s.max, v);
  ++s.count;
}

double WindowedSum::Sum(double now_s) const {
  const int64_t lo = EpochAt(now_s, slot_s_) - static_cast<int64_t>(slots_.size()) + 1;
  double sum = 0.0;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) sum += s.sum;
  }
  return sum;
}

double WindowedSum::Max(double now_s) const {
  const int64_t lo = EpochAt(now_s, slot_s_) - static_cast<int64_t>(slots_.size()) + 1;
  double mx = 0.0;
  bool any = false;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo && s.count > 0) {
      mx = any ? std::max(mx, s.max) : s.max;
      any = true;
    }
  }
  return mx;
}

int64_t WindowedSum::Count(double now_s) const {
  const int64_t lo = EpochAt(now_s, slot_s_) - static_cast<int64_t>(slots_.size()) + 1;
  int64_t n = 0;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) n += s.count;
  }
  return n;
}

WindowedSketch::WindowedSketch(double window_s, int slots)
    : slot_s_(window_s / slots), window_s_(window_s), slots_(static_cast<size_t>(slots)) {
  FI_CHECK_GT(window_s, 0.0);
  FI_CHECK_GT(slots, 0);
}

void WindowedSketch::Observe(double t_s, double v) {
  ObserveAt(t_s, slots_.front().hist.IndexOf(v), v);
}

void WindowedSketch::ObserveAt(double t_s, int64_t index, double v) {
  const RingPos pos = PosOf(t_s, slot_s_, slots_.size());
  Slot& s = slots_[pos.slot];
  if (s.epoch != pos.epoch) {
    s.epoch = pos.epoch;
    s.hist.Clear();
  }
  s.hist.AddAt(index, v);
}

Histogram WindowedSketch::Merged(double now_s) const {
  const int64_t lo = EpochAt(now_s, slot_s_) - static_cast<int64_t>(slots_.size()) + 1;
  Histogram out;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) out.MergeFrom(s.hist);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(WindowConfig window) : window_(window) {
  FI_CHECK_GT(window_.window_s, 0.0);
  FI_CHECK_GT(window_.slots, 0);
}

MetricsRegistry::Family& MetricsRegistry::FamilyOf(const std::string& name, Type type) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
  } else {
    FI_CHECK(it->second.type == type);  // A name binds to one metric type.
  }
  return it->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name, const LabelSet& labels) {
  Family& fam = FamilyOf(name, Type::kCounter);
  auto [it, inserted] = fam.instances.try_emplace(labels.Key());
  if (inserted) {
    it->second.labels = labels;
    it->second.counter = std::make_unique<Counter>(window_);
  }
  return it->second.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, const LabelSet& labels) {
  Family& fam = FamilyOf(name, Type::kGauge);
  auto [it, inserted] = fam.instances.try_emplace(labels.Key());
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge = std::make_unique<Gauge>(window_);
  }
  return it->second.gauge.get();
}

Sketch* MetricsRegistry::GetSketch(const std::string& name, const LabelSet& labels) {
  Family& fam = FamilyOf(name, Type::kSketch);
  auto [it, inserted] = fam.instances.try_emplace(labels.Key());
  if (inserted) {
    it->second.labels = labels;
    it->second.sketch = std::make_unique<Sketch>(window_);
  }
  return it->second.sketch.get();
}

const MetricsRegistry::Instance* MetricsRegistry::Find(const std::string& name, Type type,
                                                       const LabelSet& labels) const {
  const auto fit = families_.find(name);
  if (fit == families_.end() || fit->second.type != type) return nullptr;
  const auto iit = fit->second.instances.find(labels.Key());
  return iit == fit->second.instances.end() ? nullptr : &iit->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const LabelSet& labels) const {
  const Instance* inst = Find(name, Type::kCounter, labels);
  return inst ? inst->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name, const LabelSet& labels) const {
  const Instance* inst = Find(name, Type::kGauge, labels);
  return inst ? inst->gauge.get() : nullptr;
}

const Sketch* MetricsRegistry::FindSketch(const std::string& name,
                                          const LabelSet& labels) const {
  const Instance* inst = Find(name, Type::kSketch, labels);
  return inst ? inst->sketch.get() : nullptr;
}

double MetricsRegistry::CounterFamilyTotal(const std::string& name) const {
  const auto fit = families_.find(name);
  if (fit == families_.end() || fit->second.type != Type::kCounter) return 0.0;
  double sum = 0.0;
  for (const auto& [key, inst] : fit->second.instances) sum += inst.counter->total();
  return sum;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other, const std::string& label_key,
                                const std::string& label_value) {
  for (const auto& [name, fam] : other.families_) {
    for (const auto& [key, inst] : fam.instances) {
      const LabelSet labels = inst.labels.With(label_key, label_value);
      switch (fam.type) {
        case Type::kCounter:
          *GetCounter(name, labels) = *inst.counter;
          break;
        case Type::kGauge:
          *GetGauge(name, labels) = *inst.gauge;
          break;
        case Type::kSketch:
          *GetSketch(name, labels) = *inst.sketch;
          break;
      }
    }
  }
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::InstanceNames() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam.instances) out.emplace_back(name, key);
  }
  return out;
}

namespace {

void AppendPromSample(std::string& out, const std::string& name, const LabelSet& labels,
                      double value, const char* suffix = "",
                      const std::string& extra_label = {}) {
  out += name;
  out += suffix;
  const std::string body = labels.Prometheus();
  if (!body.empty() || !extra_label.empty()) {
    out += '{';
    out += body;
    if (!extra_label.empty()) {
      if (!body.empty()) out += ',';
      out += extra_label;
    }
    out += '}';
  }
  out += ' ';
  out += util::JsonNum(value);
  out += '\n';
}

}  // namespace

std::string MetricsRegistry::PrometheusText(double now_s) const {
  (void)now_s;  // Prometheus exposes cumulative state; rates derive server-side.
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# TYPE " + name;
    switch (fam.type) {
      case Type::kCounter:
        out += " counter\n";
        for (const auto& [key, inst] : fam.instances) {
          AppendPromSample(out, name, inst.labels, inst.counter->total());
        }
        break;
      case Type::kGauge:
        out += " gauge\n";
        for (const auto& [key, inst] : fam.instances) {
          AppendPromSample(out, name, inst.labels, inst.gauge->value());
        }
        break;
      case Type::kSketch: {
        out += " histogram\n";
        for (const auto& [key, inst] : fam.instances) {
          const Histogram& h = inst.sketch->Cumulative();
          int64_t cum = 0;
          for (int64_t i = 0; i < h.NumBuckets(); ++i) {
            if (h.BucketCount(i) == 0) continue;
            cum += h.BucketCount(i);
            // Upper edge of bucket i is the lower edge of bucket i+1; the
            // overflow bucket's is +Inf, emitted below.
            if (i == h.NumBuckets() - 1) continue;
            AppendPromSample(out, name, inst.labels, static_cast<double>(cum), "_bucket",
                             "le=\"" + util::JsonNum(h.BucketLowerEdge(i + 1)) + "\"");
          }
          AppendPromSample(out, name, inst.labels, static_cast<double>(h.Count()), "_bucket",
                           "le=\"+Inf\"");
          AppendPromSample(out, name, inst.labels,
                           h.Mean() * static_cast<double>(h.Count()), "_sum");
          AppendPromSample(out, name, inst.labels, static_cast<double>(h.Count()), "_count");
        }
        break;
      }
    }
  }
  return out;
}

namespace {

void AppendJsonKv(std::string& out, const char* key, double v, bool last = false) {
  out += '"';
  out += key;
  out += "\":";
  out += util::JsonNum(v);
  if (!last) out += ',';
}

std::string LabelsJson(const LabelSet& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels.Pairs()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += util::JsonEscape(k);
    out += "\":\"";
    out += util::JsonEscape(v);
    out += '"';
  }
  out += '}';
  return out;
}

std::string SketchJson(const Histogram& h, const char* p50, const char* p90, const char* p99) {
  std::string out;
  AppendJsonKv(out, "count", static_cast<double>(h.Count()));
  AppendJsonKv(out, "sum", h.Mean() * static_cast<double>(h.Count()));
  AppendJsonKv(out, "min", h.MinValue());
  AppendJsonKv(out, "max", h.MaxValue());
  AppendJsonKv(out, p50, h.Quantile(0.5));
  AppendJsonKv(out, p90, h.Quantile(0.9));
  AppendJsonKv(out, p99, h.Quantile(0.99), /*last=*/true);
  return out;
}

}  // namespace

std::string MetricsRegistry::JsonSnapshot(double now_s) const {
  std::string out = "{\"now_s\":" + util::JsonNum(now_s) +
                    ",\"window_s\":" + util::JsonNum(window_.window_s) + ",\"metrics\":[";
  bool first = true;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam.instances) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + util::JsonEscape(name) + "\",\"labels\":" + LabelsJson(inst.labels);
      switch (fam.type) {
        case Type::kCounter:
          out += ",\"type\":\"counter\",";
          AppendJsonKv(out, "total", inst.counter->total());
          AppendJsonKv(out, "window_sum", inst.counter->WindowSum(now_s));
          AppendJsonKv(out, "window_rate_per_s", inst.counter->WindowRatePerS(now_s),
                       /*last=*/true);
          break;
        case Type::kGauge:
          out += ",\"type\":\"gauge\",";
          AppendJsonKv(out, "value", inst.gauge->value());
          AppendJsonKv(out, "window_max", inst.gauge->WindowMax(now_s), /*last=*/true);
          break;
        case Type::kSketch: {
          out += ",\"type\":\"sketch\",";
          out += SketchJson(inst.sketch->Cumulative(), "p50", "p90", "p99");
          out += ",\"window\":{";
          out += SketchJson(inst.sketch->WindowSnapshot(now_s), "p50", "p90", "p99");
          out += '}';
          break;
        }
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace flashinfer::obs

#include "obs/metrics.h"

#include <algorithm>
#include <limits>
#include <type_traits>

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

template <class T>
T* MetricsRegistry::Get(const std::string& name, const LabelSet& labels) {
  Family& fam = families_[name];
  // A name binds to one metric type.
  FI_CHECK(fam.empty() || std::holds_alternative<T>(fam.begin()->second.metric));
  const std::string key = labels.Key();
  auto it = fam.lower_bound(key);
  if (it == fam.end() || it->first != key) {
    it = fam.emplace_hint(it, key, Instance{labels, T(window_)});
  }
  return &std::get<T>(it->second.metric);
}

template <class T>
const T* MetricsRegistry::Find(const std::string& name, const LabelSet& labels) const {
  const auto fit = families_.find(name);
  if (fit == families_.end()) return nullptr;
  const auto it = fit->second.find(labels.Key());
  return it == fit->second.end() ? nullptr : std::get_if<T>(&it->second.metric);
}

template Counter* MetricsRegistry::Get<Counter>(const std::string&, const LabelSet&);
template Gauge* MetricsRegistry::Get<Gauge>(const std::string&, const LabelSet&);
template Sketch* MetricsRegistry::Get<Sketch>(const std::string&, const LabelSet&);
template const Counter* MetricsRegistry::Find<Counter>(const std::string&,
                                                       const LabelSet&) const;
template const Gauge* MetricsRegistry::Find<Gauge>(const std::string&, const LabelSet&) const;
template const Sketch* MetricsRegistry::Find<Sketch>(const std::string&, const LabelSet&) const;

double MetricsRegistry::CounterFamilyTotal(const std::string& name) const {
  double sum = 0.0;
  const auto fit = families_.find(name);
  if (fit == families_.end()) return sum;
  for (const auto& [key, inst] : fit->second) {
    if (const auto* c = std::get_if<Counter>(&inst.metric)) sum += c->total();
  }
  return sum;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other, const std::string& label_key,
                                const std::string& label_value) {
  for (const auto& [name, fam] : other.families_) {
    for (const auto& [key, inst] : fam) {
      const LabelSet labels = inst.labels.With(label_key, label_value);
      std::visit([&](const auto& m) { *Get<std::decay_t<decltype(m)>>(name, labels) = m; },
                 inst.metric);
    }
  }
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::InstanceNames() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam) out.emplace_back(name, key);
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

// One instance's Prometheus samples, per metric type.
void AppendProm(std::string& out, const std::string& name, const LabelSet& labels,
                const Counter& c) {
  AppendPromSample(out, name, labels, c.total());
}

void AppendProm(std::string& out, const std::string& name, const LabelSet& labels,
                const Gauge& g) {
  AppendPromSample(out, name, labels, g.value());
}

void AppendProm(std::string& out, const std::string& name, const LabelSet& labels,
                const Sketch& s) {
  const Histogram& h = s.Cumulative();
  int64_t cum = 0;
  for (int64_t i = 0; i < h.NumBuckets(); ++i) {
    if (h.BucketCount(i) == 0) continue;
    cum += h.BucketCount(i);
    // Upper edge of bucket i is the lower edge of bucket i+1; the overflow
    // bucket's is +Inf, emitted below.
    if (i == h.NumBuckets() - 1) continue;
    AppendPromSample(out, name, labels, static_cast<double>(cum), "_bucket",
                     "le=\"" + util::JsonNum(h.BucketLowerEdge(i + 1)) + "\"");
  }
  AppendPromSample(out, name, labels, static_cast<double>(h.Count()), "_bucket", "le=\"+Inf\"");
  AppendPromSample(out, name, labels, h.Mean() * static_cast<double>(h.Count()), "_sum");
  AppendPromSample(out, name, labels, static_cast<double>(h.Count()), "_count");
}

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

void AppendHistogramJson(std::string& out, const Histogram& h) {
  AppendJsonKv(out, "count", static_cast<double>(h.Count()));
  AppendJsonKv(out, "sum", h.Mean() * static_cast<double>(h.Count()));
  AppendJsonKv(out, "min", h.MinValue());
  AppendJsonKv(out, "max", h.MaxValue());
  AppendJsonKv(out, "p50", h.Quantile(0.5));
  AppendJsonKv(out, "p90", h.Quantile(0.9));
  AppendJsonKv(out, "p99", h.Quantile(0.99), /*last=*/true);
}

// One instance's JSON members after its name and labels, per metric type.
void AppendJson(std::string& out, const Counter& c, double now_s) {
  out += ",\"type\":\"counter\",";
  AppendJsonKv(out, "total", c.total());
  AppendJsonKv(out, "window_sum", c.WindowSum(now_s));
  AppendJsonKv(out, "window_rate_per_s", c.WindowRatePerS(now_s), /*last=*/true);
}

void AppendJson(std::string& out, const Gauge& g, double now_s) {
  out += ",\"type\":\"gauge\",";
  AppendJsonKv(out, "value", g.value());
  AppendJsonKv(out, "window_max", g.WindowMax(now_s), /*last=*/true);
}

void AppendJson(std::string& out, const Sketch& s, double now_s) {
  out += ",\"type\":\"sketch\",";
  AppendHistogramJson(out, s.Cumulative());
  out += ",\"window\":{";
  AppendHistogramJson(out, s.WindowSnapshot(now_s));
  out += '}';
}

}  // namespace

std::string MetricsRegistry::PrometheusText(double now_s) const {
  (void)now_s;  // Prometheus exposes cumulative state; rates derive server-side.
  constexpr const char* kTypes[] = {"counter", "gauge", "histogram"};  // By alternative.
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "# TYPE " + name + ' ' + kTypes[fam.begin()->second.metric.index()] + '\n';
    for (const auto& [key, inst] : fam) {
      std::visit([&](const auto& m) { AppendProm(out, name, inst.labels, m); }, inst.metric);
    }
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot(double now_s) const {
  std::string out = "{\"now_s\":" + util::JsonNum(now_s) +
                    ",\"window_s\":" + util::JsonNum(window_.window_s) + ",\"metrics\":[";
  bool first = true;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, inst] : fam) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + util::JsonEscape(name) + "\",\"labels\":" + LabelsJson(inst.labels);
      std::visit([&](const auto& m) { AppendJson(out, m, now_s); }, inst.metric);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace flashinfer::obs

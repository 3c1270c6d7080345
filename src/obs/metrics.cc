#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <system_error>
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

LabelSet ClassLabels(int tenant, int priority) {
  return LabelSet{{"tenant", tenant >= 0 ? std::to_string(tenant) : std::string("-")},
                  {"priority", std::to_string(priority)}};
}

// ---------------------------------------------------------------------------
// WindowConfig / WindowedSum / WindowedSketch

namespace {

/// floor(t_s / slot_s) as an integer, without a libm call: truncation, then
/// one step down for a negative non-integer quotient.
int64_t EpochAt(double t_s, double slot_s) {
  const double q = t_s / slot_s;
  const auto epoch = static_cast<int64_t>(q);
  return static_cast<double>(epoch) > q ? epoch - 1 : epoch;
}

}  // namespace

WindowPos WindowConfig::PosAt(double t_s) const {
  const int64_t epoch = EpochAt(t_s, window_s / slots);
  return {epoch, static_cast<size_t>(epoch % slots)};
}

int64_t WindowConfig::LiveFrom(double now_s) const {
  return EpochAt(now_s, window_s / slots) - slots + 1;
}

WindowedSum::WindowedSum(double window_s, int slots, std::pmr::memory_resource* mem)
    : geometry_{window_s, slots}, slots_(static_cast<size_t>(slots), mem) {
  FI_CHECK_GT(window_s, 0.0);
  FI_CHECK_GT(slots, 0);
}

double WindowedSum::Sum(double now_s) const {
  const int64_t lo = geometry_.LiveFrom(now_s);
  double sum = 0.0;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) sum += s.sum;
  }
  return sum;
}

double WindowedSum::Max(double now_s) const {
  const int64_t lo = geometry_.LiveFrom(now_s);
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
  const int64_t lo = geometry_.LiveFrom(now_s);
  int64_t n = 0;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) n += s.count;
  }
  return n;
}

void Counter::SetTotal(const WindowPos& at, double total) {
  window_.Add(at, total - total_);
  total_ = total;
}

WindowedSketch::WindowedSketch(double window_s, int slots, std::pmr::memory_resource* mem)
    : geometry_{window_s, slots}, slots_(static_cast<size_t>(slots), mem) {
  FI_CHECK_GT(window_s, 0.0);
  FI_CHECK_GT(slots, 0);
}

void WindowedSketch::Observe(double t_s, double v) {
  ObserveAt(geometry_.PosAt(t_s), Histogram::IndexOf(v), v);
}

Histogram WindowedSketch::Merged(double now_s) const {
  const int64_t lo = geometry_.LiveFrom(now_s);
  Histogram out;
  for (const Slot& s : slots_) {
    if (s.epoch >= lo) out.MergeFrom(s.hist);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {

LabelSet ClassIdLabels(int64_t id) {
  return ClassLabels(static_cast<int>(id >> 32), static_cast<int>(static_cast<uint32_t>(id)));
}

/// `s` as an int when it is exactly std::to_string of that int.
std::optional<int> CanonicalInt(const std::string& s) {
  int v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || std::to_string(v) != s) {
    return std::nullopt;
  }
  return v;
}

}  // namespace

MetricsRegistry::MetricsRegistry(WindowConfig window) : window_(window) {
  FI_CHECK_GT(window_.window_s, 0.0);
  FI_CHECK_GT(window_.slots, 0);
}

MetricsRegistry::Key MetricsRegistry::KeyOf(const LabelSet& labels) {
  const auto& kv = labels.Pairs();
  if (kv.size() == 2 && kv[0].first == "priority" && kv[1].first == "tenant") {
    const std::string& t = kv[1].second;
    const std::optional<int> priority = CanonicalInt(kv[0].second);
    const std::optional<int> tenant = t == "-" ? std::optional<int>(-1) : CanonicalInt(t);
    if (priority && tenant && (*tenant >= 0 || t == "-")) {
      return {ClassId(*tenant, *priority), {}};
    }
  }
  return {Key::kLabeled, labels.Key()};
}

template <class T>
T* MetricsRegistry::GetKeyed(const std::string& name, Key key, const LabelSet& labels) {
  Family& fam = families_.try_emplace(name, &arena_).first->second;
  // A name binds to one metric type.
  FI_CHECK(fam.empty() || std::holds_alternative<T>(fam.begin()->second.metric));
  auto it = fam.find(key);
  if (it == fam.end()) {
    const bool labeled = key.class_id == Key::kLabeled;
    it = fam.emplace(std::move(key), Instance{labeled ? labels : LabelSet{}, T(window_, &arena_)})
             .first;
  }
  return &std::get<T>(it->second.metric);
}

template <class T>
T* MetricsRegistry::Get(const std::string& name, const LabelSet& labels) {
  return GetKeyed<T>(name, KeyOf(labels), labels);
}

template <class T>
T* MetricsRegistry::GetClass(const std::string& name, int tenant, int priority) {
  return GetKeyed<T>(name, {ClassId(tenant, priority), {}}, {});
}

template <class T>
const T* MetricsRegistry::Find(const std::string& name, const LabelSet& labels) const {
  const auto fit = families_.find(name);
  if (fit == families_.end()) return nullptr;
  const auto it = fit->second.find(KeyOf(labels));
  return it == fit->second.end() ? nullptr : std::get_if<T>(&it->second.metric);
}

template Counter* MetricsRegistry::Get<Counter>(const std::string&, const LabelSet&);
template Gauge* MetricsRegistry::Get<Gauge>(const std::string&, const LabelSet&);
template Sketch* MetricsRegistry::Get<Sketch>(const std::string&, const LabelSet&);
template Counter* MetricsRegistry::GetClass<Counter>(const std::string&, int, int);
template Gauge* MetricsRegistry::GetClass<Gauge>(const std::string&, int, int);
template Sketch* MetricsRegistry::GetClass<Sketch>(const std::string&, int, int);
template const Counter* MetricsRegistry::Find<Counter>(const std::string&,
                                                       const LabelSet&) const;
template const Gauge* MetricsRegistry::Find<Gauge>(const std::string&, const LabelSet&) const;
template const Sketch* MetricsRegistry::Find<Sketch>(const std::string&, const LabelSet&) const;

std::vector<MetricsRegistry::Labeled> MetricsRegistry::Sorted(const Family& fam) {
  std::vector<Labeled> out;
  out.reserve(fam.size());
  for (const auto& [key, inst] : fam) {
    if (key.class_id == Key::kLabeled) {
      out.push_back({key.labels, inst.labels, &inst});
    } else {
      LabelSet labels = ClassIdLabels(key.class_id);
      std::string text = labels.Key();
      out.push_back({std::move(text), std::move(labels), &inst});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Labeled& a, const Labeled& b) { return a.key < b.key; });
  return out;
}

double MetricsRegistry::CounterFamilyTotal(const std::string& name) const {
  double sum = 0.0;
  const auto fit = families_.find(name);
  if (fit == families_.end()) return sum;
  for (const Labeled& l : Sorted(fit->second)) {
    if (const auto* c = std::get_if<Counter>(&l.inst->metric)) sum += c->total();
  }
  return sum;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other, const std::string& label_key,
                                const std::string& label_value) {
  for (const auto& [name, fam] : other.families_) {
    for (const Labeled& l : Sorted(fam)) {
      const LabelSet labels = l.labels.With(label_key, label_value);
      std::visit([&](const auto& m) { *Get<std::decay_t<decltype(m)>>(name, labels) = m; },
                 l.inst->metric);
    }
  }
}

std::vector<std::pair<std::string, std::string>> MetricsRegistry::InstanceNames() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [name, fam] : families_) {
    for (const Labeled& l : Sorted(fam)) out.emplace_back(name, l.key);
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

std::string MetricsRegistry::JsonSnapshot(double now_s) const {
  std::string out = "{\"now_s\":" + util::JsonNum(now_s) +
                    ",\"window_s\":" + util::JsonNum(window_.window_s) + ",\"metrics\":[";
  bool first = true;
  for (const auto& [name, fam] : families_) {
    for (const Labeled& l : Sorted(fam)) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + util::JsonEscape(name) + "\",\"labels\":" + LabelsJson(l.labels);
      std::visit([&](const auto& m) { AppendJson(out, m, now_s); }, l.inst->metric);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace flashinfer::obs

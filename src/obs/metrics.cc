#include "obs/metrics.h"

#include <algorithm>
#include <type_traits>

#include "util/check.h"
#include "util/json.h"

namespace flashinfer::obs {

// ---------------------------------------------------------------------------
// Labels

namespace {

/// `labels` as (key, value) pairs in key order.
std::vector<std::pair<const char*, std::string>> Pairs(const Labels& labels) {
  const std::optional<int64_t>& id = labels.class_id;
  std::vector<std::pair<const char*, std::string>> out;
  if (id) out.emplace_back("priority", std::to_string(static_cast<int32_t>(*id)));
  if (labels.replica) out.emplace_back("replica", std::to_string(*labels.replica));
  if (id) out.emplace_back("tenant", *id < 0 ? std::string("-") : std::to_string(*id >> 32));
  return out;
}

}  // namespace

std::string Labels::Key() const {
  std::string out;
  for (const auto& [k, v] : Pairs(*this)) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

// ---------------------------------------------------------------------------
// WindowConfig / WindowedSum / WindowedSketch

namespace {

/// floor(t_s / slot_s) as an integer, without a libm call. The simulated
/// clock starts at 0, so truncation is the floor; an earlier or NaN instant
/// has no ring slot.
int64_t EpochAt(double t_s, double slot_s) {
  FI_CHECK_GE(t_s, 0.0);
  return static_cast<int64_t>(t_s / slot_s);
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

MetricsRegistry::MetricsRegistry(WindowConfig window) : window_(window) {
  FI_CHECK_GT(window_.window_s, 0.0);
  FI_CHECK_GT(window_.slots, 0);
}

template <class T>
T* MetricsRegistry::Get(const std::string& name, const Labels& labels) {
  Family& fam = families_.try_emplace(name, &arena_).first->second;
  // A name binds to one metric type.
  FI_CHECK(fam.empty() || std::holds_alternative<T>(fam.begin()->second));
  return &std::get<T>(
      fam.try_emplace(labels, std::in_place_type<T>, window_, &arena_).first->second);
}

template <class T>
const T* MetricsRegistry::Find(const std::string& name, const Labels& labels) const {
  const auto fit = families_.find(name);
  if (fit == families_.end()) return nullptr;
  const auto it = fit->second.find(labels);
  return it == fit->second.end() ? nullptr : std::get_if<T>(&it->second);
}

template Counter* MetricsRegistry::Get<Counter>(const std::string&, const Labels&);
template Gauge* MetricsRegistry::Get<Gauge>(const std::string&, const Labels&);
template Sketch* MetricsRegistry::Get<Sketch>(const std::string&, const Labels&);
template const Counter* MetricsRegistry::Find<Counter>(const std::string&, const Labels&) const;
template const Gauge* MetricsRegistry::Find<Gauge>(const std::string&, const Labels&) const;
template const Sketch* MetricsRegistry::Find<Sketch>(const std::string&, const Labels&) const;

std::vector<std::pair<std::string, const MetricsRegistry::Family::value_type*>>
MetricsRegistry::Sorted(const Family& fam) {
  std::vector<std::pair<std::string, const Family::value_type*>> out;
  out.reserve(fam.size());
  for (const auto& entry : fam) out.emplace_back(entry.first.Key(), &entry);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

double MetricsRegistry::CounterFamilyTotal(const std::string& name) const {
  double sum = 0.0;
  const auto fit = families_.find(name);
  if (fit == families_.end()) return sum;
  for (const auto& [key, entry] : Sorted(fit->second)) {
    if (const auto* c = std::get_if<Counter>(&entry->second)) sum += c->total();
  }
  return sum;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other, int replica) {
  for (const auto& [name, fam] : other.families_) {
    for (const auto& [labels, inst] : fam) {
      const Labels relabeled{labels.class_id, replica};
      std::visit([&](const auto& m) { *Get<std::decay_t<decltype(m)>>(name, relabeled) = m; },
                 inst);
    }
  }
}

std::vector<std::pair<std::string, Labels>> MetricsRegistry::InstanceNames() const {
  std::vector<std::pair<std::string, Labels>> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [key, entry] : Sorted(fam)) out.emplace_back(name, entry->first);
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

std::string LabelsJson(const Labels& labels) {
  std::string out = "{";
  for (const auto& [k, v] : Pairs(labels)) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += k;
    out += "\":\"";
    out += v;
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
    for (const auto& [key, entry] : Sorted(fam)) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"" + util::JsonEscape(name) + "\",\"labels\":" + LabelsJson(entry->first);
      std::visit([&](const auto& m) { AppendJson(out, m, now_s); }, entry->second);
      out += '}';
    }
  }
  out += "]}";
  return out;
}

}  // namespace flashinfer::obs

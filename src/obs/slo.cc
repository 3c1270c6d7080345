#include "obs/slo.h"

#include "util/check.h"

namespace flashinfer::obs {

const char* SloSignalStr(SloSignal s) {
  switch (s) {
    case SloSignal::kTtft: return "ttft";
    case SloSignal::kItl: return "itl";
  }
  return "?";
}

SloMonitor::SloMonitor(std::vector<SloSpec> specs, TraceRecorder* trace)
    : specs_(std::move(specs)), trace_(trace) {
  states_.reserve(specs_.size());
  for (const SloSpec& s : specs_) {
    FI_CHECK_GT(s.threshold_ms, 0.0);
    FI_CHECK(s.objective > 0.0 && s.objective < 1.0);
    FI_CHECK_GT(s.fast_window_s, 0.0);
    FI_CHECK_GE(s.slow_window_s, s.fast_window_s);
    states_.push_back(SpecState{WindowedSum(s.fast_window_s, kBurnSlots),
                                WindowedSum(s.slow_window_s, kBurnSlots)});
  }
}

void SloMonitor::Observe(SloSignal signal, int tenant, int priority, double value_ms,
                         double t_s) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    if (spec.signal != signal || !spec.Matches(tenant, priority)) continue;
    SpecState& st = states_[i];
    const bool good = value_ms <= spec.threshold_ms;
    (good ? st.good : st.bad) += 1;
    st.fast.Add(t_s, good ? 0.0 : 1.0);
    st.slow.Add(t_s, good ? 0.0 : 1.0);
  }
}

double SloMonitor::Burn(const WindowedSum& window, double t_s, double objective) {
  const double total = static_cast<double>(window.Count(t_s));
  if (total <= 0.0) return 0.0;
  return (window.Sum(t_s) / total) / (1.0 - objective);
}

void SloMonitor::Evaluate(double t_s) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SpecState& st = states_[i];
    const double fast = Burn(st.fast, t_s, spec.objective);
    const double slow = Burn(st.slow, t_s, spec.objective);
    const bool should_fire = fast >= spec.fast_burn && slow >= spec.slow_burn;
    if (should_fire == st.firing) continue;
    st.firing = should_fire;
    if (should_fire) ++st.alerts;
    if (trace_ != nullptr) {
      TraceEvent e;
      e.ts_us = t_s * 1e6;
      e.name = should_fire ? TraceName::kSloAlert : TraceName::kSloRecover;
      e.a = static_cast<int64_t>(i);
      e.v = fast;
      trace_->Record(e);
    }
  }
}

std::vector<SloMonitor::SpecStatus> SloMonitor::Status(double now_s) const {
  std::vector<SpecStatus> out;
  out.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SpecState& st = states_[i];
    SpecStatus s;
    s.spec = &specs_[i];
    s.good = st.good;
    s.bad = st.bad;
    s.attainment = st.good + st.bad > 0
                       ? static_cast<double>(st.good) / static_cast<double>(st.good + st.bad)
                       : 1.0;
    s.fast_burn = Burn(st.fast, now_s, specs_[i].objective);
    s.slow_burn = Burn(st.slow, now_s, specs_[i].objective);
    s.firing = st.firing;
    s.alerts = st.alerts;
    out.push_back(s);
  }
  return out;
}

}  // namespace flashinfer::obs

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

namespace {
// Window slot count for burn tracking: finer than the registry default so a
// short fast window still distinguishes "just went bad" from "was bad 4 s
// ago" without the cost mattering (two sums per window per spec).
constexpr int kBurnSlots = 5;
}  // namespace

SloMonitor::SloMonitor(std::vector<SloSpec> specs, TraceRecorder* trace)
    : specs_(std::move(specs)), trace_(trace) {
  states_.reserve(specs_.size());
  for (const SloSpec& s : specs_) {
    FI_CHECK_GT(s.threshold_ms, 0.0);
    FI_CHECK(s.objective > 0.0 && s.objective < 1.0);
    FI_CHECK_GT(s.fast_window_s, 0.0);
    FI_CHECK_GE(s.slow_window_s, s.fast_window_s);
    states_.push_back(SpecState{WindowedSum(s.fast_window_s, kBurnSlots),
                                WindowedSum(s.fast_window_s, kBurnSlots),
                                WindowedSum(s.slow_window_s, kBurnSlots),
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
    (good ? st.fast_good : st.fast_bad).Add(t_s, 1.0);
    (good ? st.slow_good : st.slow_bad).Add(t_s, 1.0);
  }
}

double SloMonitor::Burn(double bad, double good, double objective) {
  const double total = good + bad;
  if (total <= 0.0) return 0.0;
  return (bad / total) / (1.0 - objective);
}

void SloMonitor::Evaluate(double t_s) {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    SpecState& st = states_[i];
    const double fast = Burn(st.fast_bad.Sum(t_s), st.fast_good.Sum(t_s), spec.objective);
    const double slow = Burn(st.slow_bad.Sum(t_s), st.slow_good.Sum(t_s), spec.objective);
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
    s.fast_burn = Burn(st.fast_bad.Sum(now_s), st.fast_good.Sum(now_s), specs_[i].objective);
    s.slow_burn = Burn(st.slow_bad.Sum(now_s), st.slow_good.Sum(now_s), specs_[i].objective);
    s.firing = st.firing;
    s.alerts = st.alerts;
    out.push_back(s);
  }
  return out;
}

}  // namespace flashinfer::obs

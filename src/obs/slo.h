// Declarative latency SLOs evaluated as rolling error-budget burn rates.
//
// An SloSpec names a latency signal (TTFT or ITL), a per-sample threshold,
// an objective (the fraction of samples that must land under the threshold),
// and an optional (tenant, priority) class filter. The monitor classifies
// every observed sample as good/bad and tracks the bad fraction over two
// sliding windows of simulated time (multi-window burn-rate alerting): an
// alert fires only when BOTH the fast window (reacts quickly, noisy alone)
// and the slow window (confirms the burn is sustained) exceed their burn
// thresholds, where burn = (bad fraction) / (1 - objective) — burn 1.0 means
// the error budget is being spent exactly at the rate that exhausts it over
// the objective period; burn 10 means 10x too fast.
//
// Alerts are edge-triggered instants (kSloAlert / kSloRecover) emitted into
// the engine's TraceRecorder, so a violation lands on the Perfetto timeline
// next to the steps, evictions, and stalls that caused it.
//
// Each spec keeps one WindowedSum per window: a sample adds 1 when bad and
// 0 when good, so a window's Sum counts its bad samples and its Count all of
// them, and burn = (Sum / Count) / (1 - objective) from those exact integers.
//
// TelemetryConfig is the engine-facing knob bundle: the registry window
// geometry and the SLO spec list. It lives here (not in metrics.h) because
// it is the one struct EngineConfig embeds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace flashinfer::obs {

/// Which per-sample latency signal an SLO constrains.
enum class SloSignal : uint8_t { kTtft, kItl };

const char* SloSignalStr(SloSignal s);

/// One declarative SLO: "p(signal <= threshold_ms) >= objective" for the
/// matching (tenant, priority) class, alerting on multi-window burn rate.
struct SloSpec {
  std::string name;           // Display name ("chat_ttft_p99" ...).
  SloSignal signal = SloSignal::kTtft;
  double threshold_ms = 0.0;  // A sample is "good" iff value <= threshold.
  double objective = 0.99;    // Required good fraction, in (0, 1).

  /// Class filter: the spec observes only samples whose tenant/priority
  /// match. kAnyClass matches everything (note: tenant -1 — unassigned —
  /// is matched only by the wildcard).
  static constexpr int kAnyClass = -2;
  int tenant = kAnyClass;
  int priority = kAnyClass;

  /// Multi-window burn-rate alerting: fire when the bad-fraction burn over
  /// BOTH windows exceeds its threshold; recover when either drops below.
  double fast_window_s = 5.0;
  double slow_window_s = 30.0;
  double fast_burn = 10.0;
  double slow_burn = 5.0;

  bool Matches(int sample_tenant, int sample_priority) const noexcept {
    return (tenant == kAnyClass || tenant == sample_tenant) &&
           (priority == kAnyClass || priority == sample_priority);
  }
};

/// Evaluates a set of SloSpecs against the observed sample stream.
/// Observe() classifies (O(specs) per sample); Evaluate() advances the
/// alert state machine and emits trace instants; Status() snapshots
/// attainment + burn per spec for reporting.
class SloMonitor {
 public:
  /// `trace` may be null (no alert instants; state machine still runs).
  SloMonitor(std::vector<SloSpec> specs, TraceRecorder* trace);

  void Observe(SloSignal signal, int tenant, int priority, double value_ms, double t_s);

  /// Advances alerting at simulated time `t_s` (call once per engine step).
  void Evaluate(double t_s);

  struct SpecStatus {
    const SloSpec* spec = nullptr;
    int64_t good = 0;           // Cumulative good samples.
    int64_t bad = 0;            // Cumulative bad samples.
    double attainment = 1.0;    // good / (good + bad); 1.0 when no samples.
    double fast_burn = 0.0;     // Current fast-window burn rate.
    double slow_burn = 0.0;     // Current slow-window burn rate.
    bool firing = false;        // Alert currently active.
    int64_t alerts = 0;         // Edge-triggered alert count so far.
  };
  std::vector<SpecStatus> Status(double now_s) const;

  const std::vector<SloSpec>& specs() const noexcept { return specs_; }

  /// Ring slots of every burn window: finer than the registry default so a
  /// short fast window still tells "just went bad" from "was bad 4 s ago".
  static constexpr int kBurnSlots = 5;

 private:
  struct SpecState {
    WindowedSum fast, slow;  // Sum: the window's bad samples; Count: all.
    int64_t good = 0, bad = 0;
    bool firing = false;
    int64_t alerts = 0;
  };
  /// `window`'s burn at `t_s`: its bad fraction over 1 - objective, 0 when
  /// the window holds no sample.
  static double Burn(const WindowedSum& window, double t_s, double objective);

  std::vector<SloSpec> specs_;
  std::vector<SpecState> states_;
  TraceRecorder* trace_ = nullptr;
};

/// Telemetry knob carried by EngineConfig. Off by default: a disabled plane
/// allocates nothing and changes no engine behavior (pinned by a test that
/// compares run metrics bit-for-bit against a telemetry-enabled run).
struct TelemetryConfig {
  bool enabled = false;
  /// Sliding-window geometry for every registry instance (simulated time).
  WindowConfig window;
  /// Declarative SLOs evaluated each step (empty = no SLO monitoring).
  std::vector<SloSpec> slos;
};

}  // namespace flashinfer::obs

// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation: it builds the same workload, runs it through the engine (real
// scheduler + kernel cost model on the simulated device), and prints the
// measured rows next to the paper's published values so the shape comparison
// is immediate. Absolute numbers are not expected to match (simulated device
// vs. the authors' testbed); orderings, ratios, and crossovers are.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "util/json.h"
#include "util/table.h"

namespace flashinfer::bench {

/// Real (host) wall-clock stopwatch. Simulated time is derived from the cost
/// model and is byte-reproducible; wall time measures how fast the simulator
/// itself runs. Every bench JSON carries a `wall_ms` so the perf trajectory
/// of the *harness* is scraped alongside the simulated metrics.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Returns the value following `flag` in argv, or nullptr when absent
/// (e.g. ArgValue(argc, argv, "--json") -> the output path).
inline const char* ArgValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Minimal machine-readable results sink: a flat ordered JSON object of
/// numeric (and string) fields, written when a path was given. Every bench
/// that gates acceptance emits one so the perf trajectory across PRs can be
/// scraped into BENCH_*.json without parsing ASCII tables.
class JsonResult {
 public:
  void Add(const std::string& key, double value) {
    fields_.emplace_back(key, util::JsonNum(value));
    numbers_.emplace_back(key, value);
  }
  void Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += util::JsonEscape(value);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
  }

  /// Numeric lookup for the baseline checker. Returns false when `key` was
  /// never Add()ed as a number.
  bool Lookup(const std::string& key, double* out) const {
    for (const auto& [k, v] : numbers_) {
      if (k == key) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  /// Writes `{ "k": v, ... }`; returns false (with a message) on I/O error.
  /// No-op returning true when `path` is null.
  bool WriteTo(const char* path) const {
    if (path == nullptr) return true;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write JSON results to %s\n", path);
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < fields_.size(); ++i) {
      std::fprintf(f, "  \"%s\": %s%s\n", util::JsonEscape(fields_[i].first).c_str(),
                   fields_[i].second.c_str(), i + 1 < fields_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("JSON results written to %s\n", path);
    return true;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::pair<std::string, double>> numbers_;
};

/// Compares a bench's measured JsonResult against a committed baseline file —
/// the CI perf-regression gate. The baseline is a JSON object mapping metric
/// keys to `{"value": v, "rel_tol": r, "dir": "higher"|"lower"|"both"}`:
///
///   * dir "higher": the metric is good-when-high (throughput, speedup) —
///     FAIL when measured < value * (1 - rel_tol).
///   * dir "lower": good-when-low (latency, wedges) — FAIL when
///     measured > value * (1 + rel_tol).
///   * dir "both" (default): FAIL when |measured - value| > rel_tol * max(
///     |value|, 1e-12) — for determinism pins like gate booleans.
///
/// A baseline key missing from the measured result FAILS (a renamed or
/// dropped gate metric must be a conscious baseline update). Prints one
/// PASS/FAIL row per key and returns overall pass. Deterministic seeded
/// benches on a simulated device make tight tolerances safe: there is no
/// machine noise to absorb, only real behavior changes.
///
/// Wall-clock keys (any key containing "wall") are host-dependent noise:
/// pinning one turns CI into a machine-speed lottery, and a slow runner
/// "passes" a real regression while a fast one fails a clean build. A
/// baseline that names such a key therefore FAILS LOUDLY.
inline bool CheckBaseline(const char* baseline_path, const JsonResult& result) {
  std::FILE* f = std::fopen(baseline_path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "baseline check: cannot open %s\n", baseline_path);
    return false;
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  util::JsonValue doc;
  std::string err;
  if (!util::JsonParse(text, &doc, &err) || !doc.IsObject()) {
    std::fprintf(stderr, "baseline check: %s: %s\n", baseline_path, err.c_str());
    return false;
  }

  std::printf("\nbaseline check vs %s:\n", baseline_path);
  bool ok = true;
  for (const auto& [key, spec] : doc.obj) {
    if (!spec.IsObject()) continue;  // Allow top-level comment strings.
    if (key.find("wall") != std::string::npos) {
      std::printf("  %-34s FAIL baseline pins a wall-clock key — host-"
                  "dependent, not a regression gate; remove it from the "
                  "baseline\n", key.c_str());
      ok = false;
      continue;
    }
    const double value = spec.NumberOr("value", 0.0);
    const double tol = spec.NumberOr("rel_tol", 0.05);
    const std::string dir = spec.StringOr("dir", "both");
    double measured = 0.0;
    bool pass;
    std::string detail;
    if (!result.Lookup(key, &measured)) {
      pass = false;
      detail = "metric missing from results";
    } else if (dir == "higher") {
      pass = measured >= value * (1.0 - tol);
      detail = "must be >= " + util::JsonNum(value * (1.0 - tol));
    } else if (dir == "lower") {
      pass = measured <= value * (1.0 + tol);
      detail = "must be <= " + util::JsonNum(value * (1.0 + tol));
    } else {
      const double scale = std::abs(value) > 1e-12 ? std::abs(value) : 1e-12;
      pass = std::abs(measured - value) <= tol * scale;
      detail = "must be within " + util::JsonNum(100.0 * tol) + "% of " +
               util::JsonNum(value);
    }
    std::printf("  %-34s %-4s measured=%-12.6g baseline=%-12.6g (%s)\n", key.c_str(),
                pass ? "ok" : "FAIL", measured, value, detail.c_str());
    ok = ok && pass;
  }
  std::printf("baseline check: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

inline void Banner(const char* id, const char* title) {
  std::printf("\n=============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("=============================================================\n");
}

inline void Note(const char* text) { std::printf("%s\n", text); }

/// "measured (paper X)" cell.
inline std::string WithPaper(double measured, double paper, int digits = 1) {
  return AsciiTable::Num(measured, digits) + " (" + AsciiTable::Num(paper, digits) + ")";
}

inline std::string Pct(double frac, int digits = 0) {
  return AsciiTable::Num(100.0 * frac, digits);
}

inline std::string PctWithPaper(double frac, double paper_pct, int digits = 0) {
  return Pct(frac, digits) + " (" + AsciiTable::Num(paper_pct, digits) + ")";
}

}  // namespace flashinfer::bench

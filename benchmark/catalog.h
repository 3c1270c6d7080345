// fi_bench metric catalogue: every metric the benchmark reports, with its
// unit, direction, regression bound (end-to-end metrics only) and, for the
// per-layer metrics, the layer it measures and the end-to-end metric it
// should move. `--list` prints this table; BENCHMARK.json at the repository
// root must agree with it (benchmark/run.py checks that on every run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fi_bench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher".
  /// Share of the parent's median by which the metric may worsen before a
  /// change counts as a regression; < 0 for per-layer metrics (no bound).
  double bound;
  /// Source layer (src/ module names) and what it should move, where.
  const char* layer;
  const char* moves;
  const char* definition;

  bool EndToEnd() const { return bound >= 0.0; }
};

/// Prints every workload and metric: unit, direction, bound, and the
/// layer -> end-to-end mapping.
void PrintCatalog();

/// The measured values of one invocation plus its request and check counts;
/// written as the JSON document benchmark/run.py reads.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  /// "end_to_end" or "per_layer".
  std::string mode;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t checks = 0;
  int64_t checks_failed = 0;
  std::vector<std::pair<const MetricSpec*, double>> values;

  /// Records `value` for a catalogued metric (unknown names abort).
  void Set(const std::string& name, double value);
  void Print() const;
  /// Returns false (with a message) when the file cannot be written.
  bool WriteJson(const std::string& path) const;
};

}  // namespace fi_bench

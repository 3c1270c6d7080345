// In-process telemetry and trace overhead on fi_bench's kv_pressure
// workload.
//
// fi_bench reports obs.telemetry_overhead_frac and obs.trace_overhead_frac
// from one traced run each, and wall times that far apart in one process
// drift by more than the overheads themselves (ROADMAP item 1). This harness
// runs kv_pressure's windows (benchmark/workloads.cc: the same requests,
// engine and telemetry settings) in one process under three settings that
// already exist, interleaved:
//
//   base       the workload as configured: telemetry on, trace off
//   quiet      telemetry off
//   traced     telemetry on, trace on (the engine's default 64Ki-event ring)
//
// One round runs every window once under each setting, rotating which
// setting goes first from window to window and round to round. A round's
// telemetry overhead is base / quiet - 1 and its trace overhead traced /
// base - 1, each over the round's summed Run() walls (the definitions of
// fi_bench's two per-layer metrics). Every run must produce the base run's
// simulated metrics bit for bit (fi_bench's fingerprint) and pass
// fi_bench's per-run checks, else the harness prints CHECK FAILED and exits
// 1. Prints each overhead's median, quartiles and IQR over the rounds.
//
// Usage: bench_obs_overhead [--quick]
//   default: 15 rounds of windows 0-3 of seed 2, after one untimed warm-up
//   round; --quick: 3 rounds of windows 0-1 (CI).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim.h"
#include "workloads.h"

namespace {

using fi_bench::Checks;
using fi_bench::Workload;
using flashinfer::serving::Request;

/// Value at quantile q of `v`, interpolating linearly between order statistics.
double QuantileOf(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

void PrintRow(const char* name, const std::vector<double>& overhead) {
  const double q1 = QuantileOf(overhead, 0.25), q3 = QuantileOf(overhead, 0.75);
  std::printf("%-10s %+9.1f%% %+9.1f%% %+9.1f%% %8.1f %+9.1f%% %+9.1f%%\n", name,
              100.0 * QuantileOf(overhead, 0.5), 100.0 * q1, 100.0 * q3, 100.0 * (q3 - q1),
              100.0 * *std::min_element(overhead.begin(), overhead.end()),
              100.0 * *std::max_element(overhead.begin(), overhead.end()));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) quick = quick || std::strcmp(argv[i], "--quick") == 0;
  const int rounds = quick ? 3 : 15;
  const int windows = quick ? 2 : 4;
  constexpr uint64_t kSeed = 2;

  const Workload& w = *fi_bench::FindWorkload("kv_pressure");
  enum { kBase, kQuiet, kTraced };
  fi_bench::ClusterConfig settings[3] = {w.cluster, w.cluster, w.cluster};
  settings[kQuiet].engine.telemetry.enabled = false;
  settings[kTraced].engine.trace.enabled = true;

  std::vector<std::vector<Request>> reqs;
  for (int win = 0; win < windows; ++win) {
    reqs.push_back(fi_bench::MakeRequests(w, kSeed, win, w.requests));
  }
  Checks checks;
  std::vector<std::string> expect;
  for (const auto& r : reqs) {
    expect.push_back(fi_bench::Fingerprint(fi_bench::Simulate(w, r, checks).metrics));
  }

  std::vector<double> telemetry, trace;
  for (int round = 0; round <= rounds; ++round) {  // Round 0 warms up, untimed.
    double wall[3] = {0.0, 0.0, 0.0};
    for (int win = 0; win < windows; ++win) {
      for (int k = 0; k < 3; ++k) {
        const int s = (round + win + k) % 3;
        const fi_bench::SimRun run =
            fi_bench::Simulate(w, settings[s], reqs[static_cast<size_t>(win)], checks);
        checks.Expect(fi_bench::Fingerprint(run.metrics) == expect[static_cast<size_t>(win)],
                      "kv_pressure window " + std::to_string(win) + ": setting " +
                          std::to_string(s) + " changed the simulated metrics");
        wall[s] += run.wall_s;
      }
    }
    if (round == 0) continue;
    telemetry.push_back(wall[kBase] / wall[kQuiet] - 1.0);
    trace.push_back(wall[kTraced] / wall[kBase] - 1.0);
    std::printf("round %2d: quiet %.4f s, base %.4f s, traced %.4f s\n", round, wall[kQuiet],
                wall[kBase], wall[kTraced]);
  }
  std::printf("\nkv_pressure seed %llu, windows 0-%d, %d rounds (%lld checks, %lld failed)\n",
              static_cast<unsigned long long>(kSeed), windows - 1, rounds,
              static_cast<long long>(checks.total()), static_cast<long long>(checks.failed()));
  std::printf("%-10s %10s %10s %10s %8s %10s %10s\n", "overhead", "median", "q1", "q3", "iqr pt",
              "min", "max");
  PrintRow("telemetry", telemetry);
  PrintRow("trace", trace);
  return checks.failed() == 0 ? 0 : 1;
}

// fi_bench: the serving benchmark of the FlashInfer simulator.
//
// One binary, four open-loop workloads (see workloads.h). Without --trace it
// measures the end-to-end metrics users read — simulated TTFT/ITL
// percentiles, throughput and SLO capacity — plus the host wall time, set-up
// time and memory of the simulator producing them. With --trace it measures
// per-layer host time from outside the program and validates every replay
// against the program's own counters (traced_run.cc). Every run checks the
// simulated outputs; a failed check prints `CHECK FAILED: <what>` and the
// exit code is 1.
//
// Usage:
//   fi_bench --workload <name> --seed <n> [--seconds <s>] [--json <path>]
//            [--trace <dir>]
//   fi_bench --quick [--seed <n>] [--trace <dir>]
//   fi_bench --list
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog.h"
#include "sim.h"
#include "traced_run.h"
#include "workloads.h"

using namespace fi_bench;
using flashinfer::serving::Median;
using flashinfer::serving::ServingEngine;

namespace {

/// SLO of the paper's Fig. 7 regime; a rejected request misses it.
constexpr double kSloTtftP99Ms = 200.0;
constexpr double kSloItlP99Ms = 100.0;
/// Rate multipliers searched for slo_rate_rps, and the probe budget.
constexpr double kSloLo = 0.25;
constexpr double kSloHi = 2.0;
constexpr int kSloProbes = 5;
/// Each SLO probe pools whole traffic windows until it serves at least this
/// many requests: a p99 over a few hundred requests moves the knee by more
/// than the bisection resolution from seed to seed.
constexpr int kSloMinRequests = 1200;
/// Independent traffic windows per end-to-end invocation. Latency
/// percentiles pool all of them, which narrows their seed-to-seed spread
/// without re-simulating identical work.
constexpr int kWindows = 4;
/// Timed nominal runs: one per traffic window, more while --seconds allows.
constexpr int kMaxTimed = 15;
/// Set-ups timed before every simulation. Host speed drifts over seconds,
/// so samples spread over the whole invocation give a steadier median than
/// one burst of repetitions.
constexpr int kSetupsPerSample = 7;
/// Host times are reported at the speed of a host that runs the reference
/// workload below in this many seconds (a 4-vCPU x86 VM, Intel Xeon
/// 2.1 GHz). On shared VMs identical work takes 10-40% longer from one
/// minute to the next, and the simulator and the reference slow down
/// together, so the scaled times compare across runs where raw ones do not.
constexpr double kReferenceS = 0.02;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool seed_given = false;
  double seconds = 0.0;
  std::string json;
  std::string trace_dir;  // Non-empty: the traced run.
  bool list = false;
  bool quick = false;
};

constexpr const char* kUsage =
    "usage: fi_bench --workload <name> --seed <n> [--seconds <s>] [--json <path>]"
    " [--trace <dir>]\n"
    "       fi_bench --quick [--seed <n>] [--trace <dir>]\n"
    "       fi_bench --list\n";

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "fi_bench: %s\n%s", error.c_str(), kUsage);
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseSeconds(const char* s, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v >= 0.0) || v > 3600.0) return false;
  *out = v;
  return true;
}

/// Every flag is known; anything else is an error (exit 2), never ignored.
Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      if (!ParseU64(value(), &o.seed)) Usage("--seed takes a non-negative integer");
      o.seed_given = true;
    } else if (flag == "--seconds") {
      if (!ParseSeconds(value(), &o.seconds)) Usage("--seconds takes a number in [0, 3600]");
    } else if (flag == "--json") {
      o.json = value();
    } else if (flag == "--trace") {
      o.trace_dir = value();
      if (o.trace_dir.empty()) Usage("--trace takes a directory");
    } else if (flag == "--list") {
      o.list = true;
    } else if (flag == "--quick") {
      o.quick = true;
    } else if (flag == "--help" || flag == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.list || o.quick) {
    if (!o.workload.empty()) Usage("--list and --quick run every workload");
    return o;
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (FindWorkload(o.workload) == nullptr) Usage("unknown workload " + o.workload);
  if (!o.seed_given) Usage("--seed is required");
  return o;
}

/// Host time of a fixed workload that is part of the benchmark, not of the
/// simulator: sorting, a node-based map and vector growth, the simulator's
/// own mix of work.
double ReferenceSeconds() {
  flashinfer::Rng rng(7);
  const double t0 = NowS();
  double sink = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<double> v(1 << 16);
    for (double& x : v) x = rng.NextDouble();
    std::sort(v.begin(), v.end());
    std::map<uint64_t, double> m;
    for (int i = 0; i < 20000; ++i) m[rng.NextU64() % 100000] += v[static_cast<size_t>(i)];
    for (const auto& [k, x] : m) sink += x;
  }
  const double t = NowS() - t0;
  // Keeps the work observable so it cannot be optimized away.
  if (sink < 0.0) std::printf("%g\n", sink);
  return t;
}

/// Scales host times to kReferenceS. Each call closes an interval that
/// began at the previous call (or at construction), and the interval's times
/// are scaled by the mean of the two reference runs that bracket it.
class ScaledTimer {
 public:
  ScaledTimer() : last_ref_(ReferenceSeconds()) {}

  void Scale(const std::vector<double>& raw, std::vector<double>& scaled) {
    const double ref = ReferenceSeconds();
    const double mean = 0.5 * (last_ref_ + ref);
    last_ref_ = ref;
    for (double t : raw) scaled.push_back(t * kReferenceS / mean);
  }

 private:
  double last_ref_;
};

bool MeetsSlo(const ServingMetrics& m) {
  return m.rejected_requests == 0 && m.P99TtftMs() <= kSloTtftP99Ms &&
         m.P99ItlMs() <= kSloItlP99Ms;
}

/// Appends the host time of `reps` set-ups to `samples`. One set-up
/// generates window 0's requests, builds the workload's engine(s) and, on
/// single engines, admits every request: work moved out of Run() into
/// construction or admission shows here.
void TimeSetups(const Workload& w, uint64_t seed, int requests, int reps,
                std::vector<double>& samples) {
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowS();
    const auto reqs = MakeRequests(w, seed, 0, requests);
    if (w.IsCluster()) {
      // ClusterEngine builds its replica engines at the start of Run().
      auto cluster = std::make_unique<flashinfer::cluster::ClusterEngine>(w.cluster);
      std::vector<std::unique_ptr<ServingEngine>> replicas;
      for (int r = 0; r < w.cluster.num_replicas; ++r) {
        replicas.push_back(std::make_unique<ServingEngine>(w.Engine()));
      }
      samples.push_back(NowS() - t0);
    } else {
      auto engine = std::make_unique<ServingEngine>(w.Engine());
      for (const Request& r : reqs) engine->Admit(r);
      samples.push_back(NowS() - t0);
    }
  }
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Latency samples and totals of several windows, as one run.
ServingMetrics Pool(const std::vector<ServingMetrics>& runs) {
  ServingMetrics pooled;
  size_t ttft = 0, itl = 0;
  for (const ServingMetrics& m : runs) {
    ttft += m.ttft_ms.size();
    itl += m.itl_ms.size();
  }
  // Exact sizes: peak RSS must not depend on where a seed's sample count
  // falls between two growth steps.
  pooled.ttft_ms.reserve(ttft);
  pooled.itl_ms.reserve(itl);
  for (const ServingMetrics& m : runs) {
    pooled.ttft_ms.insert(pooled.ttft_ms.end(), m.ttft_ms.begin(), m.ttft_ms.end());
    pooled.itl_ms.insert(pooled.itl_ms.end(), m.itl_ms.begin(), m.itl_ms.end());
    pooled.total_output_tokens += m.total_output_tokens;
    pooled.makespan_s += m.makespan_s;
    pooled.rejected_requests += m.rejected_requests;
  }
  return pooled;
}

/// Highest probed rate multiplier meeting the SLO, 0 when none does:
/// bisects over [kSloLo, kSloHi] with the nominal runs as the first probe.
/// A probe serves the first `windows` windows at the probed rate, pooled;
/// only arrival times are rescaled, so every probe serves identical work.
double SloMultiplier(const Workload& w, const std::vector<std::vector<Request>>& windows,
                     const ServingMetrics& nominal, const std::function<void()>& before_probe,
                     Checks& checks) {
  auto probe = [&w](double x, const ServingMetrics& m) {
    const bool pass = MeetsSlo(m);
    std::printf("%s: SLO probe x%.4f p99 TTFT %.2f ms, p99 ITL %.2f ms -> %s\n",
                w.name.c_str(), x, m.P99TtftMs(), m.P99ItlMs(), pass ? "pass" : "miss");
    return pass;
  };
  double best = probe(1.0, nominal) ? 1.0 : 0.0;
  double lo = best > 0.0 ? 1.0 : kSloLo;
  double hi = best > 0.0 ? kSloHi : 1.0;
  for (int i = 1; i < kSloProbes; ++i) {
    const double mid = 0.5 * (lo + hi);
    before_probe();
    std::vector<ServingMetrics> runs;
    for (const auto& reqs : windows) {
      runs.push_back(Simulate(w, ScaleRate(reqs, mid), checks).metrics);
    }
    if (probe(mid, Pool(runs))) {
      best = std::max(best, mid);
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

void RunEndToEnd(const Workload& w, uint64_t seed, int requests, double seconds,
                 Report& report, Checks& checks) {
  ScaledTimer timer;
  std::vector<double> setups;
  auto time_setups = [&] {
    std::vector<double> raw;
    TimeSetups(w, seed, requests, kSetupsPerSample, raw);
    timer.Scale(raw, setups);
  };
  time_setups();
  std::vector<std::vector<Request>> windows;
  for (int k = 0; k < kWindows; ++k) windows.push_back(MakeRequests(w, seed, k, requests));

  // An untimed warm-up on the head of window 0, then timed runs cycling
  // through the windows. Every repeat of a window must match its first run
  // bit for bit.
  const std::vector<Request> head(windows[0].begin(),
                                  windows[0].begin() + std::max(1, requests / 10));
  Simulate(w, head, checks);
  std::vector<std::string> prints(kWindows);
  std::vector<ServingMetrics> runs;
  std::vector<std::vector<double>> walls(kWindows);
  const double timed_start = NowS();
  for (int i = 0; i < kWindows || (NowS() - timed_start < seconds && i < kMaxTimed); ++i) {
    const size_t k = static_cast<size_t>(i % kWindows);
    time_setups();
    SimRun r = Simulate(w, windows[k], checks);
    timer.Scale({r.wall_s}, walls[k]);
    const std::string print = Fingerprint(w, r);
    if (prints[k].empty()) {
      prints[k] = print;
      runs.push_back(std::move(r.metrics));
    } else {
      checks.Expect(print == prints[k], w.name + ": simulated metrics differ between repeats "
                                                 "of window " + std::to_string(k));
    }
  }
  const ServingMetrics pooled = Pool(runs);
  // Summed over the windows, so that seed-to-seed differences in work
  // average out like the pooled latency samples do.
  double sim_wall_s = 0.0;
  for (const auto& v : walls) sim_wall_s += Median(v);

  // Counted at the workload's full size, so --quick pools as many windows.
  const size_t slo_windows = std::min<size_t>(
      kWindows, static_cast<size_t>((kSloMinRequests + w.requests - 1) / w.requests));
  windows.resize(slo_windows);
  runs.resize(slo_windows);
  const double slo = SloMultiplier(w, windows, Pool(runs), time_setups, checks);

  std::printf("%s: %zu TTFT samples, %lld ITL samples (%lld beyond p99.9) over %d windows\n",
              w.name.c_str(), pooled.ttft_ms.size(), static_cast<long long>(pooled.ItlCount()),
              static_cast<long long>(pooled.ItlCount() / 1000), kWindows);
  report.mode = "end_to_end";
  report.sent = static_cast<int64_t>(kWindows) * requests;
  report.ok = report.sent - pooled.rejected_requests;
  report.failed = pooled.rejected_requests;
  report.Set("ttft_p50_ms", pooled.TtftPercentileMs(0.5));
  report.Set("ttft_p99_ms", pooled.TtftPercentileMs(0.99));
  report.Set("itl_p50_ms", pooled.ItlPercentileMs(0.5));
  report.Set("itl_p999_ms", pooled.ItlPercentileMs(0.999));
  report.Set("tok_s", pooled.ThroughputTokS());
  report.Set("slo_rate_rps", slo * w.rate_rps);
  report.Set("sim_wall_s", sim_wall_s);
  report.Set("setup_s", Median(setups));
  report.Set("peak_rss_mb", PeakRssMb());
}

/// Runs one workload in the requested mode; returns the finished report.
Report RunWorkload(const Workload& w, uint64_t seed, int requests, double seconds,
                   bool trace, const std::string& trace_dir, Checks& checks) {
  Report report;
  report.workload = w.name;
  report.seed = seed;
  if (trace) {
    RunTraced(w, MakeRequests(w, seed, 0, requests), trace_dir, report, checks);
  } else {
    RunEndToEnd(w, seed, requests, seconds, report, checks);
  }
  report.checks = checks.total();
  report.checks_failed = checks.failed();
  return report;
}

/// Writes `<trace_dir>/<workload>.layers.json` and `json`, each when given.
bool WriteReports(const Report& report, const std::string& trace_dir, const std::string& json) {
  bool ok = true;
  if (!trace_dir.empty()) {
    ok = report.WriteJson(trace_dir + "/" + report.workload + ".layers.json") && ok;
  }
  if (!json.empty()) ok = report.WriteJson(json) && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold above any block the simulator allocates keeps
  // every block on the heap. glibc's adaptive threshold moves large blocks
  // between mmap and the heap depending on allocation history: set-up time
  // then includes fresh page faults in some processes and not in others,
  // and peak RSS depends on the order of allocations.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024 * 1024);
  const Options o = Parse(argc, argv);
  if (o.list) {
    PrintCatalog();
    return 0;
  }
  if (o.quick) {
    // Smoke path: every workload at a tenth of its size, end to end and
    // traced, with every check and validation.
    int64_t failed = 0;
    const double t0 = NowS();
    for (const Workload& w : Workloads()) {
      for (const bool trace : {false, true}) {
        Checks checks;
        const Report r = RunWorkload(w, o.seed, w.requests / 10, 0.0, trace,
                                     trace ? o.trace_dir : std::string(), checks);
        r.Print();
        if (!WriteReports(r, trace ? o.trace_dir : std::string(), std::string())) ++failed;
        failed += checks.failed();
      }
    }
    std::printf("\nquick: %s in %.1f s\n", failed == 0 ? "all checks passed" : "FAILED",
                NowS() - t0);
    return failed == 0 ? 0 : 1;
  }

  const Workload& w = *FindWorkload(o.workload);
  Checks checks;
  const Report report = RunWorkload(w, o.seed, w.requests, o.seconds, !o.trace_dir.empty(),
                                    o.trace_dir, checks);
  report.Print();
  if (!WriteReports(report, o.trace_dir, o.json)) return 1;
  return checks.failed() == 0 ? 0 : 1;
}

// Shared fi_bench plumbing: host clock, correctness checks, one simulation
// of a workload, and bit-exact metric fingerprints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "workloads.h"

namespace fi_bench {

using flashinfer::cluster::ClusterMetrics;
using flashinfer::serving::ServingMetrics;

/// Host steady-clock time, seconds.
double NowS();

/// Counts correctness checks. A failed check prints `CHECK FAILED: <what>`
/// and counts as a failed operation; the run then exits non-zero.
class Checks {
 public:
  bool Expect(bool ok, const std::string& what);
  int64_t total() const { return total_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t total_ = 0;
  int64_t failed_ = 0;
};

/// One simulation of a request list.
struct SimRun {
  /// Engine metrics, or the cluster's aggregate.
  ServingMetrics metrics;
  /// Cluster workloads only.
  ClusterMetrics cluster;
  /// Host wall time of Run(), seconds.
  double wall_s = 0.0;
};

/// Runs `reqs` through the workload's engine (or cluster) with `cfg`, and
/// applies the per-run checks: no rejections, output tokens and TTFT/ITL
/// sample counts match the requests, and a drained single engine holds no
/// device KV, host KV or structural pages.
SimRun Simulate(const Workload& w, const ClusterConfig& cfg,
                const std::vector<Request>& reqs, Checks& checks);
inline SimRun Simulate(const Workload& w, const std::vector<Request>& reqs,
                       Checks& checks) {
  return Simulate(w, w.cluster, reqs, checks);
}

/// Every field of `m` as bytes: equal fingerprints mean bit-identical metrics.
std::string Fingerprint(const ServingMetrics& m);
/// Per-replica metrics, aggregate and router outcome of a cluster run.
std::string Fingerprint(const ClusterMetrics& m);
/// The fingerprint of whichever result `w` produces.
std::string Fingerprint(const Workload& w, const SimRun& r);

}  // namespace fi_bench

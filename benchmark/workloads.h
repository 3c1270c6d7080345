// fi_bench workloads: four open-loop serving traffic mixes.
//
// Each workload is Poisson arrivals (independent users) in simulated time,
// generated from the seed alone; the simulator receives only the generated
// requests. Every workload runs Llama-3.1-8B on the simulated H100 with the
// FlashInfer backend defaults unless its config says otherwise, in one
// process on one thread (ClusterConfig::step_threads stays 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "serving/engine.h"
#include "serving/workload.h"

namespace fi_bench {

using flashinfer::cluster::ClusterConfig;
using flashinfer::serving::EngineConfig;
using flashinfer::serving::Request;

struct Workload {
  std::string name;
  /// Why the benchmark has it: which layer it stresses and which it bypasses.
  std::string why;
  /// Full-size request count and nominal arrival rate (req/s).
  int requests = 0;
  double rate_rps = 0.0;
  /// `cluster.engine` is the engine config of every workload; the cluster
  /// fields matter only when `cluster.num_replicas > 1`.
  ClusterConfig cluster;
  /// Draws `n` requests arriving at `rate` req/s.
  std::vector<Request> (*generate)(flashinfer::Rng& rng, int n, double rate) = nullptr;

  bool IsCluster() const { return cluster.num_replicas > 1; }
  const EngineConfig& Engine() const { return cluster.engine; }
};

const std::vector<Workload>& Workloads();
/// nullptr when no workload has this name.
const Workload* FindWorkload(const std::string& name);

/// Traffic window `window` of `seed`: `requests` requests at the nominal
/// rate. Windows of one seed are independent draws.
std::vector<Request> MakeRequests(const Workload& w, uint64_t seed, int window, int requests);

/// The same requests offered at `multiplier` x the nominal rate: only the
/// arrival times change, so every rate serves identical work.
std::vector<Request> ScaleRate(std::vector<Request> reqs, double multiplier);

}  // namespace fi_bench

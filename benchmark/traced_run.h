// The traced fi_bench run: per-layer host timing from outside the program's
// public API, with every replay validated against the program's own counters.
#pragma once

#include <string>
#include <vector>

#include "catalog.h"
#include "sim.h"

namespace fi_bench {

/// Measures the per-layer metrics of `w` on `reqs` into `report`. Spans are
/// kept in memory; when `dir` is non-empty they are written at the end to
/// `<dir>/<workload>.spans.json` (Chrome trace-event JSON).
void RunTraced(const Workload& w, const std::vector<Request>& reqs, const std::string& dir,
               Report& report, Checks& checks);

}  // namespace fi_bench

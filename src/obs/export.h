// Trace exporter: Chrome/Perfetto trace-event JSON.
//
// Track layout in the Perfetto export (open the file in https://ui.perfetto.dev
// or chrome://tracing):
//
//   pid = track index; each TraceTrack becomes one "process" named after the
//   track ("replica 0", "router", ...). An event's row is its name's TraceRow
//   (kTraceNames in obs/trace.h):
//     tid 0 "steps"   — step slices with their phase slices (attention/gemm/
//                       comm/draft/host) nested inside; chunk, route and SLO
//                       instants; one counter track per counter name.
//     tid 1 "kv"      — KV evict/restore/encode/decode instants.
//     tid 2 "copy"    — copy-stream spans (D2H, H2D, migration link), which
//                       overlap the steps they run under.
//     async "request" — one row per request id (legacy async b/e events):
//                       the lifecycle phases as stacked spans, with the
//                       request's instants (admit, first token, finish,
//                       reject, migrate-out).
//
// All timestamps are simulated microseconds (the engine's clock), which the
// trace viewers display as-is.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace flashinfer::obs {

/// One exported track: a name plus its events (typically one serving replica,
/// or the cluster router).
struct TraceTrack {
  std::string name;
  std::vector<TraceEvent> events;
};

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}) for the tracks.
void WritePerfettoJson(std::ostream& os, const std::vector<TraceTrack>& tracks);

/// WritePerfettoJson into the file at `path`; returns false (with a stderr
/// message) on I/O error.
bool WritePerfettoFile(const std::string& path, const std::vector<TraceTrack>& tracks);

}  // namespace flashinfer::obs

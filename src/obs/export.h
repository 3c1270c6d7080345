// Trace exporters: Chrome/Perfetto trace-event JSON and a compact JSONL dump.
//
// Track layout in the Perfetto export (open the file in https://ui.perfetto.dev
// or chrome://tracing):
//
//   pid = track index; each TraceTrack becomes one "process" named after the
//   track ("replica 0", "router", ...).
//     tid 0 "steps"   — step slices with their phase slices (attention/gemm/
//                       comm/draft/host) nested inside, plus chunk
//                       instants.
//     tid 1 "kv"      — KV evict/restore instants.
//     async "request" — one row per request id (legacy async b/e events):
//                       the queued → prefill → decode / preempted /
//                       swap-in-flight phases as stacked spans, with
//                       admit/first-token/finish/reject instants.
//     counters        — kv_device_tokens, kv_host_tokens, queue_depth,
//                       running_branches, preempted_branches, tokens_per_s
//                       (one counter track each, per process).
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

/// Writes one compact JSON object per line per event (machine-diffable dump;
/// the soak harness's failure artifact format next to the Perfetto file).
void WriteJsonl(std::ostream& os, const std::vector<TraceTrack>& tracks);

/// File wrappers; return false (with a stderr message) on I/O error.
bool WritePerfettoFile(const std::string& path, const std::vector<TraceTrack>& tracks);
bool WriteJsonlFile(const std::string& path, const std::vector<TraceTrack>& tracks);

}  // namespace flashinfer::obs

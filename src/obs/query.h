// Queryable view over one track's trace events — the assertion vocabulary
// for tests and the per-request accounting the example/benches print.
//
// The two flagship queries:
//
//  * PerRequest(): a wall-clock decomposition of every request's life —
//    queue wait, prefill, decode, preempted stall, swap-in-flight, recompute
//    rebuild — reconstructed purely from the request's phase spans. For
//    single-branch requests the phases tile arrival→finish exactly (pinned
//    by tests), so "why was this request slow" reads straight off the row.
//
//  * Unexplained*Stalls(): every stall counter increment in ServingMetrics
//    must be *attributable* to a concrete event in the same step — an ITL
//    stall to a prefill-alone batch, a preemption stall to an enclosing
//    eviction span. A non-empty result means the trace failed to explain a
//    stall, which the trace-invariant tests treat as a bug.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace flashinfer::obs {

/// Per-request wall-time decomposition (milliseconds of simulated time).
/// For parallel-n requests the decode/preempted columns sum branch segments
/// (branches overlap in time), so only TotalMs of single-branch requests
/// equals finish - arrival.
struct RequestBreakdown {
  int32_t req = -1;
  double queued_ms = 0.0;     // Arrival -> admission.
  double prefill_ms = 0.0;    // Admission -> first token.
  double decode_ms = 0.0;     // Decode segments (split by preemption).
  double preempted_ms = 0.0;  // Evicted, waiting for restore capacity.
  double swap_ms = 0.0;       // Swap-in transfer in flight.
  double recompute_ms = 0.0;  // Recompute-restore context rebuild.
  double migrate_ms = 0.0;    // Cross-replica KV migration in flight.
  double arrival_ms = 0.0;    // Queued-span begin (absolute, ms).
  double finish_ms = 0.0;     // Last finish instant (absolute, ms).
  bool rejected = false;

  double TotalMs() const {
    return queued_ms + prefill_ms + decode_ms + preempted_ms + swap_ms + recompute_ms +
           migrate_ms;
  }
};

class TraceQuery {
 public:
  explicit TraceQuery(std::vector<TraceEvent> events);

  const std::vector<TraceEvent>& events() const noexcept { return events_; }

  /// Wall decomposition per request id, sorted by id. Rejected requests get
  /// a row with `rejected = true` and zero phases.
  std::vector<RequestBreakdown> PerRequest() const;

  /// Step spans whose stalled-branch count (payload c) is not explained by a
  /// prefill-alone batch (prefill tokens with no decode). Empty == every ITL
  /// stall attributed.
  std::vector<TraceEvent> UnexplainedItlStalls() const;

  /// Step spans with preempted branches waiting (payload d) that are not
  /// covered by any request's preempted span. Empty == every preemption
  /// stall attributed to a concrete eviction.
  std::vector<TraceEvent> UnexplainedPreemptStalls() const;

  /// Migrate-in spans (decode-replica import wait) not overlapped by a
  /// same-request copy_migrate transfer span: a migration wait the trace
  /// cannot attribute to a concrete replica-pair link transfer. Empty ==
  /// every migration stall attributed.
  std::vector<TraceEvent> UnexplainedMigrationWaits() const;

  /// Sum of stalled-branch counts over step spans (== the engine's
  /// ServingMetrics::itl_stall_steps when no events were dropped).
  int64_t TotalItlStallSteps() const;
  /// Sum of preempted-waiting counts over step spans (== preempt_stall_steps).
  int64_t TotalPreemptStallSteps() const;

  /// Number of events with this name.
  int64_t CountName(TraceName n) const;

  /// Renders PerRequest() rows (at most `max_rows`) as an aligned table.
  std::string BreakdownTable(int64_t max_rows = 20) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace flashinfer::obs

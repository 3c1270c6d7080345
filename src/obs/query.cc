#include "obs/query.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace flashinfer::obs {

namespace {

/// Slop for interval-containment checks: event timestamps are derived from
/// the same double-precision clock, so only representation error applies.
constexpr double kEpsUs = 1e-6;

}  // namespace

TraceQuery::TraceQuery(std::vector<TraceEvent> events) : events_(std::move(events)) {}

std::vector<RequestBreakdown> TraceQuery::PerRequest() const {
  std::map<int32_t, RequestBreakdown> rows;
  auto row = [&rows](int32_t req) -> RequestBreakdown& {
    auto [it, inserted] = rows.try_emplace(req);
    if (inserted) it->second.req = req;
    return it->second;
  };
  for (const TraceEvent& e : events_) {
    if (e.req < 0) continue;
    const double dur_ms = e.dur_us * 1e-3;
    switch (e.name) {
      case TraceName::kReqQueued: {
        RequestBreakdown& r = row(e.req);
        r.queued_ms += dur_ms;
        r.arrival_ms = e.ts_us * 1e-3;
        break;
      }
      case TraceName::kReqPrefill: row(e.req).prefill_ms += dur_ms; break;
      case TraceName::kReqDecode: row(e.req).decode_ms += dur_ms; break;
      case TraceName::kReqPreempted: row(e.req).preempted_ms += dur_ms; break;
      case TraceName::kReqSwapIn: row(e.req).swap_ms += dur_ms; break;
      case TraceName::kReqRecompute: row(e.req).recompute_ms += dur_ms; break;
      case TraceName::kReqMigrateIn: row(e.req).migrate_ms += dur_ms; break;
      case TraceName::kReqFinish: {
        RequestBreakdown& r = row(e.req);
        r.finish_ms = std::max(r.finish_ms, e.ts_us * 1e-3);
        break;
      }
      case TraceName::kReqReject: {
        RequestBreakdown& r = row(e.req);
        r.rejected = true;
        r.arrival_ms = e.ts_us * 1e-3;
        break;
      }
      default: break;
    }
  }
  std::vector<RequestBreakdown> out;
  out.reserve(rows.size());
  for (auto& [id, r] : rows) out.push_back(r);
  return out;
}

std::vector<TraceEvent> TraceQuery::UnexplainedItlStalls() const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.name != TraceName::kStep || e.c == 0) continue;
    const bool prefill_alone = e.a > 0 && e.b == 0;
    if (!prefill_alone) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::UnexplainedPreemptStalls() const {
  std::vector<TraceEvent> preempted_spans;
  for (const TraceEvent& e : events_) {
    if (e.name == TraceName::kReqPreempted) preempted_spans.push_back(e);
  }
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.name != TraceName::kStep || e.d == 0) continue;
    bool covered = false;
    for (const TraceEvent& p : preempted_spans) {
      if (p.ts_us <= e.ts_us + kEpsUs && p.ts_us + p.dur_us >= e.ts_us + e.dur_us - kEpsUs) {
        covered = true;
        break;
      }
    }
    if (!covered) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceQuery::UnexplainedMigrationWaits() const {
  std::vector<TraceEvent> copies;
  for (const TraceEvent& e : events_) {
    if (e.name == TraceName::kCopyMigrate) copies.push_back(e);
  }
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.name != TraceName::kReqMigrateIn) continue;
    bool covered = false;
    for (const TraceEvent& c : copies) {
      // The import wait ends when the link transfer lands; any overlap (or a
      // transfer that completed at/before the wait began — the link was free
      // and the wait collapsed to a step boundary) attributes it.
      if (c.req == e.req && c.ts_us <= e.ts_us + e.dur_us + kEpsUs) {
        covered = true;
        break;
      }
    }
    if (!covered) out.push_back(e);
  }
  return out;
}

int64_t TraceQuery::TotalItlStallSteps() const {
  int64_t total = 0;
  for (const TraceEvent& e : events_) {
    if (e.name == TraceName::kStep) total += e.c;
  }
  return total;
}

int64_t TraceQuery::TotalPreemptStallSteps() const {
  int64_t total = 0;
  for (const TraceEvent& e : events_) {
    if (e.name == TraceName::kStep) total += e.d;
  }
  return total;
}

int64_t TraceQuery::CountName(TraceName n) const {
  int64_t total = 0;
  for (const TraceEvent& e : events_) {
    if (e.name == n) ++total;
  }
  return total;
}

std::string TraceQuery::BreakdownTable(int64_t max_rows) const {
  const auto rows = PerRequest();
  std::string out =
      "  req    queue    prefill     decode  preempted    swap-in  recompute    migrate      total (ms)\n";
  char line[200];
  int64_t shown = 0;
  for (const RequestBreakdown& r : rows) {
    if (shown++ >= max_rows) {
      std::snprintf(line, sizeof(line), "  ... %lld more requests\n",
                    static_cast<long long>(rows.size()) - static_cast<long long>(max_rows));
      out += line;
      break;
    }
    if (r.rejected) {
      std::snprintf(line, sizeof(line), "  %-4d rejected\n", r.req);
      out += line;
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-4d %8.2f %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n", r.req,
                  r.queued_ms, r.prefill_ms, r.decode_ms, r.preempted_ms, r.swap_ms,
                  r.recompute_ms, r.migrate_ms, r.TotalMs());
    out += line;
  }
  return out;
}

}  // namespace flashinfer::obs

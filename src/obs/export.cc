#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/json.h"

namespace flashinfer::obs {

namespace {

using util::JsonEscape;
using util::JsonNum;

/// Appends the per-name payload fields as JSON object members (leading comma
/// included when anything is written). Keys mirror the conventions documented
/// in trace.h so the viewer shows meaningful arg names.
std::string ArgsFor(const TraceEvent& e) {
  std::string out;
  auto add = [&out](const char* key, double v) {
    out += out.empty() ? "" : ", ";
    out += '"';
    out += key;
    out += "\": ";
    out += JsonNum(v);
  };
  switch (e.name) {
    case TraceName::kStep:
      add("prefill_tokens", static_cast<double>(e.a));
      add("decode_branches", static_cast<double>(e.b));
      add("stalled_branches", static_cast<double>(e.c));
      add("preempted_waiting", static_cast<double>(e.d));
      add("spec", (e.flags & kStepFlagSpec) != 0 ? 1 : 0);
      break;
    case TraceName::kChunk:
      add("tokens", static_cast<double>(e.a));
      add("completes", static_cast<double>(e.b));
      add("restore", static_cast<double>(e.c));
      break;
    case TraceName::kReqPrefill:
      add("computed_tokens", static_cast<double>(e.a));
      add("cached_tokens", static_cast<double>(e.b));
      add("chunks", static_cast<double>(e.c));
      break;
    case TraceName::kReqDecode:
    case TraceName::kReqSwapIn:
    case TraceName::kReqRecompute:
    case TraceName::kKvRestoreSwap:
    case TraceName::kKvRestoreRecompute:
      add("kv_len", static_cast<double>(e.a));
      break;
    case TraceName::kReqPreempted:
      add("kv_len", static_cast<double>(e.a));
      add("swapped", static_cast<double>(e.b));
      break;
    case TraceName::kReqAdmit:
      add("new_prompt_tokens", static_cast<double>(e.a));
      add("kv_need", static_cast<double>(e.b));
      break;
    case TraceName::kReqReject:
      add("kv_need", static_cast<double>(e.a));
      add("kv_token_budget", static_cast<double>(e.b));
      break;
    case TraceName::kKvEvictSwap:
    case TraceName::kKvEvictDrop:
      add("kv_len", static_cast<double>(e.a));
      add("pages", static_cast<double>(e.b));
      break;
    case TraceName::kKvEncode:
      add("logical_bytes", static_cast<double>(e.a));
      add("stored_bytes", static_cast<double>(e.b));
      break;
    case TraceName::kKvDecode:
      add("kv_len", static_cast<double>(e.a));
      add("decode_us", static_cast<double>(e.b));
      break;
    case TraceName::kCopyD2H:
    case TraceName::kCopyH2D:
      add("kv_len", static_cast<double>(e.a));
      add("pages", static_cast<double>(e.b));
      add("queue_delay_us", static_cast<double>(e.c));
      break;
    case TraceName::kCopyMigrate:
      add("kv_tokens", static_cast<double>(e.a));
      add("pages", static_cast<double>(e.b));
      add("queue_delay_us", static_cast<double>(e.c));
      break;
    case TraceName::kReqMigrateIn:
      add("kv_tokens", static_cast<double>(e.a));
      add("branches", static_cast<double>(e.b));
      break;
    case TraceName::kReqMigrateOut:
      add("kv_tokens", static_cast<double>(e.a));
      add("pages", static_cast<double>(e.b));
      add("branches", static_cast<double>(e.c));
      break;
    case TraceName::kRouteDecision:
      add("replica", static_cast<double>(e.a));
      add("matched_prefix_tokens", static_cast<double>(e.b));
      break;
    case TraceName::kSloAlert:
    case TraceName::kSloRecover:
      add("spec", static_cast<double>(e.a));
      add("fast_burn", e.v);
      break;
    default: break;
  }
  if (e.req >= 0) add("req", static_cast<double>(e.req));
  return out;
}

/// True for request-lifecycle events exported as legacy async ("b"/"e"/"n")
/// rows keyed by request id.
bool IsRequestScoped(TraceName n) {
  switch (n) {
    case TraceName::kReqQueued:
    case TraceName::kReqPrefill:
    case TraceName::kReqDecode:
    case TraceName::kReqPreempted:
    case TraceName::kReqSwapIn:
    case TraceName::kReqRecompute:
    case TraceName::kReqMigrateIn:
    case TraceName::kReqMigrateOut:
    case TraceName::kReqAdmit:
    case TraceName::kReqFirstToken:
    case TraceName::kReqFinish:
    case TraceName::kReqReject:
      return true;
    default:
      return false;
  }
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  void Emit(const std::string& body) {
    os_ << (first_ ? "  {" : ",\n  {") << body << "}";
    first_ = false;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string Common(const char* ph, const TraceEvent& e, int pid, int tid) {
  std::string s = "\"ph\": \"";
  s += ph;
  s += "\", \"name\": \"" + std::string(TraceNameStr(e.name)) + "\"";
  s += ", \"pid\": " + std::to_string(pid) + ", \"tid\": " + std::to_string(tid);
  s += ", \"ts\": " + JsonNum(e.ts_us);
  return s;
}

}  // namespace

void WritePerfettoJson(std::ostream& os, const std::vector<TraceTrack>& tracks) {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  EventWriter w(os);
  for (size_t t = 0; t < tracks.size(); ++t) {
    const int pid = static_cast<int>(t);
    w.Emit("\"ph\": \"M\", \"name\": \"process_name\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": 0, \"args\": {\"name\": \"" + JsonEscape(tracks[t].name) + "\"}");
    w.Emit("\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": 0, \"args\": {\"name\": \"steps\"}");
    w.Emit("\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": 1, \"args\": {\"name\": \"kv\"}");
    w.Emit("\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " + std::to_string(pid) +
           ", \"tid\": 2, \"args\": {\"name\": \"copy\"}");
    for (const TraceEvent& e : tracks[t].events) {
      const std::string args = ArgsFor(e);
      const std::string args_obj = ", \"args\": {" + args + "}";
      if (IsRequestScoped(e.name)) {
        // Legacy async events: one row per request id under the process.
        const std::string id = ", \"cat\": \"request\", \"id\": " + std::to_string(e.req);
        if (KindOf(e.name) == TraceKind::kSpan) {
          w.Emit(Common("b", e, pid, 0) + id + args_obj);
          TraceEvent end = e;
          end.ts_us = e.ts_us + e.dur_us;
          w.Emit(Common("e", end, pid, 0) + id);
        } else {
          w.Emit(Common("n", e, pid, 0) + id + args_obj);
        }
        continue;
      }
      switch (KindOf(e.name)) {
        case TraceKind::kSpan: {
          // Copy-stream DMA spans get their own thread row so overlap with
          // compute steps is visible (step spans never overlap each other).
          const bool copy_track = e.name == TraceName::kCopyD2H ||
                                  e.name == TraceName::kCopyH2D ||
                                  e.name == TraceName::kCopyMigrate;
          w.Emit(Common("X", e, pid, copy_track ? 2 : 0) +
                 ", \"dur\": " + JsonNum(e.dur_us) + args_obj);
          break;
        }
        case TraceKind::kInstant: {
          const bool kv_track = e.name == TraceName::kKvEvictSwap ||
                                e.name == TraceName::kKvEvictDrop ||
                                e.name == TraceName::kKvRestoreSwap ||
                                e.name == TraceName::kKvRestoreRecompute ||
                                e.name == TraceName::kKvEncode ||
                                e.name == TraceName::kKvDecode;
          w.Emit(Common("i", e, pid, kv_track ? 1 : 0) + ", \"s\": \"t\"" + args_obj);
          break;
        }
        case TraceKind::kCounter:
          w.Emit(Common("C", e, pid, 0) + ", \"args\": {\"value\": " + JsonNum(e.v) + "}");
          break;
      }
    }
  }
  os << "\n]\n}\n";
}

void WriteJsonl(std::ostream& os, const std::vector<TraceTrack>& tracks) {
  for (const auto& track : tracks) {
    for (const TraceEvent& e : track.events) {
      const char* kind = KindOf(e.name) == TraceKind::kSpan      ? "span"
                         : KindOf(e.name) == TraceKind::kInstant ? "instant"
                                                                 : "counter";
      os << "{\"track\": \"" << JsonEscape(track.name) << "\", \"name\": \""
         << TraceNameStr(e.name) << "\", \"kind\": \"" << kind
         << "\", \"ts_us\": " << JsonNum(e.ts_us) << ", \"dur_us\": " << JsonNum(e.dur_us)
         << ", \"req\": " << e.req << ", \"flags\": " << e.flags << ", \"a\": " << e.a
         << ", \"b\": " << e.b << ", \"c\": " << e.c << ", \"d\": " << e.d
         << ", \"v\": " << JsonNum(e.v) << "}\n";
    }
  }
}

namespace {

bool WriteFile(const std::string& path, const std::vector<TraceTrack>& tracks,
               void (*writer)(std::ostream&, const std::vector<TraceTrack>&)) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  writer(f, tracks);
  return f.good();
}

}  // namespace

bool WritePerfettoFile(const std::string& path, const std::vector<TraceTrack>& tracks) {
  return WriteFile(path, tracks, &WritePerfettoJson);
}

bool WriteJsonlFile(const std::string& path, const std::vector<TraceTrack>& tracks) {
  return WriteFile(path, tracks, &WriteJsonl);
}

}  // namespace flashinfer::obs

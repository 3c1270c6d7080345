#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "util/json.h"

namespace flashinfer::obs {

namespace {

using util::JsonEscape;
using util::JsonNum;

/// Thread-row names, indexed by TraceRow (the request row is async).
constexpr const char* kThreadRows[] = {"steps", "kv", "copy"};

/// The event's payload fields as JSON object members, under its row's keys:
/// a..d, the flag, v, then the request id when set.
std::string ArgsFor(const TraceEvent& e) {
  const TraceNameInfo& info = InfoOf(e.name);
  std::string out;
  auto add = [&out](const char* key, double v) {
    out += out.empty() ? "" : ", ";
    out += '"';
    out += key;
    out += "\": ";
    out += JsonNum(v);
  };
  const int64_t payload[] = {e.a, e.b, e.c, e.d};
  for (size_t i = 0; i < std::size(payload); ++i) {
    if (info.keys[i]) add(info.keys[i], static_cast<double>(payload[i]));
  }
  if (info.flag) add(info.flag, (e.flags & kStepFlagSpec) != 0 ? 1 : 0);
  if (info.v) add(info.v, e.v);
  if (e.req >= 0) add("req", static_cast<double>(e.req));
  return out;
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
    for (int tid = 0; tid < static_cast<int>(std::size(kThreadRows)); ++tid) {
      w.Emit("\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " + std::to_string(pid) +
             ", \"tid\": " + std::to_string(tid) + ", \"args\": {\"name\": \"" +
             kThreadRows[tid] + "\"}");
    }
    for (const TraceEvent& e : tracks[t].events) {
      const TraceNameInfo& info = InfoOf(e.name);
      const std::string args_obj = ", \"args\": {" + ArgsFor(e) + "}";
      if (info.row == TraceRow::kRequest) {
        // Legacy async events: one row per request id under the process.
        const std::string id = ", \"cat\": \"request\", \"id\": " + std::to_string(e.req);
        if (info.kind == TraceKind::kSpan) {
          w.Emit(Common("b", e, pid, 0) + id + args_obj);
          TraceEvent end = e;
          end.ts_us = e.ts_us + e.dur_us;
          w.Emit(Common("e", end, pid, 0) + id);
        } else {
          w.Emit(Common("n", e, pid, 0) + id + args_obj);
        }
        continue;
      }
      const int tid = static_cast<int>(info.row);
      switch (info.kind) {
        case TraceKind::kSpan:
          w.Emit(Common("X", e, pid, tid) + ", \"dur\": " + JsonNum(e.dur_us) + args_obj);
          break;
        case TraceKind::kInstant:
          w.Emit(Common("i", e, pid, tid) + ", \"s\": \"t\"" + args_obj);
          break;
        case TraceKind::kCounter:
          w.Emit(Common("C", e, pid, tid) + ", \"args\": {\"value\": " + JsonNum(e.v) + "}");
          break;
      }
    }
  }
  os << "\n]\n}\n";
}

bool WritePerfettoFile(const std::string& path, const std::vector<TraceTrack>& tracks) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return false;
  }
  WritePerfettoJson(f, tracks);
  return f.good();
}

}  // namespace flashinfer::obs

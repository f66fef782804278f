#include "oracle/chrome_trace_oracle.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

namespace ff {
namespace obs {
namespace {

/// Large enough for any "%.Nf" of a finite double with N <= 9.
constexpr size_t kPrintfBuf = 400;

std::string Printf(const char* fmt, double v) {
  char buf[kPrintfBuf];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with fixed precision — the deterministic time format.
std::string Us(double seconds) { return Printf("%.3f", seconds * 1e6); }

std::string Num(double v) { return Printf("%.6g", v); }

/// Lane numbering: one tid per distinct track string, in first-use order
/// over spans then instants. tid 0 is reserved for counter events.
class Lanes {
 public:
  int Tid(StrId track) {
    auto it = tids_.find(track);
    if (it != tids_.end()) return it->second;
    int tid = static_cast<int>(order_.size()) + 1;
    tids_.emplace(track, tid);
    order_.push_back(track);
    return tid;
  }
  const std::vector<StrId>& order() const { return order_; }

 private:
  std::map<StrId, int> tids_;
  std::vector<StrId> order_;
};

struct SpanArgs {
  std::vector<const NumArgRecord*> nums;
  std::vector<const StrArgRecord*> strs;
};

void EmitProcessEvents(const TraceRecorder& trace,
                       const MetricsRegistry* metrics, int pid,
                       const std::string& process_name, bool include_counters,
                       std::ostream* out, bool* first) {
  Lanes lanes;
  for (const auto& s : trace.spans()) lanes.Tid(s.track);
  for (const auto& i : trace.instants()) lanes.Tid(i.track);

  std::map<SpanId, SpanArgs> args;
  for (const auto& a : trace.num_args()) args[a.span].nums.push_back(&a);
  for (const auto& a : trace.str_args()) args[a.span].strs.push_back(&a);

  auto sep = [&] {
    if (!*first) *out << ",\n";
    *first = false;
  };

  sep();
  *out << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\","
       << "\"args\":{\"name\":\"" << JsonEscape(process_name) << "\"}}";
  for (size_t i = 0; i < lanes.order().size(); ++i) {
    sep();
    *out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << (i + 1)
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
         << JsonEscape(trace.str(lanes.order()[i])) << "\"}}";
  }

  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const SpanRecord& s = trace.spans()[i];
    SpanId id = static_cast<SpanId>(i + 1);
    double end = s.end < 0.0 ? s.start : s.end;
    sep();
    *out << "{\"ph\":\"X\",\"pid\":" << pid
         << ",\"tid\":" << lanes.Tid(s.track) << ",\"cat\":\""
         << SpanCategoryName(s.category) << "\",\"name\":\""
         << JsonEscape(trace.str(s.name)) << "\",\"ts\":" << Us(s.start)
         << ",\"dur\":" << Us(end - s.start) << ",\"args\":{\"span_id\":"
         << id << ",\"parent_id\":" << s.parent;
    if (s.arg_key != 0) {
      *out << ",\"" << JsonEscape(trace.str(s.arg_key))
           << "\":" << Num(s.arg_value);
    }
    if (s.flags & kSpanFlagRemoved) *out << ",\"removed\":1";
    auto it = args.find(id);
    if (it != args.end()) {
      for (const auto* a : it->second.nums) {
        *out << ",\"" << JsonEscape(trace.str(a->key))
             << "\":" << Num(a->value);
      }
      for (const auto* a : it->second.strs) {
        *out << ",\"" << JsonEscape(trace.str(a->key)) << "\":\""
             << JsonEscape(trace.str(a->value)) << "\"";
      }
    }
    *out << "}}";
  }

  for (const auto& ev : trace.instants()) {
    sep();
    *out << "{\"ph\":\"i\",\"pid\":" << pid
         << ",\"tid\":" << lanes.Tid(ev.track) << ",\"cat\":\""
         << SpanCategoryName(ev.category) << "\",\"name\":\""
         << JsonEscape(trace.str(ev.name)) << "\",\"ts\":" << Us(ev.time)
         << ",\"s\":\"t\"}";
  }

  if (metrics != nullptr && include_counters) {
    for (const auto& s : metrics->samples()) {
      sep();
      *out << "{\"ph\":\"C\",\"pid\":" << pid << ",\"tid\":0,\"name\":\""
           << JsonEscape(metrics->metric_name(s.metric))
           << "\",\"ts\":" << Us(s.time) << ",\"args\":{\"value\":"
           << Num(s.value) << "}}";
    }
  }
}

}  // namespace

std::string ChromeTraceJsonOracle(const TraceRecorder& trace,
                                  const MetricsRegistry* metrics,
                                  const ChromeTraceOptions& options) {
  std::ostringstream out;
  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  EmitProcessEvents(trace, metrics, 1, options.process_name,
                    options.include_counters, &out, &first);
  if (options.runtime_trace != nullptr) {
    EmitProcessEvents(*options.runtime_trace, nullptr, options.runtime_pid,
                      options.runtime_process_name,
                      /*include_counters=*/false, &out, &first);
  }
  out << "\n]\n}\n";
  return out.str();
}

std::string SpansCsvOracle(const TraceRecorder& trace) {
  std::ostringstream out;
  out << "span_id,parent_id,category,name,track,start_s,end_s,"
         "duration_s\n";
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const SpanRecord& s = trace.spans()[i];
    double end = s.end < 0.0 ? s.start : s.end;
    out << (i + 1) << "," << s.parent << "," << SpanCategoryName(s.category)
        << "," << trace.str(s.name) << "," << trace.str(s.track) << ","
        << Printf("%.6f", s.start) << "," << Printf("%.6f", end) << ","
        << Printf("%.6f", end - s.start) << "\n";
  }
  return out.str();
}

std::string MetricSamplesCsvOracle(const MetricsRegistry& metrics) {
  std::ostringstream out;
  out << "time_s,metric,value\n";
  for (const auto& s : metrics.samples()) {
    out << Printf("%.6f", s.time) << "," << metrics.metric_name(s.metric)
        << "," << Printf("%.9g", s.value) << "\n";
  }
  return out.str();
}

}  // namespace obs
}  // namespace ff

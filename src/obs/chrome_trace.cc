#include "obs/chrome_trace.h"

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/logging.h"

namespace ff {
namespace obs {

namespace {

/// Longest number any exporter writes: "%.6f" of -DBL_MAX (-1.8e308) is
/// a sign, 309 integer digits, the point and 6 decimals (317 chars).
constexpr size_t kMaxNumChars = 330;

void AppendDouble(std::string* out, double v, std::chars_format fmt,
                  int precision) {
  char buf[kMaxNumChars];
  auto r = std::to_chars(buf, buf + sizeof(buf), v, fmt, precision);
  FF_DCHECK(r.ec == std::errc());
  out->append(buf, r.ptr);
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

/// Microseconds with fixed precision — the deterministic time format.
void AppendUs(std::string* out, double seconds) {
  AppendDouble(out, seconds * 1e6, std::chars_format::fixed, 3);
}

void AppendNum(std::string* out, double v) {
  AppendDouble(out, v, std::chars_format::general, 6);
}

/// CSV seconds, "%.6f".
void AppendSeconds(std::string* out, double seconds) {
  AppendDouble(out, seconds, std::chars_format::fixed, 6);
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 15]};
          out->append(esc, sizeof(esc));
        } else {
          out->push_back(c);
        }
      }
    }
  }
}

/// Args of span id k (1-based) are `recs[offset[k] .. offset[k + 1])`, in
/// record order: a stable counting sort on the span id. Args on span 0
/// or past the last span are left out; the exporter never emits them.
template <typename Rec>
struct SpanArgIndex {
  std::vector<size_t> offset;
  std::vector<const Rec*> recs;

  SpanArgIndex(const std::vector<Rec>& args, size_t num_spans)
      : offset(num_spans + 2, 0) {
    for (const Rec& a : args) {
      if (a.span != 0 && a.span <= num_spans) ++offset[a.span + 1];
    }
    for (size_t k = 1; k < offset.size(); ++k) offset[k] += offset[k - 1];
    recs.resize(offset.back());
    std::vector<size_t> next(offset);
    for (const Rec& a : args) {
      if (a.span != 0 && a.span <= num_spans) recs[next[a.span]++] = &a;
    }
  }
};

/// Appends one recorder's metadata + spans + instants (+ counters, when
/// `counters` is not null) under a fixed process id. `first` is true for
/// the first process in the traceEvents array.
void AppendProcessEvents(const TraceRecorder& trace,
                         const MetricsRegistry* counters, int pid,
                         const std::string& process_name, bool first,
                         std::string* out) {
  // Each interned string is escaped once per export, not once per use.
  std::vector<std::string> esc(trace.num_strings());
  for (size_t id = 0; id < esc.size(); ++id) {
    AppendJsonEscaped(&esc[id], trace.str(static_cast<StrId>(id)));
  }

  // Lane numbering: one tid per distinct track string, in first-use
  // order over spans then instants. tid 0 is reserved for counter events.
  std::vector<uint32_t> tid(trace.num_strings(), 0);
  std::vector<StrId> lanes;
  auto add_lane = [&](StrId track) {
    if (tid[track] != 0) return;
    lanes.push_back(track);
    tid[track] = static_cast<uint32_t>(lanes.size());
  };
  for (const auto& s : trace.spans()) add_lane(s.track);
  for (const auto& i : trace.instants()) add_lane(i.track);

  const size_t num_spans = trace.spans().size();
  const SpanArgIndex<NumArgRecord> nums(trace.num_args(), num_spans);
  const SpanArgIndex<StrArgRecord> strs(trace.str_args(), num_spans);

  // Every event opens with its separator, phase, pid and tid; the first
  // event of the document has no comma before it.
  std::string pid_str;
  AppendInt(&pid_str, pid);
  std::string_view sep = first ? "\n" : ",\n";
  auto begin_event = [&](char ph, uint64_t lane) {
    out->append(sep);
    sep = ",\n";
    out->append("{\"ph\":\"");
    out->push_back(ph);
    out->append("\",\"pid\":");
    out->append(pid_str);
    out->append(",\"tid\":");
    AppendInt(out, lane);
  };
  auto num_arg = [&](StrId key, double value) {
    out->append(",\"");
    out->append(esc[key]);
    out->append("\":");
    AppendNum(out, value);
  };

  begin_event('M', 0);
  out->append(",\"name\":\"process_name\",\"args\":{\"name\":\"");
  AppendJsonEscaped(out, process_name);
  out->append("\"}}");
  for (size_t i = 0; i < lanes.size(); ++i) {
    begin_event('M', i + 1);
    out->append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    out->append(esc[lanes[i]]);
    out->append("\"}}");
  }

  for (size_t i = 0; i < num_spans; ++i) {
    const SpanRecord& s = trace.spans()[i];
    const SpanId id = static_cast<SpanId>(i + 1);
    const double end = s.end < 0.0 ? s.start : s.end;
    begin_event('X', tid[s.track]);
    out->append(",\"cat\":\"");
    out->append(SpanCategoryName(s.category));
    out->append("\",\"name\":\"");
    out->append(esc[s.name]);
    out->append("\",\"ts\":");
    AppendUs(out, s.start);
    out->append(",\"dur\":");
    AppendUs(out, end - s.start);
    out->append(",\"args\":{\"span_id\":");
    AppendInt(out, id);
    out->append(",\"parent_id\":");
    AppendInt(out, s.parent);
    if (s.arg_key != 0) num_arg(s.arg_key, s.arg_value);
    if (s.flags & kSpanFlagRemoved) out->append(",\"removed\":1");
    for (size_t k = nums.offset[id]; k < nums.offset[id + 1]; ++k) {
      num_arg(nums.recs[k]->key, nums.recs[k]->value);
    }
    for (size_t k = strs.offset[id]; k < strs.offset[id + 1]; ++k) {
      out->append(",\"");
      out->append(esc[strs.recs[k]->key]);
      out->append("\":\"");
      out->append(esc[strs.recs[k]->value]);
      out->push_back('"');
    }
    out->append("}}");
  }

  for (const auto& ev : trace.instants()) {
    begin_event('i', tid[ev.track]);
    out->append(",\"cat\":\"");
    out->append(SpanCategoryName(ev.category));
    out->append("\",\"name\":\"");
    out->append(esc[ev.name]);
    out->append("\",\"ts\":");
    AppendUs(out, ev.time);
    out->append(",\"s\":\"t\"}");
  }

  if (counters != nullptr) {
    std::vector<std::string> metric_esc(counters->num_metric_names());
    for (size_t m = 0; m < metric_esc.size(); ++m) {
      AppendJsonEscaped(&metric_esc[m],
                        counters->metric_name(static_cast<uint32_t>(m)));
    }
    for (const auto& s : counters->samples()) {
      begin_event('C', 0);
      out->append(",\"name\":\"");
      out->append(metric_esc[s.metric]);
      out->append("\",\"ts\":");
      AppendUs(out, s.time);
      out->append(",\"args\":{\"value\":");
      AppendNum(out, s.value);
      out->append("}}");
    }
  }
}

/// Generous byte estimate of one recorder's events, so the document is
/// formatted into one allocation in the common case.
size_t EstimateJsonBytes(const TraceRecorder& trace,
                         const MetricsRegistry* metrics) {
  size_t n = 256 + 96 * trace.num_strings() + 256 * trace.spans().size() +
             48 * (trace.num_args().size() + trace.str_args().size()) +
             128 * trace.instants().size();
  if (metrics != nullptr) n += 128 * metrics->samples().size();
  return n;
}

}  // namespace

std::string ChromeTraceJson(const TraceRecorder& trace,
                            const MetricsRegistry* metrics,
                            const ChromeTraceOptions& options) {
  const MetricsRegistry* counters = options.include_counters ? metrics
                                                              : nullptr;
  size_t bytes = EstimateJsonBytes(trace, counters);
  if (options.runtime_trace != nullptr) {
    bytes += EstimateJsonBytes(*options.runtime_trace, nullptr);
  }
  std::string out;
  out.reserve(bytes);
  out.append("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
  AppendProcessEvents(trace, counters, 1, options.process_name,
                      /*first=*/true, &out);
  if (options.runtime_trace != nullptr) {
    // Wall-clock process: separate pid, never mixed with virtual time.
    AppendProcessEvents(*options.runtime_trace, nullptr, options.runtime_pid,
                        options.runtime_process_name, /*first=*/false, &out);
  }
  out.append("\n]\n}\n");
  return out;
}

void WriteSpansCsv(const TraceRecorder& trace, std::ostream* out) {
  std::string buf;
  buf.reserve(64 + 96 * trace.spans().size());
  buf.append("span_id,parent_id,category,name,track,start_s,end_s,"
             "duration_s\n");
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const SpanRecord& s = trace.spans()[i];
    const double end = s.end < 0.0 ? s.start : s.end;
    AppendInt(&buf, i + 1);
    buf.push_back(',');
    AppendInt(&buf, s.parent);
    buf.push_back(',');
    buf.append(SpanCategoryName(s.category));
    buf.push_back(',');
    buf.append(trace.str(s.name));
    buf.push_back(',');
    buf.append(trace.str(s.track));
    buf.push_back(',');
    AppendSeconds(&buf, s.start);
    buf.push_back(',');
    AppendSeconds(&buf, end);
    buf.push_back(',');
    AppendSeconds(&buf, end - s.start);
    buf.push_back('\n');
  }
  out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void WriteMetricSamplesCsv(const MetricsRegistry& metrics,
                           std::ostream* out) {
  std::string buf;
  buf.reserve(32 + 64 * metrics.samples().size());
  buf.append("time_s,metric,value\n");
  for (const auto& s : metrics.samples()) {
    AppendSeconds(&buf, s.time);
    buf.push_back(',');
    buf.append(metrics.metric_name(s.metric));
    buf.push_back(',');
    AppendDouble(&buf, s.value, std::chars_format::general, 9);
    buf.push_back('\n');
  }
  out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

}  // namespace obs
}  // namespace ff

#include "obs/chrome_trace.h"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <system_error>
#include <thread>
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

/// Appends `format`'s bytes for events [0, n) to `sink`, in event order,
/// one block of kExportBlockEvents events at a time. `format(begin, end,
/// buf)` appends events [begin, end) to *buf and reads only state that
/// stays constant for the whole call; `sink` runs on the calling thread.
/// With ExportThreads(n) > 1, that many workers claim blocks in order and
/// format block b into slot b % ring of a ring of reused buffers once the
/// caller has handed block b - ring to the sink. The caller sinks blocks
/// in order and formats block 0 and any block no worker has claimed yet,
/// so with no workers (one block, or one hardware thread) it formats
/// every block itself.
void FormatBlocks(
    size_t n, const std::function<void(size_t, size_t, std::string*)>& format,
    const std::function<void(std::string_view)>& sink) {
  const size_t blocks = (n + kExportBlockEvents - 1) / kExportBlockEvents;
  const size_t threads = ExportThreads(n);
  // One cache line per slot header: workers append to different slots
  // at once, and a shared line would bounce on every append.
  struct alignas(64) Slot {
    std::string bytes;
    size_t ready = 0;  // block + 1 of the bytes, 0 = none; guarded by mu
  };
  const size_t ring = 2 * threads;
  std::vector<Slot> slots(ring);
  auto format_block = [&](size_t b) {
    std::string& bytes = slots[b % ring].bytes;
    bytes.clear();
    format(b * kExportBlockEvents, std::min(n, (b + 1) * kExportBlockEvents),
           &bytes);
  };

  // The caller formats block 0 before any worker starts and sizes every
  // slot from it, so workers seldom allocate: a new thread's allocations
  // would land in a malloc arena of its own and stay resident there.
  format_block(0);
  slots[0].ready = 1;
  for (Slot& slot : slots) slot.bytes.reserve(2 * slots[0].bytes.size());

  std::mutex mu;
  std::condition_variable formatted;  // a slot's `ready` was set
  std::condition_variable freed;      // `sunk` grew
  size_t next = 1;                    // first block nobody has claimed
  size_t sunk = 0;                    // blocks handed to the sink
  bool stop = false;                  // the caller is unwinding
  auto work = [&] {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop && next < blocks) {
      const size_t b = next++;
      freed.wait(lock, [&] { return stop || b < sunk + ring; });
      if (stop) return;
      lock.unlock();
      format_block(b);
      lock.lock();
      slots[b % ring].ready = b + 1;
      formatted.notify_one();
    }
  };
  std::vector<std::thread> workers;
  try {
    const size_t num_workers = threads > 1 ? threads : 0;
    for (size_t t = 0; t < num_workers; ++t) workers.emplace_back(work);
    for (size_t b = 0; b < blocks; ++b) {
      std::unique_lock<std::mutex> lock(mu);
      if (next == b) {
        next = b + 1;
        lock.unlock();
        format_block(b);
      } else {
        formatted.wait(lock, [&] { return slots[b % ring].ready == b + 1; });
        lock.unlock();
      }
      sink(slots[b % ring].bytes);
      lock.lock();
      sunk = b + 1;
      lock.unlock();
      freed.notify_all();
    }
  } catch (...) {
    // A thread that would not start, or a throwing sink or format: the
    // workers stop claiming and waiting, and are joined before unwinding.
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    freed.notify_all();
    for (std::thread& w : workers) w.join();
    throw;
  }
  for (std::thread& w : workers) w.join();
}

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
  std::vector<std::string> metric_esc;
  if (counters != nullptr) {
    metric_esc.resize(counters->num_metric_names());
    for (size_t m = 0; m < metric_esc.size(); ++m) {
      AppendJsonEscaped(&metric_esc[m],
                        counters->metric_name(static_cast<uint32_t>(m)));
    }
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
  const size_t num_instants = trace.instants().size();
  const SpanArgIndex<NumArgRecord> nums(trace.num_args(), num_spans);
  const SpanArgIndex<StrArgRecord> strs(trace.str_args(), num_spans);

  // Every event opens with its separator, phase, pid and tid; only the
  // document's first event, the process metadata, has no comma before it.
  std::string pid_str;
  AppendInt(&pid_str, pid);
  auto begin_event = [&](std::string* o, char ph, uint64_t lane,
                         std::string_view sep = ",\n") {
    o->append(sep);
    o->append("{\"ph\":\"");
    o->push_back(ph);
    o->append("\",\"pid\":");
    o->append(pid_str);
    o->append(",\"tid\":");
    AppendInt(o, lane);
  };
  auto num_arg = [&](std::string* o, StrId key, double value) {
    o->append(",\"");
    o->append(esc[key]);
    o->append("\":");
    AppendNum(o, value);
  };

  begin_event(out, 'M', 0, first ? "\n" : ",\n");
  out->append(",\"name\":\"process_name\",\"args\":{\"name\":\"");
  AppendJsonEscaped(out, process_name);
  out->append("\"}}");
  for (size_t i = 0; i < lanes.size(); ++i) {
    begin_event(out, 'M', i + 1);
    out->append(",\"name\":\"thread_name\",\"args\":{\"name\":\"");
    out->append(esc[lanes[i]]);
    out->append("\"}}");
  }

  auto append_span = [&](std::string* o, size_t i) {
    const SpanRecord& s = trace.spans()[i];
    const SpanId id = static_cast<SpanId>(i + 1);
    const double end = s.end < 0.0 ? s.start : s.end;
    begin_event(o, 'X', tid[s.track]);
    o->append(",\"cat\":\"");
    o->append(SpanCategoryName(s.category));
    o->append("\",\"name\":\"");
    o->append(esc[s.name]);
    o->append("\",\"ts\":");
    AppendUs(o, s.start);
    o->append(",\"dur\":");
    AppendUs(o, end - s.start);
    o->append(",\"args\":{\"span_id\":");
    AppendInt(o, id);
    o->append(",\"parent_id\":");
    AppendInt(o, s.parent);
    if (s.arg_key != 0) num_arg(o, s.arg_key, s.arg_value);
    if (s.flags & kSpanFlagRemoved) o->append(",\"removed\":1");
    for (size_t k = nums.offset[id]; k < nums.offset[id + 1]; ++k) {
      num_arg(o, nums.recs[k]->key, nums.recs[k]->value);
    }
    for (size_t k = strs.offset[id]; k < strs.offset[id + 1]; ++k) {
      o->append(",\"");
      o->append(esc[strs.recs[k]->key]);
      o->append("\":\"");
      o->append(esc[strs.recs[k]->value]);
      o->push_back('"');
    }
    o->append("}}");
  };
  auto append_instant = [&](std::string* o, size_t i) {
    const InstantRecord& ev = trace.instants()[i];
    begin_event(o, 'i', tid[ev.track]);
    o->append(",\"cat\":\"");
    o->append(SpanCategoryName(ev.category));
    o->append("\",\"name\":\"");
    o->append(esc[ev.name]);
    o->append("\",\"ts\":");
    AppendUs(o, ev.time);
    o->append(",\"s\":\"t\"}");
  };
  auto append_counter = [&](std::string* o, size_t i) {
    const MetricSample& s = counters->samples()[i];
    begin_event(o, 'C', 0);
    o->append(",\"name\":\"");
    o->append(metric_esc[s.metric]);
    o->append("\",\"ts\":");
    AppendUs(o, s.time);
    o->append(",\"args\":{\"value\":");
    AppendNum(o, s.value);
    o->append("}}");
  };

  // Events in one index space: spans, then instants, then counters.
  const size_t num_counters =
      counters != nullptr ? counters->samples().size() : 0;
  FormatBlocks(
      num_spans + num_instants + num_counters,
      [&](size_t begin, size_t end, std::string* o) {
        for (size_t i = begin; i < end; ++i) {
          if (i < num_spans) {
            append_span(o, i);
          } else if (i < num_spans + num_instants) {
            append_instant(o, i - num_spans);
          } else {
            append_counter(o, i - num_spans - num_instants);
          }
        }
      },
      [out](std::string_view block) { out->append(block); });
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

/// Writes whole blocks to `out`.
auto StreamSink(std::ostream* out) {
  return [out](std::string_view block) {
    out->write(block.data(), static_cast<std::streamsize>(block.size()));
  };
}

}  // namespace

size_t ExportThreads(size_t events) {
  const size_t blocks = (events + kExportBlockEvents - 1) / kExportBlockEvents;
  const size_t hw = std::thread::hardware_concurrency();
  return blocks <= 1 || hw <= 1 ? 1 : std::min(hw, blocks);
}

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
  static constexpr std::string_view kHeader =
      "span_id,parent_id,category,name,track,start_s,end_s,duration_s\n";
  out->write(kHeader.data(), kHeader.size());
  FormatBlocks(
      trace.spans().size(),
      [&](size_t begin, size_t end, std::string* buf) {
        for (size_t i = begin; i < end; ++i) {
          const SpanRecord& s = trace.spans()[i];
          const double end_s = s.end < 0.0 ? s.start : s.end;
          AppendInt(buf, i + 1);
          buf->push_back(',');
          AppendInt(buf, s.parent);
          buf->push_back(',');
          buf->append(SpanCategoryName(s.category));
          buf->push_back(',');
          buf->append(trace.str(s.name));
          buf->push_back(',');
          buf->append(trace.str(s.track));
          buf->push_back(',');
          AppendSeconds(buf, s.start);
          buf->push_back(',');
          AppendSeconds(buf, end_s);
          buf->push_back(',');
          AppendSeconds(buf, end_s - s.start);
          buf->push_back('\n');
        }
      },
      StreamSink(out));
}

void WriteMetricSamplesCsv(const MetricsRegistry& metrics,
                           std::ostream* out) {
  static constexpr std::string_view kHeader = "time_s,metric,value\n";
  out->write(kHeader.data(), kHeader.size());
  FormatBlocks(
      metrics.samples().size(),
      [&](size_t begin, size_t end, std::string* buf) {
        for (size_t i = begin; i < end; ++i) {
          const MetricSample& s = metrics.samples()[i];
          AppendSeconds(buf, s.time);
          buf->push_back(',');
          buf->append(metrics.metric_name(s.metric));
          buf->push_back(',');
          AppendDouble(buf, s.value, std::chars_format::general, 9);
          buf->push_back('\n');
        }
      },
      StreamSink(out));
}

}  // namespace obs
}  // namespace ff

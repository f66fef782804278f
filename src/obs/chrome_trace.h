// Exporters for the recorded telemetry:
//   - Chrome trace_event JSON, loadable in Perfetto / chrome://tracing
//     (spans as complete "X" events on one lane per track, instants as
//     "i" events, metric samples as "C" counter events);
//   - flat CSV (spans / metric samples) for spreadsheets and statsdb
//     ingestion via csv_io.
//
// Output is byte-deterministic for a given recorder state: lanes are
// numbered in first-use order, events are emitted in record order, and
// every floating-point field has one fixed format — a fixed-seed
// simulation therefore exports a byte-identical trace (golden-tested in
// tests/obs/trace_test.cc). The formats, as printf in the "C" locale:
//   - JSON "ts"/"dur": microseconds, "%.3f" of seconds * 1e6;
//   - JSON span args and counter values: "%.6g";
//   - CSV times (start_s, end_s, duration_s, time_s): "%.6f" of seconds;
//   - CSV metric values: "%.9g";
//   - integers (pid, tid, span_id, parent_id) in decimal.
// Non-finite values print as printf prints them ("nan", "-nan", "inf",
// "-inf"), and fixed output is never truncated, however large. The
// exporters write numbers with std::to_chars(first, last, value, fmt,
// precision), which [charconv] defines as printf with "%.<precision>f"
// (chars_format::fixed) or "%.<precision>g" (chars_format::general) in
// the "C" locale, so the bytes match the printf formats above exactly.
// JSON strings escape '"', '\\', '\n', '\t' and '\r' by name and other
// bytes below 0x20 as "\u00XX" (lowercase hex); all other bytes, UTF-8
// included, pass through. CSV names and tracks are written unescaped.
// A test-only printf reference (tests/oracle/chrome_trace_oracle.h)
// checks all of this byte for byte.
//
// Blocks and threads. Each exporter formats its events (JSON spans,
// instants and counters of one process, in that order; CSV rows) in
// blocks of kExportBlockEvents consecutive events and appends the
// blocks in event order. A block's bytes depend only on its events and
// on tables built once before formatting starts (escaped strings, lane
// tids, span args), never on the thread count or the host: after the
// process metadata every JSON event begins with ",\n", so a block needs
// nothing from the block before it. Output is the same bytes on any
// number of threads. A call whose events fill more than one block starts
// ExportThreads(events) worker threads of its own, joined before it
// returns; they format blocks into a ring of 2 x threads reused buffers
// while the calling thread appends finished blocks in order. The memory
// beyond the output is that ring, each buffer reserved at twice the
// first block's bytes (~210 KB for a block of the sweep's JSON spans, so
// ~3.4 MB on 4 threads). A single block, or a one-thread host, is
// formatted by the calling thread alone, through the same code.

#ifndef FF_OBS_CHROME_TRACE_H_
#define FF_OBS_CHROME_TRACE_H_

#include <cstddef>
#include <ostream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ff {
namespace obs {

/// Events per formatting block (see "Blocks and threads" above).
inline constexpr size_t kExportBlockEvents = 1024;

/// Threads that format `events` events: 1 (the calling thread alone) for
/// at most one block or on a one-thread host, else
/// min(std::thread::hardware_concurrency(), number of blocks).
size_t ExportThreads(size_t events);

struct ChromeTraceOptions {
  /// The "process_name" metadata shown by the viewer.
  std::string process_name = "forecast-factory";
  /// Include "C" counter events from the metrics sample series.
  bool include_counters = true;

  /// Optional second recorder whose clock is WALL time (e.g. the sweep
  /// runtime trace built by obs::FillSweepRuntimeTrace). Its events are
  /// emitted under a separate process id so Perfetto shows sim-time and
  /// run-time side by side without ever mixing the clock domains —
  /// runtime rows carry real measurements and are NOT covered by the
  /// byte-determinism contract above. Null = single-process output,
  /// byte-identical to what this exporter always produced.
  const TraceRecorder* runtime_trace = nullptr;
  std::string runtime_process_name = "runtime (wall clock)";
  int runtime_pid = 2;
};

/// The Chrome trace_event JSON document. `metrics` may be null.
/// Virtual seconds map to trace microseconds (1 s = 1e6 us), so lanes are
/// labelled in wall-ish units inside the viewer. Span args appear after
/// the inline arg and the "removed" flag: numeric args first, then string
/// args, each in record order; args on span 0 or on an id past the last
/// span are not emitted.
std::string ChromeTraceJson(const TraceRecorder& trace,
                            const MetricsRegistry* metrics = nullptr,
                            const ChromeTraceOptions& options = {});

/// CSV: span_id,parent_id,category,name,track,start_s,end_s,duration_s.
/// Open spans export with end_s == start_s.
void WriteSpansCsv(const TraceRecorder& trace, std::ostream* out);

/// CSV: time_s,metric,value.
void WriteMetricSamplesCsv(const MetricsRegistry& metrics,
                           std::ostream* out);

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_CHROME_TRACE_H_

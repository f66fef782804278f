// Stream-and-printf reference exporters, for tests and benchmarks only.
//
// The simplest correct reading of the telemetry formats documented in
// obs/chrome_trace.h: every field goes through an std::ostringstream,
// numbers through snprintf with the documented printf format, and every
// string is JSON-escaped where it is emitted. The production exporters
// (obs/chrome_trace.cc) format into one buffer with std::to_chars and
// must match these byte for byte. The printf buffers here are sized for
// the longest "%f" output (about 317 chars at -1.8e308), so no field is
// ever cut short.

#ifndef FF_TESTS_ORACLE_CHROME_TRACE_ORACLE_H_
#define FF_TESTS_ORACLE_CHROME_TRACE_ORACLE_H_

#include <string>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ff {
namespace obs {

std::string ChromeTraceJsonOracle(const TraceRecorder& trace,
                                  const MetricsRegistry* metrics = nullptr,
                                  const ChromeTraceOptions& options = {});

std::string SpansCsvOracle(const TraceRecorder& trace);

std::string MetricSamplesCsvOracle(const MetricsRegistry& metrics);

}  // namespace obs
}  // namespace ff

#endif  // FF_TESTS_ORACLE_CHROME_TRACE_ORACLE_H_

// Ingestion bridge: loads recorded spans, instant events and metric
// samples into statsdb tables, so the SQL layer and logdata analytics
// (SPC, timeseries) run directly over live simulation telemetry — the
// paper's crawl-the-logs-into-a-database loop (§4.3.2) with the crawl
// replaced by in-memory ingestion.
//
//   spans(span_id, parent_id, category, name, track, start_s, end_s,
//         duration_s)
//   trace_events(time_s, category, name, track)
//   metric_samples(time_s, metric, value)
//
// Example: p95 task duration per node over a campaign's telemetry:
//   SELECT track, COUNT(*) AS n, P95(duration_s) AS p95_s
//   FROM spans WHERE category = 'task' GROUP BY track ORDER BY track

#ifndef FF_OBS_STATSDB_BRIDGE_H_
#define FF_OBS_STATSDB_BRIDGE_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "statsdb/database.h"

namespace ff {
namespace obs {

/// Creates (replacing any existing table of the same name) and fills the
/// spans table; open spans load with end_s == start_s. Returns the table.
util::StatusOr<statsdb::Table*> LoadSpans(
    const TraceRecorder& trace, statsdb::Database* db,
    const std::string& table_name = "spans");

/// Instant events.
util::StatusOr<statsdb::Table*> LoadInstants(
    const TraceRecorder& trace, statsdb::Database* db,
    const std::string& table_name = "trace_events");

/// Metric sample series.
util::StatusOr<statsdb::Table*> LoadMetricSamples(
    const MetricsRegistry& metrics, statsdb::Database* db,
    const std::string& table_name = "metric_samples");

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_STATSDB_BRIDGE_H_

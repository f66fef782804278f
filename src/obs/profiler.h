// Exporters for wall-clock runtime profiles (obs/runtime_stats.h),
// reusing the virtual-time observability machinery: runtime spans ride
// a TraceRecorder whose "time" is wall-clock seconds and export as a
// SEPARATE Chrome-trace process (ChromeTraceOptions::runtime_trace, pid
// 2) so Perfetto shows sim-time and run-time side by side without ever
// mixing the clock domains; profiles load into a `runtime_*` statsdb
// table family for SQL; and plain-text summaries serve benches, routed
// through util logging's SetLogSink hook rather than raw stderr.
//
// Everything here is a cold-path exporter — the hot-path counters live
// in ff_runtime_stats (which ff_parallel_core and ff_statsdb link);
// this header needs the full obs + statsdb stack and so lives in ff_obs.

#ifndef FF_OBS_PROFILER_H_
#define FF_OBS_PROFILER_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/runtime_stats.h"
#include "obs/trace.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "util/status.h"

namespace ff {
namespace obs {

/// Renders a sweep's runtime profile as trace spans: one span per
/// replica on its worker's lane ("w<idx>", "inline" for serial), span
/// time = wall-clock seconds from the sweep start, with queue_wait_ms /
/// wall_ms span args. Feed the result to ChromeTraceJson via
/// ChromeTraceOptions::runtime_trace for the dual-process Perfetto view.
void FillSweepRuntimeTrace(const SweepRuntimeProfile& profile,
                           TraceRecorder* trace);

/// runtime_workers(worker, tasks, run_ms, idle_ms, parks, steals,
///                 steal_fails, deque_peak, task_p50_us, task_p95_us)
util::StatusOr<statsdb::Table*> LoadRuntimeWorkers(
    const PoolRuntimeProfile& profile, statsdb::Database* db,
    const std::string& table_name = "runtime_workers");

/// runtime_operators(op_id, parent_id, depth, name, rows, batches,
///                   time_ms, self_ms, chunks_scanned, chunks_pruned,
///                   morsels, merge_ms) — pre-order walk of the profile
/// tree, op_id 1 = root, parent_id 0 = none.
util::StatusOr<statsdb::Table*> LoadRuntimeOperators(
    const QueryProfile& profile, statsdb::Database* db,
    const std::string& table_name = "runtime_operators");

/// runtime_replicas(replica, worker, queue_wait_ms, wall_ms);
/// worker == -1 for replicas run inline (no pool).
util::StatusOr<statsdb::Table*> LoadRuntimeReplicas(
    const SweepRuntimeProfile& profile, statsdb::Database* db,
    const std::string& table_name = "runtime_replicas");

/// runtime_cache(tier, hits, misses, bypasses, invalidations, evictions,
///               entries, bytes) — one row per cache tier ("plan",
/// "result"); bytes is 0 for the plan tier (plans are shared, not
/// copied). Snapshot typically via db->cache().Stats(); self-observing
/// loads (exporting a database's cache stats into that same database)
/// are fine — the snapshot is taken before the target table is touched.
util::StatusOr<statsdb::Table*> LoadRuntimeCache(
    const statsdb::QueryCacheStats& stats, statsdb::Database* db,
    const std::string& table_name = "runtime_cache");

/// One served-client session's counters, as exported by the statsdb
/// server (net/server.h converts its atomics into this plain struct —
/// ff_obs stays below ff_net in the layering, so the exporter takes
/// data, not the server type).
struct SessionRuntime {
  uint64_t id = 0;
  bool closed = false;
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t prepared_open = 0;
  double queue_wait_ms = 0.0;
  double exec_ms = 0.0;
  double serialize_ms = 0.0;
  double send_ms = 0.0;
};

/// runtime_sessions(session, closed, queries, errors, shed, rows_out,
///                  bytes_in, bytes_out, prepared_open, queue_wait_ms,
///                  exec_ms, serialize_ms, send_ms) — one row per
/// session ever accepted, alongside runtime_cache for the served
/// database's dashboard. `shed` counts frames refused by admission
/// control (answered kUnavailable without executing).
util::StatusOr<statsdb::Table*> LoadRuntimeSessions(
    const std::vector<SessionRuntime>& sessions, statsdb::Database* db,
    const std::string& table_name = "runtime_sessions");

/// Server-wide robustness counters (net/server.h overload-control
/// limits), mirrored as plain data for the same layering reason as
/// SessionRuntime.
struct ServerRuntime {
  uint64_t accepted = 0;             // connections admitted
  uint64_t refused_connections = 0;  // over max_connections
  uint64_t shed_frames = 0;          // admission budget exceeded
  uint64_t stall_closed = 0;         // write_stall_timeout expirations
  uint64_t overflow_closed = 0;      // outbound-buffer cap closes
  uint64_t idle_closed = 0;          // idle read-timeout closes
  uint64_t drain_forced = 0;         // Stop() drain deadline hit
};

/// runtime_server(counter, value) — one row per ServerRuntime field, so
/// a dashboard (or the chaos bench) can read the server's own overload
/// ledger over the wire after a kRefreshStats.
util::StatusOr<statsdb::Table*> LoadRuntimeServer(
    const ServerRuntime& server, statsdb::Database* db,
    const std::string& table_name = "runtime_server");

/// Multi-line human-readable pool summary: occupancy, per-worker
/// run/idle/steal split, task-latency quantiles, queue peaks.
std::string PoolRuntimeSummary(const PoolRuntimeProfile& profile);

/// Sweep summary: wall time, per-worker occupancy, replica queue-wait
/// and wall-time extremes, plus the pool summary for the sweep window.
std::string SweepRuntimeSummary(const SweepRuntimeProfile& profile);

/// Emits a (possibly multi-line) summary through util logging at INFO —
/// one FF_LOG line per text line, "title: line" — so embedders capture
/// profiler output via SetLogSink instead of scraping stderr. Remember
/// the default min level is kWarning; call SetMinLogLevel(kInfo) to see
/// these on stderr.
void LogRuntimeSummary(std::string_view title, const std::string& summary);

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_PROFILER_H_

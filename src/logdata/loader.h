// Loader: populates the statistics database from crawled log records —
// the paper's "we populated a relational database with statistics
// extracted from forecast directories".

#ifndef FF_LOGDATA_LOADER_H_
#define FF_LOGDATA_LOADER_H_

#include <vector>

#include "logdata/log_record.h"
#include "statsdb/database.h"

namespace ff {
namespace logdata {

/// Name and schema of the runs table.
inline constexpr char kRunsTable[] = "runs";

/// Schema: forecast TEXT, region TEXT, day INT, node TEXT,
/// code_version TEXT, mesh_sides INT, timesteps INT, start_time DOUBLE,
/// end_time DOUBLE, walltime DOUBLE, status TEXT. Incomplete runs carry
/// NULL end_time/walltime.
statsdb::Schema RunsSchema();

/// Creates (or replaces) the runs table from `records` and indexes the
/// columns the paper queries by (forecast, code_version, node).
util::StatusOr<statsdb::Table*> LoadRuns(
    statsdb::Database* db, const std::vector<LogRecord>& records);

/// Appends `record` to the row `app` is building as the RunsSchema()
/// cells, in order, after any cells the caller put first (the sweep's
/// `replica`), and ends the row. The one writer of LogRecord cells for
/// bulk loads, shared by LoadRuns and parallel::LoadSweepRuns.
util::Status AppendRunCells(statsdb::Table::BulkAppender& app,
                            const LogRecord& record);

/// Appends one record to an existing runs table (incremental refresh, the
/// paper's "insert commands into the run scripts to update the database").
util::Status AppendRun(statsdb::Table* table, const LogRecord& record);

/// Inserts or replaces the (forecast, day) row — launch inserts a
/// status='running' row with NULL completion stats; completion patches
/// the same row in place, the paper's fix for "a currently executing
/// forecast will have incomplete statistics in the database".
util::Status UpsertRun(statsdb::Table* table, const LogRecord& record);

/// Converts a statsdb row back to a LogRecord (inverse of AppendRun).
util::StatusOr<LogRecord> RowToRecord(const statsdb::Schema& schema,
                                      const statsdb::Row& row);

}  // namespace logdata
}  // namespace ff

#endif  // FF_LOGDATA_LOADER_H_

#include "logdata/loader.h"

namespace ff {
namespace logdata {

using statsdb::Column;
using statsdb::DataType;
using statsdb::Row;
using statsdb::Schema;
using statsdb::Table;
using statsdb::Value;

Schema RunsSchema() {
  return Schema({
      {"forecast", DataType::kString},
      {"region", DataType::kString},
      {"day", DataType::kInt64},
      {"node", DataType::kString},
      {"code_version", DataType::kString},
      {"mesh_sides", DataType::kInt64},
      {"timesteps", DataType::kInt64},
      {"start_time", DataType::kDouble},
      {"end_time", DataType::kDouble},
      {"walltime", DataType::kDouble},
      {"status", DataType::kString},
  });
}

namespace {

Row RecordToRow(const LogRecord& r) {
  bool finished = r.status == RunStatus::kCompleted;
  return Row{
      Value::String(r.forecast),
      Value::String(r.region),
      Value::Int64(r.day),
      Value::String(r.node),
      Value::String(r.code_version),
      Value::Int64(r.mesh_sides),
      Value::Int64(r.timesteps),
      Value::Double(r.start_time),
      finished ? Value::Double(r.end_time) : Value::Null(),
      finished ? Value::Double(r.walltime) : Value::Null(),
      Value::String(RunStatusName(r.status)),
  };
}

}  // namespace

util::StatusOr<Table*> LoadRuns(statsdb::Database* db,
                                const std::vector<LogRecord>& records) {
  if (db->HasTable(kRunsTable)) {
    FF_RETURN_IF_ERROR(db->DropTable(kRunsTable));
  }
  FF_ASSIGN_OR_RETURN(Table * table, db->CreateTable(kRunsTable,
                                                     RunsSchema()));
  // Bulk columnar append: cells go straight into the typed column
  // vectors, skipping per-row Row construction and validation.
  Table::BulkAppender app(table);
  app.Reserve(records.size());
  for (const auto& r : records) FF_RETURN_IF_ERROR(AppendRunCells(app, r));
  FF_RETURN_IF_ERROR(app.Finish());
  FF_RETURN_IF_ERROR(table->CreateIndex("forecast"));
  FF_RETURN_IF_ERROR(table->CreateIndex("code_version"));
  FF_RETURN_IF_ERROR(table->CreateIndex("node"));
  return table;
}

util::Status AppendRunCells(Table::BulkAppender& app, const LogRecord& r) {
  bool finished = r.status == RunStatus::kCompleted;
  app.String(r.forecast)
      .String(r.region)
      .Int64(r.day)
      .String(r.node)
      .String(r.code_version)
      .Int64(r.mesh_sides)
      .Int64(r.timesteps)
      .Double(r.start_time);
  if (finished) {
    app.Double(r.end_time).Double(r.walltime);
  } else {
    app.Null().Null();
  }
  app.String(RunStatusName(r.status));
  return app.EndRow();
}

util::Status AppendRun(Table* table, const LogRecord& record) {
  return table->Insert(RecordToRow(record));
}

util::Status UpsertRun(Table* table, const LogRecord& record) {
  FF_ASSIGN_OR_RETURN(
      std::vector<size_t> candidates,
      table->Lookup("forecast", Value::String(record.forecast)));
  FF_ASSIGN_OR_RETURN(size_t day_col, table->schema().IndexOf("day"));
  Row replacement = RecordToRow(record);
  const statsdb::ColumnStore& store = table->store();
  for (size_t i : candidates) {
    Value day = store.GetValue(i, day_col);
    if (!day.is_null() && day.int64_value() == record.day) {
      std::vector<size_t> cols(replacement.size());
      for (size_t c = 0; c < cols.size(); ++c) cols[c] = c;
      return table->UpdateCells({i}, cols, std::move(replacement));
    }
  }
  return table->Insert(std::move(replacement));
}

util::StatusOr<LogRecord> RowToRecord(const Schema& schema, const Row& row) {
  LogRecord r;
  auto get = [&](const char* name) -> util::StatusOr<Value> {
    FF_ASSIGN_OR_RETURN(size_t i, schema.IndexOf(name));
    return row[i];
  };
  FF_ASSIGN_OR_RETURN(Value v, get("forecast"));
  r.forecast = v.string_value();
  FF_ASSIGN_OR_RETURN(v, get("region"));
  r.region = v.is_null() ? "" : v.string_value();
  FF_ASSIGN_OR_RETURN(v, get("day"));
  r.day = v.int64_value();
  FF_ASSIGN_OR_RETURN(v, get("node"));
  r.node = v.is_null() ? "" : v.string_value();
  FF_ASSIGN_OR_RETURN(v, get("code_version"));
  r.code_version = v.is_null() ? "" : v.string_value();
  FF_ASSIGN_OR_RETURN(v, get("mesh_sides"));
  r.mesh_sides = v.is_null() ? 0 : v.int64_value();
  FF_ASSIGN_OR_RETURN(v, get("timesteps"));
  r.timesteps = v.is_null() ? 0 : v.int64_value();
  FF_ASSIGN_OR_RETURN(v, get("start_time"));
  r.start_time = v.is_null() ? 0.0 : v.double_value();
  FF_ASSIGN_OR_RETURN(v, get("end_time"));
  r.end_time = v.is_null() ? 0.0 : v.double_value();
  FF_ASSIGN_OR_RETURN(v, get("walltime"));
  r.walltime = v.is_null() ? 0.0 : v.double_value();
  FF_ASSIGN_OR_RETURN(v, get("status"));
  if (!v.is_null()) {
    const std::string& s = v.string_value();
    if (s == "completed") r.status = RunStatus::kCompleted;
    else if (s == "running") r.status = RunStatus::kRunning;
    else if (s == "dropped") r.status = RunStatus::kDropped;
    else if (s == "failed") r.status = RunStatus::kFailed;
  }
  return r;
}

}  // namespace logdata
}  // namespace ff

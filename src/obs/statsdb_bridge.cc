#include "obs/statsdb_bridge.h"

#include <utility>

namespace ff {
namespace obs {

namespace {

using statsdb::Column;
using statsdb::DataType;
using statsdb::Row;
using statsdb::Schema;
using statsdb::Table;
using statsdb::Value;

util::StatusOr<Table*> FreshTable(statsdb::Database* db,
                                  const std::string& name, Schema schema) {
  if (db->HasTable(name)) {
    FF_RETURN_IF_ERROR(db->DropTable(name));
  }
  return db->CreateTable(name, std::move(schema));
}

}  // namespace

util::StatusOr<Table*> LoadSpans(const TraceRecorder& trace,
                                 statsdb::Database* db,
                                 const std::string& table_name) {
  FF_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Create({Column{"span_id", DataType::kInt64},
                      Column{"parent_id", DataType::kInt64},
                      Column{"category", DataType::kString},
                      Column{"name", DataType::kString},
                      Column{"track", DataType::kString},
                      Column{"start_s", DataType::kDouble},
                      Column{"end_s", DataType::kDouble},
                      Column{"duration_s", DataType::kDouble}}));
  FF_ASSIGN_OR_RETURN(Table * table,
                      FreshTable(db, table_name, std::move(schema)));
  Table::BulkAppender app(table);
  app.Reserve(trace.spans().size());
  for (size_t i = 0; i < trace.spans().size(); ++i) {
    const SpanRecord& s = trace.spans()[i];
    double end = s.end < 0.0 ? s.start : s.end;
    app.Int64(static_cast<int64_t>(i + 1))
        .Int64(static_cast<int64_t>(s.parent))
        .String(SpanCategoryName(s.category))
        .String(trace.str(s.name))
        .String(trace.str(s.track))
        .Double(s.start)
        .Double(end)
        .Double(end - s.start);
    FF_RETURN_IF_ERROR(app.EndRow());
  }
  FF_RETURN_IF_ERROR(app.Finish());
  FF_RETURN_IF_ERROR(table->CreateIndex("category"));
  return table;
}

util::StatusOr<Table*> LoadInstants(const TraceRecorder& trace,
                                    statsdb::Database* db,
                                    const std::string& table_name) {
  FF_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Create({Column{"time_s", DataType::kDouble},
                      Column{"category", DataType::kString},
                      Column{"name", DataType::kString},
                      Column{"track", DataType::kString}}));
  FF_ASSIGN_OR_RETURN(Table * table,
                      FreshTable(db, table_name, std::move(schema)));
  Table::BulkAppender app(table);
  app.Reserve(trace.instants().size());
  for (const auto& ev : trace.instants()) {
    app.Double(ev.time)
        .String(SpanCategoryName(ev.category))
        .String(trace.str(ev.name))
        .String(trace.str(ev.track));
    FF_RETURN_IF_ERROR(app.EndRow());
  }
  FF_RETURN_IF_ERROR(app.Finish());
  return table;
}

util::StatusOr<Table*> LoadMetricSamples(const MetricsRegistry& metrics,
                                         statsdb::Database* db,
                                         const std::string& table_name) {
  FF_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Create({Column{"time_s", DataType::kDouble},
                      Column{"metric", DataType::kString},
                      Column{"value", DataType::kDouble}}));
  FF_ASSIGN_OR_RETURN(Table * table,
                      FreshTable(db, table_name, std::move(schema)));
  Table::BulkAppender app(table);
  app.Reserve(metrics.samples().size());
  for (const auto& s : metrics.samples()) {
    app.Double(s.time)
        .String(metrics.metric_name(s.metric))
        .Double(s.value);
    FF_RETURN_IF_ERROR(app.EndRow());
  }
  FF_RETURN_IF_ERROR(app.Finish());
  FF_RETURN_IF_ERROR(table->CreateIndex("metric"));
  return table;
}

}  // namespace obs
}  // namespace ff

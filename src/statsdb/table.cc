#include "statsdb/table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

#include <atomic>

namespace ff {
namespace statsdb {

namespace {

/// One process-wide counter feeds every table's epochs so a value is
/// never reused, even across drop/recreate of the same table name.
uint64_t NextGlobalEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      epoch_(NextGlobalEpoch()),
      ddl_epoch_(NextGlobalEpoch()),
      store_(&schema_) {}

void Table::BumpEpoch() { epoch_ = NextGlobalEpoch(); }

Row Table::row(size_t i) const {
  Row row;
  row.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    row.push_back(store_.GetValue(i, c));
  }
  return row;
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  out.reserve(num_rows());
  for (size_t i = 0; i < num_rows(); ++i) out.push_back(row(i));
  return out;
}

util::Status Table::Insert(Row row) {
  FF_RETURN_IF_ERROR(ValidateRow(schema_, row).WithContext(name_));
  // Widen int64 values stored into double columns so the storage type is
  // uniform per column.
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && schema_.column(i).type == DataType::kDouble &&
        row[i].type() == DataType::kInt64) {
      row[i] = Value::Double(static_cast<double>(row[i].int64_value()));
    }
  }
  size_t row_index = store_.num_rows();
  for (auto& [col, index] : indexes_) {
    index[row[col]].push_back(row_index);
  }
  store_.Append(row);
  BumpEpoch();
  return util::Status::OK();
}

util::StatusOr<Value> Table::CoerceCell(size_t col_index, Value v) const {
  if (v.is_null()) return v;
  DataType want = schema_.column(col_index).type;
  if (v.type() == DataType::kInt64 && want == DataType::kDouble) {
    return Value::Double(static_cast<double>(v.int64_value()));
  }
  if (v.type() != want) {
    return util::Status::InvalidArgument(
        std::string("type mismatch updating column ") +
        schema_.column(col_index).name);
  }
  return v;
}

util::Status Table::UpdateCells(const std::vector<size_t>& rows,
                                const std::vector<size_t>& cols,
                                std::vector<Value> values) {
  FF_CHECK(values.size() == rows.size() * cols.size());
  if (values.empty()) return util::Status::OK();
  for (size_t row : rows) {
    if (row >= store_.num_rows()) {
      return util::Status::OutOfRange("row index " + std::to_string(row));
    }
  }
  for (size_t col : cols) {
    if (col >= schema_.num_columns()) {
      return util::Status::OutOfRange("column index " + std::to_string(col));
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    FF_ASSIGN_OR_RETURN(values[i],
                        CoerceCell(cols[i % cols.size()], std::move(values[i])));
  }
  // Indexed target columns, each once (a statement may assign a column
  // twice; the last assignment wins).
  std::map<size_t, HashIndex*> touched;
  for (size_t col : cols) {
    auto it = indexes_.find(col);
    if (it != indexes_.end()) touched.emplace(col, &it->second);
  }
  for (auto& [col, index] : touched) {
    for (size_t row : rows) {
      auto& bucket = (*index)[store_.GetValue(row, col)];
      bucket.erase(std::remove(bucket.begin(), bucket.end(), row),
                   bucket.end());
    }
  }
  store_.Update(rows, cols, values);
  for (auto& [col, index] : touched) {
    for (size_t row : rows) (*index)[store_.GetValue(row, col)].push_back(row);
  }
  BumpEpoch();
  return util::Status::OK();
}

util::Status Table::UpdateCell(size_t row_index, size_t col_index, Value v) {
  std::vector<Value> values;
  values.push_back(std::move(v));
  return UpdateCells({row_index}, {col_index}, std::move(values));
}

util::Status Table::DeleteRows(std::vector<size_t> row_indices) {
  std::sort(row_indices.begin(), row_indices.end());
  row_indices.erase(
      std::unique(row_indices.begin(), row_indices.end()),
      row_indices.end());
  if (!row_indices.empty() && row_indices.back() >= store_.num_rows()) {
    return util::Status::OutOfRange(
        "row index " + std::to_string(row_indices.back()));
  }
  if (row_indices.empty()) return util::Status::OK();
  store_.EraseRows(row_indices);
  RebuildIndexes();
  BumpEpoch();
  return util::Status::OK();
}

void Table::RebuildIndexes() {
  for (auto& [col, index] : indexes_) {
    index.clear();
    for (size_t i = 0; i < store_.num_rows(); ++i) {
      index[store_.GetValue(i, col)].push_back(i);
    }
  }
}

util::Status Table::CreateIndex(const std::string& column) {
  FF_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  if (indexes_.count(col)) return util::Status::OK();
  HashIndex index;
  for (size_t i = 0; i < store_.num_rows(); ++i) {
    index[store_.GetValue(i, col)].push_back(i);
  }
  indexes_.emplace(col, std::move(index));
  ddl_epoch_ = NextGlobalEpoch();
  return util::Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  auto col = schema_.IndexOf(column);
  return col.ok() && indexes_.count(*col) > 0;
}

util::StatusOr<std::vector<size_t>> Table::Lookup(const std::string& column,
                                                  const Value& v) const {
  FF_ASSIGN_OR_RETURN(size_t col, schema_.IndexOf(column));
  auto idx_it = indexes_.find(col);
  if (idx_it != indexes_.end()) {
    auto bucket = idx_it->second.find(v);
    if (bucket == idx_it->second.end()) return std::vector<size_t>{};
    std::vector<size_t> sorted = bucket->second;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < store_.num_rows(); ++i) {
    if (store_.GetValue(i, col).Compare(v) == 0) out.push_back(i);
  }
  return out;
}

// ------------------------------------------------------------ BulkAppender

Table::BulkAppender::BulkAppender(Table* table)
    : table_(table), first_row_(table->store_.num_rows()) {}

Table::BulkAppender::~BulkAppender() {
  if (!finished_) Finish().ok();
}

Table::BulkAppender& Table::BulkAppender::Null() {
  if (!error_.ok()) return *this;
  if (col_ >= table_->schema_.num_columns()) {
    error_ = util::Status::InvalidArgument("row wider than schema");
    return *this;
  }
  table_->store_.AppendNull(col_++);
  return *this;
}

Table::BulkAppender& Table::BulkAppender::Cell(const Value& v) {
  if (!error_.ok()) return *this;
  if (v.is_null()) return Null();
  switch (v.type()) {
    case DataType::kBool:
      return Bool(v.bool_value());
    case DataType::kInt64:
      return Int64(v.int64_value());
    case DataType::kDouble:
      return Double(v.double_value());
    case DataType::kString:
      return String(v.string_value());
    case DataType::kNull:
      return Null();
  }
  return *this;
}

#define FF_BULK_CHECK_(want_ok)                                           \
  if (!error_.ok()) return *this;                                         \
  if (col_ >= table_->schema_.num_columns()) {                            \
    error_ = util::Status::InvalidArgument("row wider than schema");      \
    return *this;                                                         \
  }                                                                       \
  DataType want = table_->schema_.column(col_).type;                      \
  if (!(want_ok)) {                                                       \
    error_ = util::Status::InvalidArgument(                               \
        "type mismatch appending column " +                               \
        table_->schema_.column(col_).name);                               \
    return *this;                                                         \
  }

Table::BulkAppender& Table::BulkAppender::Bool(bool v) {
  FF_BULK_CHECK_(want == DataType::kBool);
  table_->store_.AppendBool(col_++, v);
  return *this;
}

Table::BulkAppender& Table::BulkAppender::Int64(int64_t v) {
  FF_BULK_CHECK_(want == DataType::kInt64 || want == DataType::kDouble);
  table_->store_.AppendInt64(col_++, v);  // widens into double columns
  return *this;
}

Table::BulkAppender& Table::BulkAppender::Double(double v) {
  FF_BULK_CHECK_(want == DataType::kDouble);
  table_->store_.AppendDouble(col_++, v);
  return *this;
}

Table::BulkAppender& Table::BulkAppender::String(std::string_view v) {
  FF_BULK_CHECK_(want == DataType::kString);
  table_->store_.AppendString(col_++, v);
  return *this;
}

#undef FF_BULK_CHECK_

util::Status Table::BulkAppender::EndRow() {
  if (!error_.ok()) return error_;
  if (col_ != table_->schema_.num_columns()) {
    error_ = util::Status::InvalidArgument(util::StrFormat(
        "row width %zu != schema width %zu", col_,
        table_->schema_.num_columns()));
    return error_;
  }
  table_->store_.EndRow();
  // Bump per committed row, not in Finish(): rows are scan-visible as
  // soon as EndRow returns, so the epoch must already reflect them.
  table_->BumpEpoch();
  col_ = 0;
  return util::Status::OK();
}

util::Status Table::BulkAppender::Finish() {
  if (finished_) return error_;
  finished_ = true;
  if (!error_.ok()) return error_;
  if (col_ != 0) {
    error_ = util::Status::InvalidArgument("Finish() mid-row");
    return error_;
  }
  for (auto& [col, index] : table_->indexes_) {
    for (size_t i = first_row_; i < table_->store_.num_rows(); ++i) {
      index[table_->store_.GetValue(i, col)].push_back(i);
    }
  }
  return util::Status::OK();
}

}  // namespace statsdb
}  // namespace ff

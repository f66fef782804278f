// Columnar table with optional hash indexes. Storage is column-oriented
// (see column_store.h): contiguous typed vectors, dictionary-encoded
// strings, packed null bitmaps, and per-chunk zone maps — the paper's
// run-statistics workload is scan/aggregate-heavy, and at fleet scale
// (thousands of runs x per-task spans) row-at-a-time scans became the
// bottleneck. The row-view accessors (`rows()`, `row(i)`) build values
// from the columns on each call; nothing is cached beside the columns.

#ifndef FF_STATSDB_TABLE_H_
#define FF_STATSDB_TABLE_H_

#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "statsdb/column_store.h"
#include "statsdb/schema.h"

namespace ff {
namespace statsdb {

/// A named table: schema + columnar storage + optional hash indexes.
class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return store_.num_rows(); }

  /// Data epoch: advances on every mutation (Insert, UpdateCells,
  /// DeleteRows, each BulkAppender::EndRow). Values are drawn from one
  /// process-wide monotonic counter, so an epoch is never reused — even
  /// across dropping and recreating a table of the same name — which is
  /// what lets the result cache (cache.h) key on (table, epoch) without
  /// an explicit invalidation hook.
  uint64_t epoch() const { return epoch_; }

  /// Structure epoch: advances when planning-relevant structure changes
  /// (currently CreateIndex). Plan-cache entries key on this; data
  /// writes do not disturb cached plans.
  uint64_t ddl_epoch() const { return ddl_epoch_; }

  /// Row views, built from the column store on each call (a copy; the
  /// table itself is not touched).
  std::vector<Row> rows() const;
  Row row(size_t i) const;

  /// The columnar storage; zone maps and null bitmaps are always
  /// current.
  const ColumnStore& store() const { return store_; }

  /// Validates, widens int64 into double columns, appends, maintains
  /// indexes.
  util::Status Insert(Row row);

  /// `v` as column `col_index` stores it: int64 widened into a double
  /// column; InvalidArgument when the type does not fit.
  util::StatusOr<Value> CoerceCell(size_t col_index, Value v) const;

  /// Writes values[r * cols.size() + a] into cell (rows[r], cols[a])
  /// for distinct `rows`: UPDATE's set-oriented write. Every index and
  /// value is checked (OutOfRange, CoerceCell) before the first write,
  /// so a failing call changes nothing. Maintains indexes and
  /// recomputes each touched chunk's zone maps once.
  util::Status UpdateCells(const std::vector<size_t>& rows,
                           const std::vector<size_t>& cols,
                           std::vector<Value> values);
  /// One-cell UpdateCells.
  util::Status UpdateCell(size_t row_index, size_t col_index, Value v);

  /// Deletes the given rows (indices into rows(), any order, duplicates
  /// ignored); remaining rows keep their relative order. The columns are
  /// compacted and indexes rebuilt. OutOfRange when an index is invalid.
  util::Status DeleteRows(std::vector<size_t> row_indices);

  /// Builds a hash index on `column`; idempotent. NotFound for unknown
  /// columns.
  util::Status CreateIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;

  /// Row indices where `column` == `v` (uses index when present, else
  /// scans the column). NotFound for unknown columns.
  util::StatusOr<std::vector<size_t>> Lookup(const std::string& column,
                                             const Value& v) const;

  /// Bulk columnar ingest: cells are appended directly into the typed
  /// column vectors in schema order, skipping per-row Row/Value
  /// construction. Indexes are updated once in Finish().
  ///
  ///   Table::BulkAppender app(table);
  ///   for (...) {
  ///     app.String(r.forecast).Int64(r.day).Double(r.walltime);
  ///     FF_RETURN_IF_ERROR(app.EndRow());
  ///   }
  ///   FF_RETURN_IF_ERROR(app.Finish());
  class BulkAppender {
   public:
    explicit BulkAppender(Table* table);
    ~BulkAppender();  // calls Finish() if the caller did not

    BulkAppender& Null();
    BulkAppender& Bool(bool v);
    BulkAppender& Int64(int64_t v);
    BulkAppender& Double(double v);
    BulkAppender& String(std::string_view v);
    /// Generic cell append (validates + widens like Insert).
    BulkAppender& Cell(const Value& v);

    /// Commits the current row; InvalidArgument on width/type mismatch
    /// (the offending cells were recorded before the error surfaced, so
    /// the append stops being usable — callers should abort the load).
    util::Status EndRow();

    /// Updates indexes for all appended rows. Idempotent.
    util::Status Finish();

    void Reserve(size_t rows) { table_->store_.Reserve(rows); }

   private:
    Table* table_;
    size_t col_ = 0;
    size_t first_row_;
    util::Status error_ = util::Status::OK();
    bool finished_ = false;
  };

 private:
  friend class BulkAppender;

  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) == 0;
    }
  };
  using HashIndex =
      std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq>;

  void RebuildIndexes();
  void BumpEpoch();

  std::string name_;
  Schema schema_;
  uint64_t epoch_;
  uint64_t ddl_epoch_;
  ColumnStore store_;
  std::map<size_t, HashIndex> indexes_;  // column index -> hash index
};

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_TABLE_H_

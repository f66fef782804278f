// Columnar storage for statsdb tables: each column lives in a contiguous
// typed vector (strings are dictionary-encoded as uint32 codes) with a
// packed null bitmap. Logical chunks of kChunkRows rows carry zone maps
// (min/max value, null count) that let scans skip chunks a predicate can
// never match. This is Table's only storage; its row-view accessors
// build rows from it on each call.

#ifndef FF_STATSDB_COLUMN_STORE_H_
#define FF_STATSDB_COLUMN_STORE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "statsdb/schema.h"

namespace ff {
namespace statsdb {

/// Rows per logical chunk (one zone map per column per chunk).
inline constexpr size_t kChunkRows = 4096;

/// Append-only interning dictionary for one string column. Codes are
/// assigned in first-seen order and stay stable until a delete: cell
/// updates may leave entries no cell uses, while deletes (EraseRows)
/// rebuild the dictionary from the surviving cells, so codes may change.
/// Codes present in the column always resolve.
class Dictionary {
 public:
  /// Returns the code for `s`, interning it when new.
  uint32_t Intern(std::string_view s);
  /// Code for `s` when already interned.
  std::optional<uint32_t> Find(std::string_view s) const;
  const std::string& at(uint32_t code) const { return strings_[code]; }
  size_t size() const { return strings_.size(); }

 private:
  std::deque<std::string> strings_;  // deque: stable references
  std::unordered_map<std::string_view, uint32_t> map_;
};

/// Per-chunk, per-column statistics. min/max ignore NULLs; when
/// null_count == row span the chunk holds no values for this column.
struct ZoneMap {
  Value min_v;
  Value max_v;
  size_t null_count = 0;
  bool dirty = false;  // set by point updates; recomputed before scans
};

/// The typed column vectors of one table. Row order matches the logical
/// table order; all columns have equal length.
class ColumnStore {
 public:
  struct ColumnData {
    DataType type = DataType::kNull;
    std::vector<uint8_t> bools;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<uint32_t> codes;  // indexes into dict
    Dictionary dict;
    std::vector<uint64_t> null_words;  // packed bitmap, bit set => NULL
    std::vector<ZoneMap> zones;        // one per chunk
    std::vector<size_t> dirty_chunks;  // chunks whose zone is dirty
    size_t null_count = 0;

    bool IsNull(size_t row) const {
      // null_words grows on demand; rows past its end are non-null.
      size_t w = row >> 6;
      return w < null_words.size() && ((null_words[w] >> (row & 63)) & 1);
    }
  };

  explicit ColumnStore(const Schema* schema);

  size_t num_rows() const { return num_rows_; }
  size_t num_chunks() const {
    return (num_rows_ + kChunkRows - 1) / kChunkRows;
  }
  const ColumnData& column(size_t i) const { return cols_[i]; }

  /// Appends one validated, widened row (row width == schema width).
  void Append(const Row& row);

  /// Typed appends for the bulk ingest path; callers emit one full row of
  /// cells in schema order. The caller is responsible for type agreement
  /// (checked with FF_DCHECK); int64 cells widen into double columns.
  void AppendCell(size_t col, const Value& v);
  void AppendNull(size_t col);
  void AppendInt64(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  void AppendBool(size_t col, bool v);
  void AppendString(size_t col, std::string_view v);
  /// Commits the row appended cell-by-cell (FF_DCHECKs column lengths).
  void EndRow();

  /// Point update; marks the containing chunk's zone maps dirty.
  void Set(size_t row, size_t col, const Value& v);

  /// Value view of one cell (strings decoded through the dictionary).
  Value GetValue(size_t row, size_t col) const;

  /// Recomputes any zone maps invalidated by Set().
  void EnsureZones() const;
  /// Prepares the store for zero-copy scans: refreshes zone maps and pads
  /// each nullable column's bitmap to cover every row, so chunk views may
  /// slice `null_words` at any word offset.
  void EnsureScanReady() const;
  /// Zone map for (chunk, col); caller must EnsureZones() first.
  const ZoneMap& zone(size_t chunk, size_t col) const {
    return cols_[col].zones[chunk];
  }

  /// Removes `rows` (ascending, distinct, each < num_rows()), keeping
  /// the others in order. Columns, zone maps and dictionaries are
  /// rebuilt from the surviving cells, so codes may change.
  void EraseRows(const std::vector<size_t>& rows);

  void Reserve(size_t rows);

 private:
  void AppendToZone(size_t col, const Value& v);
  void SetNullBit(ColumnData* c, size_t row);
  /// The zone map of rows [lo, hi) of `c`, from its typed cells.
  ZoneMap ComputeZone(const ColumnData& c, size_t lo, size_t hi) const;

  const Schema* schema_;  // owned by the Table
  std::vector<ColumnData> cols_;
  size_t num_rows_ = 0;
  mutable bool zones_dirty_ = false;
};

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_COLUMN_STORE_H_

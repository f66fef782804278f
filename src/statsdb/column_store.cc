#include "statsdb/column_store.h"

#include <algorithm>

#include "util/logging.h"

namespace ff {
namespace statsdb {

uint32_t Dictionary::Intern(std::string_view s) {
  auto it = map_.find(s);
  if (it != map_.end()) return it->second;
  uint32_t code = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  map_.emplace(std::string_view(strings_.back()), code);
  return code;
}

std::optional<uint32_t> Dictionary::Find(std::string_view s) const {
  auto it = map_.find(s);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

ColumnStore::ColumnStore(const Schema* schema) : schema_(schema) {
  cols_.resize(schema_->num_columns());
  for (size_t i = 0; i < cols_.size(); ++i) {
    cols_[i].type = schema_->column(i).type;
  }
}

void ColumnStore::Reserve(size_t rows) {
  for (auto& c : cols_) {
    switch (c.type) {
      case DataType::kBool:
        c.bools.reserve(rows);
        break;
      case DataType::kInt64:
        c.ints.reserve(rows);
        break;
      case DataType::kDouble:
        c.doubles.reserve(rows);
        break;
      case DataType::kString:
        c.codes.reserve(rows);
        break;
      case DataType::kNull:
        break;
    }
    c.null_words.reserve((rows >> 6) + 1);
  }
}

namespace {

// Bookkeeping for appending row `row` of `c`: extends the null bitmap,
// which covers every row from append time on, and returns the zone map
// of the row's chunk.
ZoneMap& AppendSlot(ColumnStore::ColumnData* c, size_t row) {
  if ((row >> 6) >= c->null_words.size()) c->null_words.push_back(0);
  size_t chunk = row / kChunkRows;
  if (chunk >= c->zones.size()) c->zones.resize(chunk + 1);
  return c->zones[chunk];
}

void SetNullBit(ColumnStore::ColumnData* c, size_t row) {
  c->null_words[row >> 6] |= uint64_t{1} << (row & 63);
  ++c->null_count;
}

}  // namespace

void ColumnStore::AppendNull(size_t col) {
  ColumnData& c = cols_[col];
  size_t row = c.size();
  ++AppendSlot(&c, row).null_count;
  SetNullBit(&c, row);
  switch (c.type) {
    case DataType::kBool:
      c.bools.push_back(0);
      break;
    case DataType::kInt64:
      c.ints.push_back(0);
      break;
    case DataType::kDouble:
      c.doubles.push_back(0.0);
      break;
    case DataType::kString:
      c.codes.push_back(0);
      break;
    case DataType::kNull:
      break;
  }
}

void ColumnStore::AppendInt64(size_t col, int64_t v) {
  ColumnData& c = cols_[col];
  if (c.type == DataType::kDouble) {
    AppendDouble(col, static_cast<double>(v));
    return;
  }
  FF_DCHECK(c.type == DataType::kInt64);
  ZoneMap& z = AppendSlot(&c, c.ints.size());
  c.ints.push_back(v);
  if (z.min_v.is_null() || v < z.min_v.int64_value()) {
    z.min_v = Value::Int64(v);
  }
  if (z.max_v.is_null() || v > z.max_v.int64_value()) {
    z.max_v = Value::Int64(v);
  }
}

void ColumnStore::AppendDouble(size_t col, double v) {
  ColumnData& c = cols_[col];
  FF_DCHECK(c.type == DataType::kDouble);
  ZoneMap& z = AppendSlot(&c, c.doubles.size());
  c.doubles.push_back(v);
  if (z.min_v.is_null() || v < z.min_v.double_value()) {
    z.min_v = Value::Double(v);
  }
  if (z.max_v.is_null() || v > z.max_v.double_value()) {
    z.max_v = Value::Double(v);
  }
}

void ColumnStore::AppendBool(size_t col, bool v) {
  ColumnData& c = cols_[col];
  FF_DCHECK(c.type == DataType::kBool);
  ZoneMap& z = AppendSlot(&c, c.bools.size());
  c.bools.push_back(v ? 1 : 0);
  Value vv = Value::Bool(v);
  if (z.min_v.is_null() || vv.Compare(z.min_v) < 0) z.min_v = vv;
  if (z.max_v.is_null() || vv.Compare(z.max_v) > 0) z.max_v = vv;
}

void ColumnStore::AppendString(size_t col, std::string_view v) {
  ColumnData& c = cols_[col];
  FF_DCHECK(c.type == DataType::kString);
  ZoneMap& z = AppendSlot(&c, c.codes.size());
  c.codes.push_back(c.dict.Intern(v));
  if (z.min_v.is_null() || v < z.min_v.string_value()) {
    z.min_v = Value::String(std::string(v));
  }
  if (z.max_v.is_null() || v > z.max_v.string_value()) {
    z.max_v = Value::String(std::string(v));
  }
}

void ColumnStore::AppendCell(size_t col, const Value& v) {
  if (v.is_null()) {
    AppendNull(col);
    return;
  }
  switch (v.type()) {
    case DataType::kBool:
      AppendBool(col, v.bool_value());
      break;
    case DataType::kInt64:
      AppendInt64(col, v.int64_value());
      break;
    case DataType::kDouble:
      AppendDouble(col, v.double_value());
      break;
    case DataType::kString:
      AppendString(col, v.string_value());
      break;
    case DataType::kNull:
      AppendNull(col);
      break;
  }
}

void ColumnStore::EndRow() {
  ++num_rows_;
#ifndef NDEBUG
  for (const auto& c : cols_) {
    FF_DCHECK(c.size() == num_rows_) << "ragged bulk append";
  }
#endif
}

void ColumnStore::Append(const Row& row) {
  FF_DCHECK(row.size() == cols_.size());
  for (size_t i = 0; i < row.size(); ++i) AppendCell(i, row[i]);
  ++num_rows_;
}

void ColumnStore::SetCell(size_t row, size_t col, const Value& v) {
  ColumnData& c = cols_[col];
  bool was_null = c.IsNull(row);
  if (was_null && !v.is_null()) {
    c.null_words[row >> 6] &= ~(uint64_t{1} << (row & 63));
    --c.null_count;
  } else if (!was_null && v.is_null()) {
    SetNullBit(&c, row);
  }
  switch (c.type) {
    case DataType::kBool:
      c.bools[row] = !v.is_null() && v.bool_value() ? 1 : 0;
      break;
    case DataType::kInt64:
      c.ints[row] = v.is_null() ? 0 : v.int64_value();
      break;
    case DataType::kDouble:
      c.doubles[row] = v.is_null() ? 0.0 : v.double_value();
      break;
    case DataType::kString:
      c.codes[row] = v.is_null() ? 0 : c.dict.Intern(v.string_value());
      break;
    case DataType::kNull:
      break;
  }
}

void ColumnStore::Update(const std::vector<size_t>& rows,
                         const std::vector<size_t>& cols,
                         const std::vector<Value>& values) {
  const size_t width = cols.size();
  FF_DCHECK(values.size() == rows.size() * width);
  std::vector<size_t> chunks;
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t a = 0; a < width; ++a) {
      SetCell(rows[r], cols[a], values[r * width + a]);
    }
    chunks.push_back(rows[r] / kChunkRows);
  }
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  for (size_t col : cols) {
    ColumnData& c = cols_[col];
    for (size_t chunk : chunks) {
      size_t lo = chunk * kChunkRows;
      c.zones[chunk] = ComputeZone(c, lo, std::min(lo + kChunkRows, num_rows_));
    }
  }
}

Value ColumnStore::GetValue(size_t row, size_t col) const {
  const ColumnData& c = cols_[col];
  if (c.null_count > 0 && c.IsNull(row)) return Value::Null();
  switch (c.type) {
    case DataType::kBool:
      return Value::Bool(c.bools[row] != 0);
    case DataType::kInt64:
      return Value::Int64(c.ints[row]);
    case DataType::kDouble:
      return Value::Double(c.doubles[row]);
    case DataType::kString:
      return Value::String(c.dict.at(c.codes[row]));
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

namespace {

// Folds one non-null value into [*lo, *hi] the way Value::Compare orders
// them: a value replaces the min when it compares below it and the max
// when it compares above it (for doubles, anything neither equal to nor
// below the max, so a NaN becomes the max).
template <typename T>
void Widen(T v, bool* any, T* lo, T* hi) {
  if (!*any) {
    *any = true;
    *lo = v;
    *hi = v;
    return;
  }
  if (v < *lo) *lo = v;
  if (!(v == *hi) && !(v < *hi)) *hi = v;
}

}  // namespace

ZoneMap ColumnStore::ComputeZone(const ColumnData& c, size_t lo,
                                 size_t hi) const {
  ZoneMap z;
  if (c.type == DataType::kNull) {
    z.null_count = hi - lo;
    return z;
  }
  const bool nullable = c.null_count > 0;
  bool any = false;
  switch (c.type) {
    case DataType::kBool: {
      bool mn = false, mx = false;
      for (size_t r = lo; r < hi; ++r) {
        if (nullable && c.IsNull(r)) continue;
        Widen<bool>(c.bools[r] != 0, &any, &mn, &mx);
      }
      if (any) {
        z.min_v = Value::Bool(mn);
        z.max_v = Value::Bool(mx);
      }
      break;
    }
    case DataType::kInt64: {
      int64_t mn = 0, mx = 0;
      for (size_t r = lo; r < hi; ++r) {
        if (nullable && c.IsNull(r)) continue;
        Widen(c.ints[r], &any, &mn, &mx);
      }
      if (any) {
        z.min_v = Value::Int64(mn);
        z.max_v = Value::Int64(mx);
      }
      break;
    }
    case DataType::kDouble: {
      double mn = 0, mx = 0;
      for (size_t r = lo; r < hi; ++r) {
        if (nullable && c.IsNull(r)) continue;
        Widen(c.doubles[r], &any, &mn, &mx);
      }
      if (any) {
        z.min_v = Value::Double(mn);
        z.max_v = Value::Double(mx);
      }
      break;
    }
    case DataType::kString: {
      // Equal strings share one code, so only a new code can move a bound.
      uint32_t mn = 0, mx = 0;
      for (size_t r = lo; r < hi; ++r) {
        if (nullable && c.IsNull(r)) continue;
        const uint32_t code = c.codes[r];
        if (!any) {
          any = true;
          mn = mx = code;
          continue;
        }
        if (code == mn || code == mx) continue;
        if (c.dict.at(code) < c.dict.at(mn)) mn = code;
        if (c.dict.at(code) > c.dict.at(mx)) mx = code;
      }
      if (any) {
        z.min_v = Value::String(c.dict.at(mn));
        z.max_v = Value::String(c.dict.at(mx));
      }
      break;
    }
    case DataType::kNull:
      break;
  }
  if (nullable) {
    for (size_t r = lo; r < hi; ++r) z.null_count += c.IsNull(r) ? 1 : 0;
  }
  return z;
}

void ColumnStore::EraseRows(const std::vector<size_t>& rows) {
  ColumnStore kept(schema_);
  kept.Reserve(num_rows_ - rows.size());
  size_t next = 0;  // cursor into rows
  for (size_t r = 0; r < num_rows_; ++r) {
    if (next < rows.size() && rows[next] == r) {
      ++next;
      continue;
    }
    for (size_t c = 0; c < cols_.size(); ++c) {
      kept.AppendCell(c, GetValue(r, c));
    }
    kept.EndRow();
  }
  *this = std::move(kept);
}

}  // namespace statsdb
}  // namespace ff

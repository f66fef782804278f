#include "net/serialize.h"

#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>


namespace ff {
namespace net {

namespace {

using statsdb::DataType;
using statsdb::ResultSet;
using statsdb::Row;
using statsdb::Schema;
using statsdb::Value;
using util::Status;
using util::StatusOr;

size_t NullWords(size_t n) { return (n + 63) / 64; }

// Writes has_nulls + the bitmap from a per-cell predicate.
template <typename IsNullFn>
void WriteNullBitmap(size_t n, bool any_null, IsNullFn is_null,
                     WireWriter* w) {
  if (!any_null) {
    w->U8(0);
    return;
  }
  w->U8(1);
  std::vector<uint64_t> words(NullWords(n), 0);
  for (size_t i = 0; i < n; ++i) {
    if (is_null(i)) words[i >> 6] |= uint64_t{1} << (i & 63);
  }
  w->Raw(words.data(), words.size() * sizeof(uint64_t));
}

// Generic per-cell encoder for vectors without contiguous typed storage
// (broadcast constants and `vals`-mode columns). `cell` must return the
// exact Value at each index.
template <typename CellFn>
void EncodeCells(size_t n, CellFn cell, WireWriter* w) {
  bool any_null = false;
  DataType t = DataType::kNull;
  bool uniform = true;
  for (size_t i = 0; i < n; ++i) {
    Value v = cell(i);
    if (v.is_null()) {
      any_null = true;
    } else if (t == DataType::kNull) {
      t = v.type();
    } else if (v.type() != t) {
      uniform = false;
    }
  }
  if (t == DataType::kNull) {  // no non-null cells (or n == 0)
    w->U8(static_cast<uint8_t>(ColumnEncoding::kAllNull));
    WriteNullBitmap(n, n > 0, [](size_t) { return true; }, w);
    return;
  }
  if (!uniform) {
    w->U8(static_cast<uint8_t>(ColumnEncoding::kTagged));
    w->U8(0);  // nulls travel as value tags
    for (size_t i = 0; i < n; ++i) w->Value(cell(i));
    return;
  }
  auto is_null = [&](size_t i) { return cell(i).is_null(); };
  switch (t) {
    case DataType::kBool: {
      w->U8(static_cast<uint8_t>(ColumnEncoding::kBool));
      WriteNullBitmap(n, any_null, is_null, w);
      std::vector<uint8_t> bits((n + 7) / 8, 0);
      for (size_t i = 0; i < n; ++i) {
        Value v = cell(i);
        if (!v.is_null() && v.bool_value()) bits[i >> 3] |= 1u << (i & 7);
      }
      w->Raw(bits.data(), bits.size());
      break;
    }
    case DataType::kInt64: {
      w->U8(static_cast<uint8_t>(ColumnEncoding::kInt64));
      WriteNullBitmap(n, any_null, is_null, w);
      for (size_t i = 0; i < n; ++i) {
        Value v = cell(i);
        w->I64(v.is_null() ? 0 : v.int64_value());
      }
      break;
    }
    case DataType::kDouble: {
      w->U8(static_cast<uint8_t>(ColumnEncoding::kDouble));
      WriteNullBitmap(n, any_null, is_null, w);
      for (size_t i = 0; i < n; ++i) {
        Value v = cell(i);
        w->F64(v.is_null() ? 0.0 : v.double_value());
      }
      break;
    }
    case DataType::kString: {
      w->U8(static_cast<uint8_t>(ColumnEncoding::kDict));
      WriteNullBitmap(n, any_null, is_null, w);
      std::unordered_map<std::string, uint32_t> intern;
      std::vector<const std::string*> order;
      std::vector<uint32_t> local(n, 0);
      for (size_t i = 0; i < n; ++i) {
        Value v = cell(i);
        if (v.is_null()) continue;
        auto [it, inserted] = intern.try_emplace(
            v.string_value(), static_cast<uint32_t>(order.size()));
        if (inserted) order.push_back(&it->first);
        local[i] = it->second;
      }
      w->U32(static_cast<uint32_t>(order.size()));
      for (const std::string* s : order) w->Str(*s);
      w->Raw(local.data(), local.size() * sizeof(uint32_t));
      break;
    }
    case DataType::kNull:
      break;  // unreachable: t != kNull here
  }
}

}  // namespace

void EncodeSchema(const Schema& schema, WireWriter* w) {
  w->U32(static_cast<uint32_t>(schema.num_columns()));
  for (const auto& col : schema.columns()) {
    w->Str(col.name);
    w->U8(static_cast<uint8_t>(col.type));
  }
}

StatusOr<Schema> DecodeSchema(WireReader* r) {
  FF_ASSIGN_OR_RETURN(uint32_t ncols, r->U32());
  // Each column costs >= 5 bytes (u32 name length + type byte).
  if (ncols > r->remaining() / 5 + 1) {
    return Status::ParseError("schema declares more columns than frame holds");
  }
  std::vector<statsdb::Column> cols;
  cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    FF_ASSIGN_OR_RETURN(std::string name, r->Str());
    FF_ASSIGN_OR_RETURN(uint8_t type, r->U8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::ParseError("unknown column type tag " +
                                std::to_string(type));
    }
    cols.push_back({std::move(name), static_cast<DataType>(type)});
  }
  return Schema(std::move(cols));
}

void EncodeResultSet(const ResultSet& rs, WireWriter* w) {
  EncodeSchema(rs.schema, w);
  const size_t n = rs.rows.size();
  w->U64(n);
  const size_t ncols = rs.schema.num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    EncodeCells(n, [&](size_t i) -> const Value& { return rs.rows[i][c]; },
                w);
  }
}

util::Status DecodeColumn(WireReader* r, size_t n, std::vector<Value>* out) {
  FF_ASSIGN_OR_RETURN(uint8_t enc_byte, r->U8());
  if (enc_byte > static_cast<uint8_t>(ColumnEncoding::kTagged)) {
    return Status::ParseError("unknown column encoding " +
                              std::to_string(enc_byte));
  }
  auto enc = static_cast<ColumnEncoding>(enc_byte);
  FF_ASSIGN_OR_RETURN(uint8_t has_nulls, r->U8());
  if (has_nulls > 1) {
    return Status::ParseError("bad has_nulls byte");
  }
  const uint64_t* nulls = nullptr;
  std::string_view null_bytes;
  if (has_nulls == 1) {
    FF_ASSIGN_OR_RETURN(null_bytes, r->Bytes(NullWords(n) * 8));
    nulls = reinterpret_cast<const uint64_t*>(null_bytes.data());
  }
  // null_bytes may be unaligned for u64 loads; read through memcpy.
  auto is_null = [&](size_t i) {
    if (nulls == nullptr) return false;
    uint64_t word;
    std::memcpy(&word, null_bytes.data() + (i >> 6) * 8, 8);
    return ((word >> (i & 63)) & 1) != 0;
  };
  out->clear();
  switch (enc) {
    case ColumnEncoding::kAllNull:
      if (n > 0 && has_nulls == 0) {
        return Status::ParseError("all-null column without a null bitmap");
      }
      out->assign(n, Value::Null());
      return Status::OK();
    case ColumnEncoding::kBool: {
      FF_ASSIGN_OR_RETURN(std::string_view bits, r->Bytes((n + 7) / 8));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->push_back(Value::Null());
        } else {
          bool b = (static_cast<uint8_t>(bits[i >> 3]) >> (i & 7)) & 1;
          out->push_back(Value::Bool(b));
        }
      }
      return Status::OK();
    }
    case ColumnEncoding::kInt64: {
      FF_ASSIGN_OR_RETURN(std::string_view data, r->Bytes(n * 8));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->push_back(Value::Null());
        } else {
          uint64_t v;
          std::memcpy(&v, data.data() + i * 8, 8);
          out->push_back(Value::Int64(static_cast<int64_t>(v)));
        }
      }
      return Status::OK();
    }
    case ColumnEncoding::kDouble: {
      FF_ASSIGN_OR_RETURN(std::string_view data, r->Bytes(n * 8));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->push_back(Value::Null());
        } else {
          uint64_t bits64;
          std::memcpy(&bits64, data.data() + i * 8, 8);
          out->push_back(Value::Double(std::bit_cast<double>(bits64)));
        }
      }
      return Status::OK();
    }
    case ColumnEncoding::kDict: {
      FF_ASSIGN_OR_RETURN(uint32_t dict_size, r->U32());
      // Each dictionary entry costs at least 4 bytes (its length field).
      if (dict_size > r->remaining() / 4 + 1) {
        return Status::ParseError(
            "dictionary declares more entries than frame holds");
      }
      std::vector<std::string> dict;
      dict.reserve(dict_size);
      for (uint32_t i = 0; i < dict_size; ++i) {
        FF_ASSIGN_OR_RETURN(std::string s, r->Str());
        dict.push_back(std::move(s));
      }
      FF_ASSIGN_OR_RETURN(std::string_view codes, r->Bytes(n * 4));
      out->reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (is_null(i)) {
          out->push_back(Value::Null());
          continue;
        }
        uint32_t code;
        std::memcpy(&code, codes.data() + i * 4, 4);
        if (code >= dict_size) {
          return Status::ParseError("dictionary code " + std::to_string(code) +
                                    " out of range (dict has " +
                                    std::to_string(dict_size) + " entries)");
        }
        out->push_back(Value::String(dict[code]));
      }
      return Status::OK();
    }
    case ColumnEncoding::kTagged: {
      out->reserve(std::min(n, r->remaining()));  // each value >= 1 byte
      for (size_t i = 0; i < n; ++i) {
        FF_ASSIGN_OR_RETURN(Value v, r->Value());
        out->push_back(std::move(v));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable column encoding");
}

StatusOr<ResultSet> DecodeResultSet(WireReader* r) {
  FF_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  FF_ASSIGN_OR_RETURN(uint64_t nrows64, r->U64());
  const size_t ncols = schema.num_columns();
  const size_t n = static_cast<size_t>(nrows64);
  // Decode columns first: every encoding's payload is bounds-checked
  // against the frame before buffers are sized, so a lying nrows cannot
  // drive allocation past the bytes actually present.
  std::vector<std::vector<Value>> cols(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    FF_RETURN_IF_ERROR(DecodeColumn(r, n, &cols[c]));
  }
  if (!r->AtEnd()) {
    return Status::ParseError("trailing bytes after result columns");
  }
  ResultSet rs;
  rs.schema = std::move(schema);
  rs.rows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    Row& row = rs.rows[i];
    row.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) row.push_back(std::move(cols[c][i]));
  }
  return rs;
}

}  // namespace net
}  // namespace ff

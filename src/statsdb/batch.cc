#include "statsdb/batch.h"

#include "util/logging.h"

namespace ff {
namespace statsdb {

Value ColumnVector::GetValue(size_t i) const {
  if (vals != nullptr) return vals[i];
  if (IsNull(i)) return Value::Null();
  switch (type) {
    case DataType::kBool:
      return Value::Bool(b8[i] != 0);
    case DataType::kInt64:
      return Value::Int64(i64[i]);
    case DataType::kDouble:
      return Value::Double(f64[i]);
    case DataType::kString:
      return Value::String(dict->at(codes[i]));
    case DataType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void ColumnVector::Seal() {
  if (!own_vals.empty()) {
    vals = own_vals.data();
  } else {
    switch (type) {
      case DataType::kBool:
        b8 = own_b8.data();
        break;
      case DataType::kInt64:
        i64 = own_i64.data();
        break;
      case DataType::kDouble:
        f64 = own_f64.data();
        break;
      case DataType::kString:
        codes = own_codes.data();
        if (own_dict) dict = own_dict.get();
        break;
      case DataType::kNull:
        break;
    }
  }
  if (!own_nulls.empty()) null_words = own_nulls.data();
}

ColumnVector ColumnVector::View(const ColumnVector& src) {
  ColumnVector out;
  out.type = src.type;
  out.length = src.length;
  out.b8 = src.b8;
  out.i64 = src.i64;
  out.f64 = src.f64;
  out.codes = src.codes;
  out.dict = src.dict;
  out.vals = src.vals;
  out.null_words = src.null_words;
  out.is_const = src.is_const;
  out.const_val = src.const_val;
  return out;
}

ColumnVector ColumnVector::Constant(const Value& v, size_t n) {
  ColumnVector out;
  out.type = v.type();
  out.length = n;
  out.is_const = true;
  out.const_val = v;
  switch (v.type()) {
    case DataType::kNull:
      if (n > 0) out.own_nulls.assign((n + 63) / 64, ~uint64_t{0});
      break;
    case DataType::kBool:
      out.own_b8.assign(n, v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      out.own_i64.assign(n, v.int64_value());
      break;
    case DataType::kDouble:
      out.own_f64.assign(n, v.double_value());
      break;
    case DataType::kString: {
      auto dict = std::make_shared<Dictionary>();
      dict->Intern(v.string_value());
      out.own_dict = std::move(dict);
      out.own_codes.assign(n, 0);
      break;
    }
  }
  out.Seal();
  return out;
}

ColumnVector ColumnVector::Gather(const ColumnVector& src,
                                  const uint32_t* sel, size_t n) {
  if (sel == nullptr) return View(src);
  ColumnVector out;
  out.type = src.type;
  out.length = n;
  if (src.vals != nullptr) {
    out.own_vals.reserve(n);
    for (size_t k = 0; k < n; ++k) out.own_vals.push_back(src.vals[sel[k]]);
    out.Seal();
    return out;
  }
  switch (src.type) {
    case DataType::kBool:
      out.own_b8.resize(n);
      for (size_t k = 0; k < n; ++k) out.own_b8[k] = src.b8[sel[k]];
      break;
    case DataType::kInt64:
      out.own_i64.resize(n);
      for (size_t k = 0; k < n; ++k) out.own_i64[k] = src.i64[sel[k]];
      break;
    case DataType::kDouble:
      out.own_f64.resize(n);
      for (size_t k = 0; k < n; ++k) out.own_f64[k] = src.f64[sel[k]];
      break;
    case DataType::kString:
      out.own_codes.resize(n);
      for (size_t k = 0; k < n; ++k) out.own_codes[k] = src.codes[sel[k]];
      out.dict = src.dict;  // borrowed; caller keeps the source alive
      break;
    case DataType::kNull:
      break;
  }
  if (src.null_words != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      if (src.IsNull(sel[k])) out.SetNull(k);
    }
  }
  out.Seal();
  return out;
}

Row Batch::MaterializeRow(size_t row) const {
  Row out;
  out.reserve(cols.size());
  for (const ColumnVector& c : cols) out.push_back(c.GetValue(row));
  return out;
}

Batch Batch::ViewOf(const Batch& src) {
  Batch out;
  out.num_rows = src.num_rows;
  out.cols.reserve(src.cols.size());
  for (const auto& c : src.cols) out.cols.push_back(ColumnVector::View(c));
  return out;
}

}  // namespace statsdb
}  // namespace ff

// Column batches streamed between plan nodes by the vectorized executor
// (see exec.h). A Batch is a window of rows with one ColumnVector per
// output column. Scans borrow typed storage from ColumnStore chunks;
// pipeline breakers (aggregation, sort, distinct, join) emit `vals`-mode
// vectors holding exact runtime-typed Values. A selection vector marks
// the live rows without compacting the underlying columns.

#ifndef FF_STATSDB_BATCH_H_
#define FF_STATSDB_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "statsdb/column_store.h"
#include "statsdb/schema.h"

namespace ff {
namespace statsdb {

class Expr;

/// One column of a batch. Element views (`b8`/`i64`/`f64`/`codes`/`vals`)
/// either borrow storage from a ColumnStore chunk or point into the
/// vector's own `own_*` stores when the values were computed. A vector in
/// `vals` mode carries exact Values: pipeline-breaker output, whose
/// runtime types can differ from the declared schema type.
class ColumnVector {
 public:
  DataType type = DataType::kNull;
  size_t length = 0;

  const uint8_t* b8 = nullptr;       // kBool
  const int64_t* i64 = nullptr;      // kInt64
  const double* f64 = nullptr;       // kDouble
  const uint32_t* codes = nullptr;   // kString (dictionary codes)
  const Dictionary* dict = nullptr;  // kString
  const Value* vals = nullptr;       // generic mode (exact Values)
  const uint64_t* null_words = nullptr;  // packed bitmap; nullptr => none

  /// True when this vector broadcasts one literal to every element.
  bool is_const = false;
  Value const_val;  // the literal, when is_const

  bool IsNull(size_t i) const {
    if (vals != nullptr) return vals[i].is_null();
    return null_words != nullptr &&
           ((null_words[i >> 6] >> (i & 63)) & 1);
  }
  Value GetValue(size_t i) const;

  // Owned storage for computed vectors: fill the store matching `type`
  // (or own_vals for generic mode), mark NULLs with SetNull, then Seal()
  // to point the views at the owned data. `length` must be set before
  // SetNull so the bitmap can be sized.
  std::vector<uint8_t> own_b8;
  std::vector<int64_t> own_i64;
  std::vector<double> own_f64;
  std::vector<uint32_t> own_codes;
  std::vector<Value> own_vals;
  std::vector<uint64_t> own_nulls;
  std::shared_ptr<const Dictionary> own_dict;

  void SetNull(size_t i) {
    if (own_nulls.empty()) own_nulls.assign((length + 63) / 64, 0);
    own_nulls[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Seal();

  /// Shallow borrow: copies the element views, not the owned storage.
  /// Valid only while `src` (and whatever it borrows from) is alive.
  static ColumnVector View(const ColumnVector& src);
  /// Broadcast literal (all `n` elements equal `v`; NULL yields an
  /// all-null vector of type kNull).
  static ColumnVector Constant(const Value& v, size_t n);
  /// Dense copy of `src` at positions `sel[0..n)`.
  static ColumnVector Gather(const ColumnVector& src, const uint32_t* sel,
                             size_t n);

  ColumnVector() = default;
  ColumnVector(ColumnVector&&) = default;
  ColumnVector& operator=(ColumnVector&&) = default;
  ColumnVector(const ColumnVector&) = delete;
  ColumnVector& operator=(const ColumnVector&) = delete;
};

/// A window of rows flowing between plan operators.
struct Batch {
  size_t num_rows = 0;

  // One vector per output column.
  std::vector<ColumnVector> cols;

  // Selection: ascending indices of live rows; all rows live otherwise.
  bool has_sel = false;
  std::vector<uint32_t> sel;

  size_t ActiveRows() const { return has_sel ? sel.size() : num_rows; }
  size_t RowAt(size_t k) const { return has_sel ? sel[k] : k; }

  /// Materializes one logical row (every column).
  Row MaterializeRow(size_t row) const;

  /// Shallow borrow of `src`'s columns without the selection; callers
  /// install their own.
  static Batch ViewOf(const Batch& src);
};

/// Vectorized expression evaluation (implemented in expr.cc). Evaluates
/// `e` for the `n` rows `sel[0..n)` of `batch` (all rows [0, n) when
/// `sel` is null) and returns a dense vector of length `n`. Semantics
/// match Expr::Eval row by row, including which error is reported: the
/// one Expr::Eval hits on the first failing row.
util::StatusOr<ColumnVector> EvalBatch(const Expr& e, const Batch& batch,
                                       const Schema& schema,
                                       const uint32_t* sel, size_t n);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_BATCH_H_

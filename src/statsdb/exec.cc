#include "statsdb/exec.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/plan.h"
#include "statsdb/planner.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {
namespace {

using IterPtr = std::unique_ptr<BatchIterator>;

/// ANDs a predicate result (dense, aligned to the full chunk) into a
/// per-row keep mask, with WHERE semantics (NULL does not pass). Matches
/// how the reference engine consumes Expr::Eval results.
void ApplyBoolMask(const ColumnVector& v, size_t n,
                   std::vector<uint8_t>* keep) {
  for (size_t k = 0; k < n; ++k) {
    if (!(*keep)[k]) continue;
    bool pass;
    if (v.vals != nullptr) {
      const Value& x = v.vals[k];
      pass = !x.is_null() && x.bool_value();
    } else if (v.type == DataType::kBool) {
      pass = !v.IsNull(k) && v.b8[k] != 0;
    } else {
      pass = false;  // all-NULL result
    }
    if (!pass) (*keep)[k] = 0;
  }
}

/// Selection-aligned variant: marks surviving positions of `sel` (length
/// n) in `sel_keep`.
void ApplyBoolMaskSel(const ColumnVector& v, size_t n,
                      std::vector<uint8_t>* sel_keep) {
  for (size_t k = 0; k < n; ++k) {
    if (!(*sel_keep)[k]) continue;
    bool pass;
    if (v.vals != nullptr) {
      const Value& x = v.vals[k];
      pass = !x.is_null() && x.bool_value();
    } else if (v.type == DataType::kBool) {
      pass = !v.IsNull(k) && v.b8[k] != 0;
    } else {
      pass = false;
    }
    if (!pass) (*sel_keep)[k] = 0;
  }
}

/// Emits `rows` as one columnar batch in `*out`, one `vals`-mode vector
/// per column: exact runtime-typed Values, whatever the declared types.
/// nullptr when `rows` is empty.
const Batch* EmitRows(std::vector<Row> rows, Batch* out) {
  if (rows.empty()) return nullptr;
  *out = Batch();
  out->num_rows = rows.size();
  out->cols.resize(rows[0].size());
  for (size_t c = 0; c < out->cols.size(); ++c) {
    ColumnVector& v = out->cols[c];
    v.length = rows.size();
    v.own_vals.reserve(rows.size());
    for (Row& row : rows) v.own_vals.push_back(std::move(row[c]));
    v.Seal();
  }
  return out;
}

util::Status CheckBoolPredicate(const ExprPtr& pred, const Schema& schema) {
  FF_ASSIGN_OR_RETURN(DataType t, pred->ResultType(schema));
  if (t != DataType::kBool && t != DataType::kNull) {
    return util::Status::InvalidArgument(
        "WHERE predicate must be boolean: " + pred->ToString());
  }
  return util::Status::OK();
}

// ------------------------------------------------------------------ scan

/// True when a zone map proves no row of the chunk can satisfy some
/// conjunct (so the whole chunk is skipped).
bool ChunkPruned(const ScanSetup& s, size_t chunk, size_t span) {
  for (const auto& [col, sp] : s.zone_preds) {
    const ColumnStore::ColumnData& cd = s.store->column(col);
    if (chunk >= cd.zones.size()) continue;
    const ZoneMap& z = cd.zones[chunk];
    // `col op NULL` is NULL for every row; an all-NULL chunk likewise.
    if (sp.literal.is_null() || z.null_count >= span) return true;
    if (z.min_v.is_null() || z.max_v.is_null()) continue;
    const Value& lit = sp.literal;
    switch (sp.op) {
      case BinaryOp::kEq:
        if (lit.Compare(z.min_v) < 0 || lit.Compare(z.max_v) > 0) {
          return true;
        }
        break;
      case BinaryOp::kNe:
        if (z.min_v.Compare(lit) == 0 && z.max_v.Compare(lit) == 0) {
          return true;
        }
        break;
      case BinaryOp::kLt:
        if (z.min_v.Compare(lit) >= 0) return true;
        break;
      case BinaryOp::kLe:
        if (z.min_v.Compare(lit) > 0) return true;
        break;
      case BinaryOp::kGt:
        if (z.max_v.Compare(lit) <= 0) return true;
        break;
      case BinaryOp::kGe:
        if (z.max_v.Compare(lit) < 0) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

/// Units of a prepared scan: one per chunk on the full-scan path, one
/// per block of up to kChunkRows index matches on the index path.
size_t NumScanUnits(const ScanSetup& s) {
  if (s.index_rows == nullptr) return s.store->num_chunks();
  return (s.index_rows->size() + kChunkRows - 1) / kChunkRows;
}

/// The first row of unit `u`'s batch, to which its selection is
/// relative: the chunk's first row, or on the index path the first row
/// of the chunk holding the block's first match.
size_t UnitBaseRow(const ScanSetup& s, size_t u) {
  if (s.index_rows == nullptr) return u * kChunkRows;
  return (*s.index_rows)[u * kChunkRows] / kChunkRows * kChunkRows;
}

/// Scans units [first, end) of a prepared scan: the whole table, or one
/// unit for a morsel, whose Gather shares `setup` among them all. Emits
/// at most one batch per unit.
class ScanIterator : public BatchIterator {
 public:
  ScanIterator(std::shared_ptr<const ScanSetup> setup, size_t first,
               size_t end, obs::OperatorProfile* prof)
      : setup_(std::move(setup)), unit_(first), end_unit_(end),
        prof_(prof) {}

  util::Status Init() { return util::Status::OK(); }

  const Schema& schema() const override { return setup_->table->schema(); }

  util::StatusOr<const Batch*> Next() override {
    while (unit_ < end_unit_) {
      const size_t u = unit_++;
      FF_ASSIGN_OR_RETURN(bool any, setup_->index_rows != nullptr
                                        ? ReadBlock(u)
                                        : ReadChunk(u));
      if (any) return &out_;
    }
    return nullptr;
  }

 private:
  void CountChunk(bool pruned) {
    if constexpr (obs::kProfilingCompiledIn) {
      if (prof_ != nullptr) ++(pruned ? prof_->chunks_pruned
                                      : prof_->chunks_scanned);
    }
  }

  /// Points out_ at rows [lo, lo + span) of every column, zero-copy,
  /// with no selection.
  void ViewRows(size_t lo, size_t span) {
    const Schema& schema = setup_->table->schema();
    out_.num_rows = span;
    out_.has_sel = false;
    out_.sel.clear();
    out_.cols.clear();
    out_.cols.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const ColumnStore::ColumnData& cd = setup_->store->column(c);
      ColumnVector v;
      v.type = cd.type;
      v.length = span;
      switch (cd.type) {
        case DataType::kBool:
          v.b8 = cd.bools.data() + lo;
          break;
        case DataType::kInt64:
          v.i64 = cd.ints.data() + lo;
          break;
        case DataType::kDouble:
          v.f64 = cd.doubles.data() + lo;
          break;
        case DataType::kString:
          v.codes = cd.codes.data() + lo;
          v.dict = &cd.dict;
          break;
        case DataType::kNull:
          break;
      }
      // `lo` starts a chunk and kChunkRows is a multiple of 64, so the
      // view starts word-aligned.
      if (cd.null_count > 0) v.null_words = cd.null_words.data() + lo / 64;
      out_.cols.push_back(std::move(v));
    }
  }

  /// Index path: block `u` of the index matches, minus those in chunks
  /// the zone maps prune, as one batch whose selection holds the
  /// matches that pass every conjunct. False when none does.
  util::StatusOr<bool> ReadBlock(size_t u) {
    const std::vector<size_t>& ir = *setup_->index_rows;
    const size_t first = u * kChunkRows;
    const size_t end = std::min(first + kChunkRows, ir.size());
    const size_t lo = UnitBaseRow(*setup_, u);
    if (ir[end - 1] - lo > std::numeric_limits<uint32_t>::max()) {
      return util::Status::OutOfRange(
          "index block spans more rows than a selection vector holds");
    }
    if constexpr (obs::kProfilingCompiledIn) {
      if (prof_ != nullptr) prof_->index_rows += end - first;
    }
    const size_t num_rows = setup_->store->num_rows();
    sel_.clear();
    for (size_t pos = first; pos < end;) {
      const size_t chunk = ir[pos] / kChunkRows;
      const size_t hi = std::min((chunk + 1) * kChunkRows, num_rows);
      size_t stop = pos;
      while (stop < end && ir[stop] < hi) ++stop;
      const bool pruned = ChunkPruned(*setup_, chunk, hi - chunk * kChunkRows);
      CountChunk(pruned);
      if (!pruned) {
        for (; pos < stop; ++pos) {
          sel_.push_back(static_cast<uint32_t>(ir[pos] - lo));
        }
      }
      pos = stop;
    }
    if (sel_.empty()) return false;
    ViewRows(lo, ir[end - 1] - lo + 1);

    // Evaluate each conjunct over the surviving matches only.
    const Schema& schema = setup_->table->schema();
    for (const auto& c : setup_->conjuncts) {
      FF_ASSIGN_OR_RETURN(
          ColumnVector v,
          EvalBatch(*c, out_, schema, sel_.data(), sel_.size()));
      keep_.assign(sel_.size(), 1);
      ApplyBoolMaskSel(v, sel_.size(), &keep_);
      size_t n = 0;
      for (size_t k = 0; k < sel_.size(); ++k) {
        if (keep_[k]) sel_[n++] = sel_[k];
      }
      sel_.resize(n);
      if (sel_.empty()) return false;
    }
    out_.has_sel = true;
    out_.sel.swap(sel_);
    return true;
  }

  /// Full-scan path: chunk `chunk` as one batch, selected down to the
  /// rows that pass every conjunct. False when the zone maps prune it
  /// or no row passes.
  util::StatusOr<bool> ReadChunk(size_t chunk) {
    const size_t lo = chunk * kChunkRows;
    const size_t span = std::min(lo + kChunkRows, setup_->store->num_rows()) -
                        lo;
    const bool pruned = ChunkPruned(*setup_, chunk, span);
    CountChunk(pruned);
    if (pruned) return false;
    ViewRows(lo, span);
    if (setup_->conjuncts.empty()) return true;

    // Each conjunct is evaluated over every row of the chunk (matching
    // the reference engine, whose AND evaluates both sides always);
    // the masks are then intersected.
    const Schema& schema = setup_->table->schema();
    keep_.assign(span, 1);
    for (const auto& c : setup_->conjuncts) {
      FF_ASSIGN_OR_RETURN(ColumnVector v,
                          EvalBatch(*c, out_, schema, nullptr, span));
      ApplyBoolMask(v, span, &keep_);
    }
    for (size_t k = 0; k < span; ++k) {
      if (keep_[k]) out_.sel.push_back(static_cast<uint32_t>(k));
    }
    if (out_.sel.empty()) return false;
    out_.has_sel = out_.sel.size() < span;
    if (!out_.has_sel) out_.sel.clear();
    return true;
  }

  std::shared_ptr<const ScanSetup> setup_;
  size_t unit_;      // next unit to scan
  size_t end_unit_;  // one past the last unit to scan
  obs::OperatorProfile* prof_ = nullptr;
  std::vector<uint32_t> sel_;  // ReadBlock's selection under construction
  std::vector<uint8_t> keep_;  // per-row conjunct mask
  Batch out_;
};

// ---------------------------------------------------------------- filter

class FilterIterator : public BatchIterator {
 public:
  FilterIterator(const FilterNode& node, IterPtr input)
      : node_(node), input_(std::move(input)) {}

  util::Status Init() {
    return CheckBoolPredicate(node_.predicate, input_->schema());
  }

  const Schema& schema() const override { return input_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    for (;;) {
      FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
      if (in == nullptr) return nullptr;
      size_t n = in->ActiveRows();
      const uint32_t* sel = in->has_sel ? in->sel.data() : nullptr;
      FF_ASSIGN_OR_RETURN(
          ColumnVector v,
          EvalBatch(*node_.predicate, *in, input_->schema(), sel, n));
      std::vector<uint8_t> keep(n, 1);
      ApplyBoolMaskSel(v, n, &keep);
      std::vector<uint32_t> refined;
      for (size_t k = 0; k < n; ++k) {
        if (keep[k]) refined.push_back(static_cast<uint32_t>(in->RowAt(k)));
      }
      if (refined.empty()) continue;
      out_ = Batch::ViewOf(*in);
      out_.has_sel = true;
      out_.sel = std::move(refined);
      return &out_;
    }
  }

 private:
  const FilterNode& node_;
  IterPtr input_;
  Batch out_;
};

// --------------------------------------------------------------- project

class ProjectIterator : public BatchIterator {
 public:
  ProjectIterator(const ProjectNode& node, IterPtr input)
      : node_(node), input_(std::move(input)) {}

  util::Status Init() {
    const Schema& in = input_->schema();
    std::vector<Column> cols;
    for (const auto& item : node_.items) {
      FF_ASSIGN_OR_RETURN(DataType t, item.expr->ResultType(in));
      std::string name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      cols.push_back(
          Column{name, t == DataType::kNull ? DataType::kString : t});
    }
    out_schema_ = Schema(std::move(cols));
    return util::Status::OK();
  }

  const Schema& schema() const override { return out_schema_; }

  util::StatusOr<const Batch*> Next() override {
    for (;;) {
      FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
      if (in == nullptr) return nullptr;
      size_t n = in->ActiveRows();
      if (n == 0) continue;
      const uint32_t* sel = in->has_sel ? in->sel.data() : nullptr;
      out_ = Batch();
      out_.num_rows = n;
      out_.cols.reserve(node_.items.size());
      for (const auto& item : node_.items) {
        // Bare columns with no selection come back as zero-copy views.
        FF_ASSIGN_OR_RETURN(
            ColumnVector v,
            EvalBatch(*item.expr, *in, input_->schema(), sel, n));
        out_.cols.push_back(std::move(v));
      }
      return &out_;
    }
  }

 private:
  const ProjectNode& node_;
  IterPtr input_;
  Schema out_schema_;
  Batch out_;
};

// ------------------------------------------------------------------ sort

/// v.GetValue(r).Compare(x), without building the Value for typed
/// numbers and strings (a string is compared in its dictionary).
int CompareCell(const ColumnVector& v, size_t r, const Value& x) {
  if (v.vals != nullptr) return v.vals[r].Compare(x);
  if (v.type == DataType::kNull || v.IsNull(r)) return x.is_null() ? 0 : -1;
  auto sign = [](auto a, auto b) { return a == b ? 0 : (a < b ? -1 : 1); };
  const DataType xt = x.type();
  switch (v.type) {
    case DataType::kInt64:
      if (xt == DataType::kInt64) return sign(v.i64[r], x.int64_value());
      if (xt == DataType::kDouble) {
        return sign(static_cast<double>(v.i64[r]), x.double_value());
      }
      break;
    case DataType::kDouble:
      if (xt == DataType::kDouble) return sign(v.f64[r], x.double_value());
      if (xt == DataType::kInt64) {
        return sign(v.f64[r], static_cast<double>(x.int64_value()));
      }
      break;
    case DataType::kString:
      if (xt != DataType::kString) return 1;  // strings rank last
      return sign(std::string_view(v.dict->at(v.codes[r]))
                      .compare(x.string_value()),
                  0);
    default:
      break;
  }
  return v.GetValue(r).Compare(x);
}

class SortIterator : public BatchIterator {
 public:
  SortIterator(const SortNode& node, IterPtr input)
      : node_(node), input_(std::move(input)) {}

  util::Status Init() {
    for (const auto& k : node_.keys) {
      FF_ASSIGN_OR_RETURN(size_t i, input_->schema().IndexOf(k.column));
      cols_.push_back(i);
    }
    return util::Status::OK();
  }

  const Schema& schema() const override { return input_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    if (done_) return nullptr;
    done_ = true;
    // Strict weak order: sort keys, then arrival order (which makes the
    // heap-based top-k reproduce std::stable_sort's output exactly).
    struct Entry {
      Row row;
      size_t seq;
    };
    auto before = [this](const Entry& a, const Entry& b) {
      for (size_t k = 0; k < cols_.size(); ++k) {
        int c = a.row[cols_[k]].Compare(b.row[cols_[k]]);
        if (c != 0) return node_.keys[k].ascending ? c < 0 : c > 0;
      }
      return a.seq < b.seq;
    };

    std::vector<Row> rows;
    if (node_.limit_hint == 0) {
      for (;;) {
        FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
        if (in == nullptr) break;
        for (size_t k = 0; k < in->ActiveRows(); ++k) {
          rows.push_back(in->MaterializeRow(in->RowAt(k)));
        }
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const Row& a, const Row& b) {
                         for (size_t k = 0; k < cols_.size(); ++k) {
                           int c = a[cols_[k]].Compare(b[cols_[k]]);
                           if (c != 0) {
                             return node_.keys[k].ascending ? c < 0 : c > 0;
                           }
                         }
                         return false;
                       });
    } else {
      // Top-k: keep the k first rows of the sorted order in a max-heap
      // (the heap's top is the worst retained row). Once the heap is
      // full, a row enters only when its keys sort strictly before the
      // worst row's: a tie goes to the earlier arrival, as in
      // std::stable_sort. So each row is compared in place and built
      // only when it enters.
      std::priority_queue<Entry, std::vector<Entry>, decltype(before)> heap(
          before);
      auto enters = [this, &heap](const Batch& in, size_t r) {
        if (heap.size() < node_.limit_hint) return true;
        const Row& worst = heap.top().row;
        for (size_t k = 0; k < cols_.size(); ++k) {
          int c = CompareCell(in.cols[cols_[k]], r, worst[cols_[k]]);
          if (c != 0) return node_.keys[k].ascending ? c < 0 : c > 0;
        }
        return false;
      };
      size_t seq = 0;
      for (;;) {
        FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
        if (in == nullptr) break;
        for (size_t k = 0; k < in->ActiveRows(); ++k, ++seq) {
          const size_t r = in->RowAt(k);
          if (!enters(*in, r)) continue;
          heap.push(Entry{in->MaterializeRow(r), seq});
          if (heap.size() > node_.limit_hint) heap.pop();
        }
      }
      rows.resize(heap.size());
      for (size_t i = heap.size(); i-- > 0;) {
        rows[i] = std::move(const_cast<Entry&>(heap.top()).row);
        heap.pop();
      }
    }
    return EmitRows(std::move(rows), &out_);
  }

 private:
  const SortNode& node_;
  IterPtr input_;
  std::vector<size_t> cols_;
  bool done_ = false;
  Batch out_;
};

// -------------------------------------------------------------- distinct

class DistinctIterator : public BatchIterator {
 public:
  explicit DistinctIterator(IterPtr input) : input_(std::move(input)) {}

  util::Status Init() { return util::Status::OK(); }

  const Schema& schema() const override { return input_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    for (;;) {
      FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
      if (in == nullptr) return nullptr;
      std::vector<Row> rows;

      // Single dictionary-encoded column: distinct codes are distinct
      // strings, so dedup is an array lookup instead of a row-hash probe.
      if (in->cols.size() == 1 && in->cols[0].vals == nullptr &&
          in->cols[0].type == DataType::kString) {
        const ColumnVector& v = in->cols[0];
        for (size_t k = 0; k < in->ActiveRows(); ++k) {
          size_t r = in->RowAt(k);
          if (v.IsNull(r)) {
            if (!seen_null_) {
              seen_null_ = true;
              rows.push_back(Row{Value::Null()});
            }
            continue;
          }
          uint32_t code = v.codes[r];
          if (code >= seen_codes_.size()) seen_codes_.resize(code + 1, 0);
          if (!seen_codes_[code]) {
            seen_codes_[code] = 1;
            rows.push_back(Row{Value::String(v.dict->at(code))});
          }
        }
      } else {
        for (size_t k = 0; k < in->ActiveRows(); ++k) {
          Row row = in->MaterializeRow(in->RowAt(k));
          if (seen_.insert(row).second) rows.push_back(std::move(row));
        }
      }
      if (const Batch* out = EmitRows(std::move(rows), &out_)) return out;
    }
  }

 private:
  IterPtr input_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  std::vector<uint8_t> seen_codes_;
  bool seen_null_ = false;
  Batch out_;
};

// ------------------------------------------------------------- hash join

class HashJoinIterator : public BatchIterator {
 public:
  HashJoinIterator(const HashJoinNode& node, IterPtr left, IterPtr right)
      : node_(node), left_(std::move(left)), right_(std::move(right)) {}

  util::Status Init() {
    FF_ASSIGN_OR_RETURN(lc_, left_->schema().IndexOf(node_.left_col));
    FF_ASSIGN_OR_RETURN(rc_, right_->schema().IndexOf(node_.right_col));
    out_schema_ = JoinOutputSchema(left_->schema(), right_->schema());
    return util::Status::OK();
  }

  const Schema& schema() const override { return out_schema_; }

  util::StatusOr<const Batch*> Next() override {
    if (!built_) {
      built_ = true;
      for (;;) {
        FF_ASSIGN_OR_RETURN(const Batch* in, right_->Next());
        if (in == nullptr) break;
        for (size_t k = 0; k < in->ActiveRows(); ++k) {
          Row row = in->MaterializeRow(in->RowAt(k));
          if (!row[rc_].is_null()) {  // NULL never joins
            build_[row[rc_]].push_back(right_rows_.size());
          }
          right_rows_.push_back(std::move(row));
        }
      }
    }
    for (;;) {
      FF_ASSIGN_OR_RETURN(const Batch* in, left_->Next());
      if (in == nullptr) return nullptr;
      std::vector<Row> rows;
      for (size_t k = 0; k < in->ActiveRows(); ++k) {
        Row lrow = in->MaterializeRow(in->RowAt(k));
        if (lrow[lc_].is_null()) continue;
        auto it = build_.find(lrow[lc_]);
        if (it == build_.end()) continue;
        for (size_t ri : it->second) {
          Row joined = lrow;
          const Row& rrow = right_rows_[ri];
          joined.insert(joined.end(), rrow.begin(), rrow.end());
          rows.push_back(std::move(joined));
        }
      }
      if (const Batch* out = EmitRows(std::move(rows), &out_)) return out;
    }
  }

 private:
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) == 0;
    }
  };

  const HashJoinNode& node_;
  IterPtr left_;
  IterPtr right_;
  size_t lc_ = 0, rc_ = 0;
  Schema out_schema_;
  bool built_ = false;
  std::vector<Row> right_rows_;
  std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq> build_;
  Batch out_;
};

// ----------------------------------------------------------------- limit

class LimitIterator : public BatchIterator {
 public:
  LimitIterator(const LimitNode& node, IterPtr input)
      : node_(node), input_(std::move(input)) {}

  util::Status Init() { return util::Status::OK(); }

  const Schema& schema() const override { return input_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    // Early exit: once the quota is met the input is never pulled again.
    while (emitted_ < node_.limit) {
      FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
      if (in == nullptr) return nullptr;
      std::vector<uint32_t> sel;
      for (size_t k = 0; k < in->ActiveRows(); ++k) {
        if (skipped_ < node_.offset) {
          ++skipped_;
          continue;
        }
        if (emitted_ == node_.limit) break;
        sel.push_back(static_cast<uint32_t>(in->RowAt(k)));
        ++emitted_;
      }
      if (sel.empty()) continue;
      out_ = Batch::ViewOf(*in);
      out_.has_sel = true;
      out_.sel = std::move(sel);
      return &out_;
    }
    return nullptr;
  }

 private:
  const LimitNode& node_;
  IterPtr input_;
  size_t skipped_ = 0;
  size_t emitted_ = 0;
  Batch out_;
};

template <typename T, typename... Args>
util::StatusOr<IterPtr> MakeIter(Args&&... args) {
  auto it = std::make_unique<T>(std::forward<Args>(args)...);
  FF_RETURN_IF_ERROR(it->Init());
  return IterPtr(std::move(it));
}

// ------------------------------------------------------------- profiling

/// Pass-through decorator that times Next() and counts emitted
/// batches/rows into an OperatorProfile. Wall time includes the
/// children's Next() calls (the profile renderer subtracts them via
/// SelfNs); the batch itself is forwarded untouched, so profiled and
/// unprofiled executions produce identical results.
class ProfiledIterator : public BatchIterator {
 public:
  ProfiledIterator(IterPtr inner, obs::OperatorProfile* prof)
      : inner_(std::move(inner)), prof_(prof) {}

  const Schema& schema() const override { return inner_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    const int64_t t0 = obs::RuntimeNowNs();
    util::StatusOr<const Batch*> result = inner_->Next();
    prof_->wall_ns += static_cast<uint64_t>(obs::RuntimeNowNs() - t0);
    if (result.ok() && *result != nullptr) {
      ++prof_->batches;
      prof_->rows_out += (*result)->ActiveRows();
    }
    return result;
  }

 private:
  IterPtr inner_;
  obs::OperatorProfile* prof_;
};

/// Labels `prof` for `plan` and — when profiling is compiled in — wraps
/// the iterator in a ProfiledIterator. With FF_PROFILING=OFF the label
/// is still set (EXPLAIN ANALYZE renders the bare tree) but the stream
/// is returned untouched: zero overhead beyond plan construction.
util::StatusOr<IterPtr> WrapProfiled(util::StatusOr<IterPtr> it,
                                     const PlanNode& plan,
                                     obs::OperatorProfile* prof) {
  if (!it.ok() || prof == nullptr) return it;
  prof->name = NodeLabel(plan);
  if (plan.kind() == PlanKind::kScan) prof->is_scan = true;
  if constexpr (obs::kProfilingCompiledIn) {
    return IterPtr(std::make_unique<ProfiledIterator>(std::move(*it), prof));
  }
  return it;
}

}  // namespace

util::StatusOr<ScanSetup> PrepareScan(const ScanNode& node,
                                      const Database& db) {
  ScanSetup s;
  FF_ASSIGN_OR_RETURN(s.table, db.table(node.table));
  s.store = &s.table->store();
  if (node.predicate != nullptr) {
    FF_RETURN_IF_ERROR(CheckBoolPredicate(node.predicate, s.table->schema()));
    SplitConjuncts(node.predicate, &s.conjuncts);
    for (const auto& c : s.conjuncts) {
      auto sp = MatchSimplePredicate(*c);
      if (!sp.has_value()) continue;
      auto idx = s.table->schema().IndexOf(sp->column);
      if (!idx.ok()) continue;
      // Pruning compares the literal against zone min/max; only sound
      // when that comparison cannot itself be a runtime type error.
      DataType lt = sp->literal.type();
      if (lt == DataType::kNull ||
          TypesComparable(s.table->schema().column(*idx).type, lt)) {
        s.zone_preds.emplace_back(*idx, *sp);
      }
    }
  }
  // Index keys resolve here, so a `?` key reads its bound value.
  for (const IndexKey& k : node.index_keys) {
    const Value* key = k.key->literal();  // null: unbound placeholder
    auto idx = s.table->schema().IndexOf(k.column);
    if (key == nullptr || !idx.ok() ||
        !IndexKeyUsable(s.table->schema().column(*idx).type, *key)) {
      continue;
    }
    // The bucket is borrowed: the read holds off every writer.
    s.index_rows = s.table->IndexBucket(*idx, *key);
    if (s.index_rows != nullptr) break;
  }
  return s;
}

std::vector<size_t> SurveyScanUnits(const ScanSetup& setup) {
  std::vector<size_t> out;
  if (setup.index_rows != nullptr) {
    // Zone maps prune inside a block, chunk by chunk.
    out.resize(NumScanUnits(setup));
    std::iota(out.begin(), out.end(), size_t{0});
    return out;
  }
  const size_t num_rows = setup.store->num_rows();
  for (size_t chunk = 0; chunk < setup.store->num_chunks(); ++chunk) {
    const size_t lo = chunk * kChunkRows;
    if (!ChunkPruned(setup, chunk, std::min(lo + kChunkRows, num_rows) - lo)) {
      out.push_back(chunk);
    }
  }
  return out;
}

namespace {

util::StatusOr<IterPtr> BuildIteratorOver(const PlanNode& plan,
                                          IterPtr input);

/// Builds the iterator tree for `plan`, which must be a chain of
/// Filter/Project nodes over one Scan leaf, prepared as `setup`; the
/// leaf scans units [first, end).
util::StatusOr<IterPtr> BuildChainIterator(
    const PlanNode& plan, const std::shared_ptr<const ScanSetup>& setup,
    size_t first, size_t end, obs::OperatorProfile* prof) {
  if (plan.kind() == PlanKind::kScan) {
    return WrapProfiled(MakeIter<ScanIterator>(setup, first, end, prof),
                        plan, prof);
  }
  if (plan.kind() != PlanKind::kFilter && plan.kind() != PlanKind::kProject) {
    return util::Status::Internal("BuildChainIterator: not a scan chain: " +
                                  plan.ToString());
  }
  obs::OperatorProfile* cp = prof == nullptr ? nullptr : prof->AddChild();
  FF_ASSIGN_OR_RETURN(IterPtr in, BuildChainIterator(*PlanInputs(plan)[0],
                                                     setup, first, end, cp));
  return WrapProfiled(BuildIteratorOver(plan, std::move(in)), plan, prof);
}

// -------------------------------------------------------- morsel fan-out

/// A chain is a pipeline the executor can split by scan unit (a chunk,
/// or a block of index matches): Filter/Project operators over exactly
/// one Scan leaf. The scan emits at most one batch per unit and
/// Filter/Project map batches one to one, so running the chain once per
/// unit yields, in unit order, exactly the batches of one serial pass.
bool IsChain(const PlanNode& n) {
  if (n.kind() == PlanKind::kScan) return true;
  return (n.kind() == PlanKind::kFilter || n.kind() == PlanKind::kProject) &&
         IsChain(*PlanInputs(n)[0]);
}

const ScanNode& ChainLeaf(const PlanNode& n) {
  if (n.kind() == PlanKind::kScan) return static_cast<const ScanNode&>(n);
  return ChainLeaf(*PlanInputs(n)[0]);
}

/// obs::RuntimeNowNs() when profiling is compiled in, else 0.
int64_t ProfileNowNs() {
  return obs::kProfilingCompiledIn ? obs::RuntimeNowNs() : 0;
}

/// Morsel fan-out of one scan chain, each morsel optionally capped by
/// its own copy of `cap`, a Distinct or a top-k Sort. The scan is
/// prepared once (BuildChain) and every surveyed unit is one morsel,
/// which runs the serial operators over that unit and emits at most
/// one batch.
///
/// On its first Next() the Gather runs every morsel on the pool, then
/// yields their batches in unit order: the batches the serial chain
/// (or `cap` over each of them) emits, in the serial order, so the
/// serial Distinct or Sort above it combines the morsels exactly as it
/// would combine the units. FoldGroups instead folds each morsel into
/// its own GroupedAgg for an Aggregate above. Either way the error
/// returned is the lowest failing morsel's: a unit's errors do not
/// depend on the thread that runs it, so that is the error a serial
/// pass over the units hits first.
class GatherIterator : public BatchIterator {
 public:
  GatherIterator(const PlanNode& chain, const PlanNode* cap,
                 std::shared_ptr<const ScanSetup> setup,
                 std::vector<size_t> units, parallel::ThreadPool* pool,
                 const char* op, obs::OperatorProfile* prof)
      : chain_(chain),
        cap_(cap),
        setup_(std::move(setup)),
        units_(std::move(units)),
        pool_(pool),
        prof_(prof),
        morsels_(units_.size()),
        batches_(units_.size(), nullptr) {
    if (prof_ == nullptr) return;
    prof_->name = util::StrFormat("Parallel[%s]", op);
    prof_->parallel = true;
    morsel_profs_.resize(units_.size());
  }

  /// Builds morsel 0 on the calling thread, so the chain's and the
  /// cap's Init errors surface at build time, in the serial order.
  util::Status Init() { return BuildMorsel(0); }

  const Schema& schema() const override { return morsels_[0]->schema(); }

  util::StatusOr<const Batch*> Next() override {
    if (!ran_) {
      ran_ = true;
      FF_RETURN_IF_ERROR(
          RunMorsels([this](size_t i, BatchIterator& it) -> util::Status {
            FF_ASSIGN_OR_RETURN(batches_[i], it.Next());
            return util::Status::OK();
          }));
    }
    while (next_ < batches_.size()) {
      const Batch* batch = batches_[next_++];
      if (batch == nullptr) continue;
      if (prof_ != nullptr) {
        ++prof_->batches;
        prof_->rows_out += batch->ActiveRows();
      }
      return batch;
    }
    return nullptr;
  }

  /// Folds morsel i into partial groups i on the pool and merges the
  /// partials in morsel order. The serial Aggregate folds each unit's
  /// one batch into fresh partial states and merges them into its
  /// running groups, so both make the same AggState::Merge calls.
  util::StatusOr<GroupedAgg> FoldGroups(const std::vector<AggSpec>* aggs,
                                        const std::vector<size_t>& key_cols) {
    std::vector<GroupedAgg> parts(morsels_.size(),
                                  GroupedAgg(aggs, key_cols));
    FF_RETURN_IF_ERROR(RunMorsels([&parts](size_t i, BatchIterator& it) {
      return parts[i].FoldAll(it);
    }));
    const int64_t t0 = prof_ == nullptr ? 0 : ProfileNowNs();
    GroupedAgg groups(aggs, key_cols);
    for (const GroupedAgg& part : parts) groups.Merge(part);
    if (prof_ != nullptr) {
      const uint64_t ns = static_cast<uint64_t>(ProfileNowNs() - t0);
      prof_->merge_ns += ns;
      prof_->wall_ns += ns;
      // What the Aggregate consumed: the chain's rows, folded.
      prof_->rows_out = prof_->children[0]->rows_out;
      prof_->batches = prof_->children[0]->batches;
    }
    return groups;
  }

 private:
  util::Status BuildMorsel(size_t i) {
    FF_ASSIGN_OR_RETURN(
        IterPtr it,
        BuildChainIterator(chain_, setup_, units_[i], units_[i] + 1,
                           prof_ == nullptr ? nullptr : &morsel_profs_[i]));
    if (cap_ != nullptr) {
      FF_ASSIGN_OR_RETURN(it, BuildIteratorOver(*cap_, std::move(it)));
    }
    morsels_[i] = std::move(it);
    return util::Status::OK();
  }

  /// Runs fn(i, morsel i) for every morsel on the pool, building the
  /// morsels other than 0 on their workers, and returns the lowest
  /// failing morsel's error. Profiled, it then merges the morsel chain
  /// profiles in morsel order into one chain child and, on the
  /// full-scan path, charges the chunks the survey pruned to that
  /// chain's scan: each morsel scans one surviving chunk and never sees
  /// them. An index block counts its own pruned chunks.
  util::Status RunMorsels(
      const std::function<util::Status(size_t, BatchIterator&)>& fn) {
    const size_t m = morsels_.size();
    std::vector<util::Status> errs(m, util::Status::OK());
    std::vector<uint64_t> morsel_ns(prof_ == nullptr ? 0 : m);
    const int64_t t0 = prof_ == nullptr ? 0 : ProfileNowNs();
    parallel::TaskGroup group(pool_);
    group.ParallelFor(m, [&](size_t i) {
      const int64_t m0 = morsel_ns.empty() ? 0 : ProfileNowNs();
      if (morsels_[i] == nullptr) errs[i] = BuildMorsel(i);
      if (errs[i].ok()) errs[i] = fn(i, *morsels_[i]);
      if (!morsel_ns.empty()) {
        morsel_ns[i] = static_cast<uint64_t>(ProfileNowNs() - m0);
      }
    });
    if (prof_ != nullptr) {
      prof_->morsels = m;
      for (uint64_t ns : morsel_ns) {
        prof_->max_morsel_ns = std::max(prof_->max_morsel_ns, ns);
      }
      obs::OperatorProfile* chain = prof_->AddChild();
      for (const obs::OperatorProfile& mp : morsel_profs_) {
        chain->MergeFrom(mp);
      }
      obs::OperatorProfile* leaf = chain;
      while (!leaf->children.empty()) leaf = leaf->children[0].get();
      if (leaf->is_scan && setup_->index_rows == nullptr) {
        leaf->chunks_pruned += setup_->store->num_chunks() - m;
      }
      prof_->wall_ns += static_cast<uint64_t>(ProfileNowNs() - t0);
    }
    for (const util::Status& err : errs) {
      if (!err.ok()) return err;
    }
    return util::Status::OK();
  }

  const PlanNode& chain_;
  const PlanNode* cap_;
  const std::shared_ptr<const ScanSetup> setup_;
  const std::vector<size_t> units_;  // surveyed units, one morsel each
  parallel::ThreadPool* pool_;
  obs::OperatorProfile* prof_;
  std::vector<obs::OperatorProfile> morsel_profs_;  // profiled only
  std::vector<IterPtr> morsels_;
  std::vector<const Batch*> batches_;  // morsel i's batch, or nullptr
  bool ran_ = false;
  size_t next_ = 0;  // next batch to yield
};

/// Builds the scan chain `chain`, preparing its scan once. With `par`,
/// when at least max(2, par->min_chunks) units survive the survey, it
/// is a Gather whose morsels are capped by `cap` (also stored in
/// `*gather` when that is non-null); otherwise the serial chain. Either
/// way Init errors come out here in the serial chain's order.
util::StatusOr<IterPtr> BuildChain(const PlanNode& chain, const PlanNode* cap,
                                   const char* op, const Database& db,
                                   const ParallelConfig* par,
                                   obs::OperatorProfile* prof,
                                   GatherIterator** gather = nullptr) {
  FF_ASSIGN_OR_RETURN(ScanSetup prepared, PrepareScan(ChainLeaf(chain), db));
  auto setup = std::make_shared<const ScanSetup>(std::move(prepared));
  if (par != nullptr) {
    std::vector<size_t> units = SurveyScanUnits(*setup);
    if (units.size() >= std::max<size_t>(2, par->min_chunks)) {
      auto fan_out = std::make_unique<GatherIterator>(
          chain, cap, std::move(setup), std::move(units), par->pool, op,
          prof);
      FF_RETURN_IF_ERROR(fan_out->Init());
      if (gather != nullptr) *gather = fan_out.get();
      return IterPtr(std::move(fan_out));
    }
  }
  return BuildChainIterator(chain, setup, 0, NumScanUnits(*setup), prof);
}

// ------------------------------------------------------------- aggregate

class AggregateIterator : public BatchIterator {
 public:
  /// With `gather`, which must be `input` itself, the gather's morsels
  /// fold their own partial groups instead of `input` being pulled.
  AggregateIterator(const AggregateNode& node, IterPtr input,
                    GatherIterator* gather = nullptr)
      : node_(node), input_(std::move(input)), gather_(gather) {}

  util::Status Init() {
    FF_ASSIGN_OR_RETURN(
        out_schema_,
        AggOutputSchema(input_->schema(), node_.group_by, node_.aggs,
                        &key_cols_));
    return util::Status::OK();
  }

  const Schema& schema() const override { return out_schema_; }

  util::StatusOr<const Batch*> Next() override {
    if (done_) return nullptr;
    done_ = true;
    GroupedAgg groups(&node_.aggs, key_cols_);
    if (gather_ != nullptr) {
      FF_ASSIGN_OR_RETURN(groups, gather_->FoldGroups(&node_.aggs, key_cols_));
    } else {
      FF_RETURN_IF_ERROR(groups.FoldAll(*input_));
    }
    return EmitRows(groups.Finish(out_schema_), &out_);
  }

 private:
  const AggregateNode& node_;
  IterPtr input_;
  GatherIterator* gather_;
  Schema out_schema_;
  std::vector<size_t> key_cols_;
  bool done_ = false;
  Batch out_;
};

/// Builds the operator iterator for the single-input node `plan` over an
/// already-built `input` stream in place of the node's own input.
util::StatusOr<IterPtr> BuildIteratorOver(const PlanNode& plan,
                                          IterPtr input) {
  switch (plan.kind()) {
    case PlanKind::kFilter:
      return MakeIter<FilterIterator>(static_cast<const FilterNode&>(plan),
                                      std::move(input));
    case PlanKind::kProject:
      return MakeIter<ProjectIterator>(static_cast<const ProjectNode&>(plan),
                                       std::move(input));
    case PlanKind::kAggregate:
      return MakeIter<AggregateIterator>(
          static_cast<const AggregateNode&>(plan), std::move(input));
    case PlanKind::kSort:
      return MakeIter<SortIterator>(static_cast<const SortNode&>(plan),
                                    std::move(input));
    case PlanKind::kLimit:
      return MakeIter<LimitIterator>(static_cast<const LimitNode&>(plan),
                                     std::move(input));
    case PlanKind::kDistinct:
      return MakeIter<DistinctIterator>(std::move(input));
    default:
      return util::Status::Internal("BuildIteratorOver: not a single-input "
                                    "operator: " + plan.ToString());
  }
}

/// BuildIterator's recursion. `full` is false below a Limit with no
/// pipeline breaker in between: the Limit may stop pulling early, so a
/// chain there stays a lazy serial stream. Breakers drain their input
/// whatever sits above them, so a chain under one may always fan out.
util::StatusOr<IterPtr> Build(const PlanNode& plan, const Database& db,
                              const ParallelConfig* par, bool full,
                              obs::OperatorProfile* prof) {
  if (IsChain(plan)) {
    // A bare Scan's morsels would only slice views, so it stays serial.
    const bool bare = plan.kind() == PlanKind::kScan &&
                      static_cast<const ScanNode&>(plan).predicate == nullptr;
    return BuildChain(plan, nullptr, "collect", db,
                      full && !bare ? par : nullptr, prof);
  }
  // One profile child per plan input.
  auto child = [prof]() {
    return prof == nullptr ? nullptr : prof->AddChild();
  };
  const PlanKind kind = plan.kind();
  if (kind == PlanKind::kHashJoin) {
    const auto& n = static_cast<const HashJoinNode&>(plan);
    // Two children: [0] = left (probe), [1] = right (build). The probe
    // drains the build side in full before its first pull of the left.
    obs::OperatorProfile* cl = child();
    obs::OperatorProfile* cr = child();
    FF_ASSIGN_OR_RETURN(IterPtr l, Build(*n.left, db, par, full, cl));
    FF_ASSIGN_OR_RETURN(IterPtr r, Build(*n.right, db, par, true, cr));
    return WrapProfiled(
        MakeIter<HashJoinIterator>(n, std::move(l), std::move(r)), plan,
        prof);
  }

  // Single-input operators.
  const PlanNode& input = *PlanInputs(plan)[0];
  obs::OperatorProfile* cp = child();
  const bool topk = kind == PlanKind::kSort &&
                    static_cast<const SortNode&>(plan).limit_hint > 0;
  if (IsChain(input) &&
      (kind == PlanKind::kAggregate || kind == PlanKind::kDistinct || topk)) {
    // Each morsel runs its own Distinct or top-k Sort, and this one
    // combines them; an Aggregate folds the morsels' own partials.
    const bool agg = kind == PlanKind::kAggregate;
    GatherIterator* gather = nullptr;
    FF_ASSIGN_OR_RETURN(
        IterPtr in,
        BuildChain(input, agg ? nullptr : &plan,
                   agg ? "aggregate" : topk ? "topk" : "distinct", db, par,
                   cp, &gather));
    return WrapProfiled(
        agg ? MakeIter<AggregateIterator>(
                  static_cast<const AggregateNode&>(plan), std::move(in),
                  gather)
            : BuildIteratorOver(plan, std::move(in)),
        plan, prof);
  }
  // Filter and Project stream their input, a Limit may stop pulling it
  // early, and every other operator drains it fully.
  bool input_full = kind != PlanKind::kLimit;
  if (kind == PlanKind::kFilter || kind == PlanKind::kProject) {
    input_full = full;
  }
  FF_ASSIGN_OR_RETURN(IterPtr in, Build(input, db, par, input_full, cp));
  return WrapProfiled(BuildIteratorOver(plan, std::move(in)), plan, prof);
}

bool HasParallelUnit(const obs::OperatorProfile& op) {
  if (op.parallel) return true;
  for (const auto& c : op.children) {
    if (HasParallelUnit(*c)) return true;
  }
  return false;
}

}  // namespace

util::StatusOr<std::vector<size_t>> MatchRows(const std::string& table,
                                              const ExprPtr& where,
                                              const Database& db) {
  PlanPtr plan = MakeScan(table);
  if (where != nullptr) plan = MakeFilter(std::move(plan), where);
  // A well-typed WHERE lands in the scan; an ill-typed one stays a
  // Filter above it, as in SELECT.
  plan = OptimizePlan(plan, db);
  const PlanNode* leaf = plan.get();
  while (leaf->kind() != PlanKind::kScan) leaf = PlanInputs(*leaf)[0].get();
  FF_ASSIGN_OR_RETURN(
      ScanSetup prepared,
      PrepareScan(static_cast<const ScanNode&>(*leaf), db));
  auto setup = std::make_shared<const ScanSetup>(std::move(prepared));
  std::vector<size_t> units = SurveyScanUnits(*setup);
  if (units.empty() && plan->kind() == PlanKind::kFilter) {
    // No chain iterator is built, so run the check SELECT's Filter
    // makes when it is built over an empty table.
    FF_RETURN_IF_ERROR(
        CheckBoolPredicate(static_cast<const FilterNode&>(*plan).predicate,
                           setup->table->schema()));
  }
  std::vector<size_t> ids;
  for (size_t u : units) {
    FF_ASSIGN_OR_RETURN(IterPtr it,
                        BuildChainIterator(*plan, setup, u, u + 1, nullptr));
    FF_ASSIGN_OR_RETURN(const Batch* batch, it->Next());  // at most one
    if (batch == nullptr) continue;
    const size_t base = UnitBaseRow(*setup, u);
    for (size_t k = 0; k < batch->ActiveRows(); ++k) {
      ids.push_back(base + batch->RowAt(k));
    }
  }
  return ids;
}

std::vector<PlanPtr> PlanInputs(const PlanNode& plan) {
  switch (plan.kind()) {
    case PlanKind::kFilter:
      return {static_cast<const FilterNode&>(plan).input};
    case PlanKind::kProject:
      return {static_cast<const ProjectNode&>(plan).input};
    case PlanKind::kAggregate:
      return {static_cast<const AggregateNode&>(plan).input};
    case PlanKind::kDistinct:
      return {static_cast<const DistinctNode&>(plan).input};
    case PlanKind::kSort:
      return {static_cast<const SortNode&>(plan).input};
    case PlanKind::kLimit:
      return {static_cast<const LimitNode&>(plan).input};
    case PlanKind::kHashJoin: {
      const auto& j = static_cast<const HashJoinNode&>(plan);
      return {j.left, j.right};
    }
    case PlanKind::kScan:
      return {};
  }
  return {};
}

util::StatusOr<IterPtr> BuildIterator(const PlanNode& plan, const Database& db,
                                      obs::OperatorProfile* prof,
                                      const ParallelConfig* par) {
  // One thread gains nothing from morsels: the tree stays serial.
  if (par != nullptr &&
      (par->pool == nullptr || par->pool->num_threads() <= 1)) {
    par = nullptr;
  }
  return Build(plan, db, par, /*full=*/true, prof);
}

util::StatusOr<ResultSet> Drain(BatchIterator& it) {
  ResultSet rs{it.schema(), {}};
  for (;;) {
    FF_ASSIGN_OR_RETURN(const Batch* batch, it.Next());
    if (batch == nullptr) return rs;
    for (size_t k = 0; k < batch->ActiveRows(); ++k) {
      rs.rows.push_back(batch->MaterializeRow(batch->RowAt(k)));
    }
  }
}

util::StatusOr<ResultSet> ExecuteColumnar(const PlanNode& plan,
                                          const Database& db,
                                          obs::QueryProfile* profile,
                                          const ParallelConfig* par) {
  if (profile == nullptr) {
    FF_ASSIGN_OR_RETURN(IterPtr it, BuildIterator(plan, db, nullptr, par));
    return Drain(*it);
  }
  profile->root = std::make_unique<obs::OperatorProfile>();
  const int64_t t0 = ProfileNowNs();
  util::StatusOr<IterPtr> it =
      BuildIterator(plan, db, profile->root.get(), par);
  util::StatusOr<ResultSet> rs =
      it.ok() ? Drain(**it) : util::StatusOr<ResultSet>(it.status());
  profile->engine = HasParallelUnit(*profile->root) ? "parallel" : "serial";
  if constexpr (obs::kProfilingCompiledIn) {
    profile->total_ns = static_cast<uint64_t>(obs::RuntimeNowNs() - t0);
  }
  return rs;
}

util::Status GroupedAgg::FoldAll(BatchIterator& input) {
  for (;;) {
    FF_ASSIGN_OR_RETURN(const Batch* in, input.Next());
    if (in == nullptr) return util::Status::OK();
    FF_RETURN_IF_ERROR(Fold(*in, input.schema()));
  }
}

util::Status GroupedAgg::Fold(const Batch& in, const Schema& in_schema) {
  const std::vector<AggSpec>& aggs = *aggs_;
  size_t n = in.ActiveRows();
  const uint32_t* sel = in.has_sel ? in.sel.data() : nullptr;

  // One vectorized evaluation per aggregate per batch.
  std::vector<ColumnVector> argv(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggFunc::kCountStar) continue;
    FF_ASSIGN_OR_RETURN(argv[a],
                        EvalBatch(*aggs[a].arg, in, in_schema, sel, n));
  }

  // The batch's partial states, flat, one run of aggs.size() per group in
  // first-seen order within the batch; part_of_[g] is group g's run.
  // Runs left over from earlier batches are reset in place.
  const std::vector<AggState> fresh = NewAggStates(aggs);
  part_of_.resize(groups_.size(), kNoPart);
  Row key;
  for (size_t k = 0; k < n; ++k) {
    size_t r = in.RowAt(k);
    key.clear();
    for (size_t i : key_cols_) key.push_back(in.cols[i].GetValue(r));
    size_t g = GroupIndex(key);
    if (g == part_of_.size()) part_of_.push_back(kNoPart);  // new group
    if (part_of_[g] == kNoPart) {
      size_t run = part_groups_.size() * aggs.size();
      part_of_[g] = part_groups_.size();
      part_groups_.push_back(g);
      if (run == part_states_.size()) {
        part_states_.insert(part_states_.end(), fresh.begin(), fresh.end());
      } else {
        std::copy(fresh.begin(), fresh.end(), part_states_.begin() + run);
      }
    }
    AggState* states = &part_states_[part_of_[g] * aggs.size()];
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggState& st = states[a];
      if (aggs[a].func == AggFunc::kCountStar) {
        ++st.count;
        continue;
      }
      const ColumnVector& v = argv[a];
      if (v.vals != nullptr) {
        st.Add(v.vals[k]);
      } else if (v.IsNull(k)) {
        // NULL contributes nothing.
      } else if (v.type == DataType::kInt64) {
        st.AddInt64(v.i64[k]);
      } else if (v.type == DataType::kDouble) {
        st.AddDouble(v.f64[k]);
      } else {
        st.Add(v.GetValue(k));
      }
    }
  }
  // Merge the partials into the running groups in first-seen order.
  for (size_t p = 0; p < part_groups_.size(); ++p) {
    std::vector<AggState>& states = groups_[part_groups_[p]].states;
    for (size_t a = 0; a < aggs.size(); ++a) {
      states[a].Merge(part_states_[p * aggs.size() + a]);
    }
    part_of_[part_groups_[p]] = kNoPart;
  }
  part_groups_.clear();
  return util::Status::OK();
}

size_t GroupedAgg::GroupIndex(const Row& key) {
  auto [it, inserted] = index_.try_emplace(key, groups_.size());
  if (inserted) groups_.push_back(Group{key, NewAggStates(*aggs_)});
  return it->second;
}

void GroupedAgg::Merge(const GroupedAgg& other) {
  for (const Group& g : other.groups_) {
    std::vector<AggState>& states = groups_[GroupIndex(g.key)].states;
    for (size_t a = 0; a < states.size(); ++a) states[a].Merge(g.states[a]);
  }
}

std::vector<Row> GroupedAgg::Finish(const Schema& out_schema) const {
  std::vector<Row> rows;
  rows.reserve(groups_.size());
  for (const Group& g : groups_) {
    rows.push_back(FinalizeAggRow(g.key, g.states, *aggs_, out_schema));
  }
  if (rows.empty() && key_cols_.empty()) {
    rows.push_back(FinalizeAggRow({}, NewAggStates(*aggs_), *aggs_,
                                  out_schema));
  }
  return rows;
}

std::string NodeLabel(const PlanNode& plan) {
  switch (plan.kind()) {
    case PlanKind::kScan:
      return plan.ToString();  // a leaf: ToString has no nested input
    case PlanKind::kFilter:
      return "Filter(" +
             static_cast<const FilterNode&>(plan).predicate->ToString() + ")";
    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(plan);
      std::vector<std::string> parts;
      for (const auto& item : n.items) {
        parts.push_back(item.expr->ToString() +
                        (item.alias.empty() ? "" : " AS " + item.alias));
      }
      return "Project([" + util::Join(parts, ", ") + "])";
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(plan);
      std::vector<std::string> parts;
      for (const auto& a : n.aggs) {
        parts.push_back(std::string(AggFuncName(a.func)) +
                        (a.arg ? "(" + a.arg->ToString() + ")" : ""));
      }
      return "Aggregate(by=[" + util::Join(n.group_by, ", ") + "], aggs=[" +
             util::Join(parts, ", ") + "])";
    }
    case PlanKind::kSort: {
      const auto& n = static_cast<const SortNode&>(plan);
      std::vector<std::string> parts;
      for (const auto& k : n.keys) {
        parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
      }
      std::string out = "Sort([" + util::Join(parts, ", ") + "]";
      if (n.limit_hint > 0) out += util::StrFormat(", top=%zu", n.limit_hint);
      return out + ")";
    }
    case PlanKind::kLimit: {
      const auto& n = static_cast<const LimitNode&>(plan);
      return util::StrFormat("Limit(%zu, offset=%zu)", n.limit, n.offset);
    }
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(plan);
      return "HashJoin(" + n.left_col + " = " + n.right_col + ")";
    }
  }
  return "<unknown>";
}

namespace {

void ExplainWalk(const PlanNode& plan, int depth,
                 std::vector<std::string>* out) {
  out->push_back(std::string(static_cast<size_t>(depth) * 2, ' ') +
                 NodeLabel(plan));
  for (const PlanPtr& in : PlanInputs(plan)) ExplainWalk(*in, depth + 1, out);
}

}  // namespace

std::vector<std::string> ExplainPlanLines(const PlanNode& plan) {
  std::vector<std::string> lines;
  ExplainWalk(plan, 0, &lines);
  return lines;
}

util::StatusOr<ResultSet> ExecutePlan(const PlanPtr& plan,
                                      const Database& db,
                                      obs::QueryProfile* profile) {
  return ExecuteOptimized(OptimizePlan(plan, db), db, profile);
}

util::StatusOr<ResultSet> ExecuteOptimized(const PlanPtr& optimized,
                                           const Database& db,
                                           obs::QueryProfile* profile) {
  if (optimized == nullptr) {
    return util::Status::InvalidArgument("null plan");
  }
  const int64_t t0 = profile == nullptr ? 0 : ProfileNowNs();
  // Sets profile->total_ns to the whole call, the cache lookup included.
  auto stamp_total = [&] {
    if (obs::kProfilingCompiledIn && profile != nullptr) {
      profile->total_ns = static_cast<uint64_t>(ProfileNowNs() - t0);
    }
  };
  QueryCache& qc = db.cache();
  QueryCache::ResultKey key;
  if (qc.config().mode == CacheConfig::Mode::kFull) {
    key = QueryCache::MakeResultKey(*optimized, db);
  }
  if (!key.cacheable) {
    qc.RecordResultBypass();
    if (profile != nullptr) profile->cache = "bypass";
  } else if (std::shared_ptr<const ResultSet> hit = qc.GetResult(key)) {
    // Nothing executed: no operator tree, and the engine label says so.
    // The result bytes are identical to a real run by contract.
    if (profile != nullptr) {
      profile->cache = "hit";
      profile->engine = "cache";
    }
    stamp_total();
    return *hit;  // copy out; the cached ResultSet stays immutable
  } else if (profile != nullptr) {
    profile->cache = "miss";
  }
  auto result =
      ExecuteColumnar(*optimized, db, profile, &db.parallel_config());
  stamp_total();
  if (key.cacheable && result.ok()) qc.PutResult(key, *result);
  return result;
}

}  // namespace statsdb
}  // namespace ff

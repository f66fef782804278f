#include "statsdb/exec.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "obs/runtime_stats.h"
#include "statsdb/database.h"
#include "statsdb/parallel_exec.h"
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

/// Sets `*out` to rows [lo, hi) of `rows` as one `vals`-mode vector per
/// column: exact runtime-typed Values, whatever the declared types. The
/// cells are moved out of a mutable `rows` and copied from a const one.
template <typename Rows>
void FillColumns(Rows& rows, size_t lo, size_t hi, Batch* out) {
  *out = Batch();
  out->num_rows = hi - lo;
  out->cols.resize(rows[lo].size());
  for (size_t c = 0; c < out->cols.size(); ++c) {
    ColumnVector& v = out->cols[c];
    v.length = hi - lo;
    v.own_vals.reserve(hi - lo);
    for (size_t r = lo; r < hi; ++r) {
      v.own_vals.push_back(std::move(rows[r][c]));
    }
    v.Seal();
  }
}

/// Emits `rows` as one columnar batch in `*out`; nullptr when empty.
const Batch* EmitRows(std::vector<Row> rows, Batch* out) {
  if (rows.empty()) return nullptr;
  FillColumns(rows, 0, rows.size(), out);
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

class ScanIterator : public BatchIterator {
 public:
  ScanIterator(const ScanNode& node, const Database& db,
               obs::OperatorProfile* prof = nullptr)
      : node_(&node), db_(&db), prof_(prof) {}
  /// Single-chunk scan reusing a shared coordinator-built setup (one
  /// parallel morsel); `chunk` is an entry of SurveyScanChunks(*setup).
  ScanIterator(const ScanSetup* setup, size_t chunk,
               obs::OperatorProfile* prof = nullptr)
      : setup_(setup), chunk_(chunk), end_chunk_(chunk + 1), prof_(prof) {}

  util::Status Init() {
    if (setup_ == nullptr) {
      FF_ASSIGN_OR_RETURN(own_setup_, PrepareScan(*node_, *db_));
      setup_ = &own_setup_;
      end_chunk_ = (setup_->store->num_rows() + kChunkRows - 1) / kChunkRows;
    }
    return util::Status::OK();
  }

  const Schema& schema() const override { return setup_->table->schema(); }

  util::StatusOr<const Batch*> Next() override {
    const Schema& schema = setup_->table->schema();
    size_t num_rows = setup_->store->num_rows();
    while (chunk_ < end_chunk_) {
      size_t chunk = chunk_++;
      size_t lo = chunk * kChunkRows;
      size_t hi = std::min(lo + kChunkRows, num_rows);
      size_t span = hi - lo;

      // Index access path: collect this chunk's matching rows first so
      // chunks without matches are skipped outright. A single-chunk scan
      // starts mid-table, so first skip the matches below `lo`.
      std::vector<uint32_t> sel0;
      if (setup_->use_index) {
        const std::vector<size_t>& ir = setup_->index_rows;
        index_pos_ = static_cast<size_t>(
            std::lower_bound(ir.begin() + index_pos_, ir.end(), lo) -
            ir.begin());
        while (index_pos_ < ir.size() && ir[index_pos_] < hi) {
          sel0.push_back(static_cast<uint32_t>(ir[index_pos_] - lo));
          ++index_pos_;
        }
        if (sel0.empty()) continue;
        if constexpr (obs::kProfilingCompiledIn) {
          if (prof_ != nullptr) prof_->index_rows += sel0.size();
        }
      }

      if (ChunkPruned(*setup_, chunk, span)) {
        if constexpr (obs::kProfilingCompiledIn) {
          if (prof_ != nullptr) ++prof_->chunks_pruned;
        }
        continue;
      }
      if constexpr (obs::kProfilingCompiledIn) {
        if (prof_ != nullptr) ++prof_->chunks_scanned;
      }

      // Zero-copy chunk views.
      out_ = Batch();
      out_.num_rows = span;
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
        // kChunkRows is a multiple of 64, so chunks start word-aligned.
        if (cd.null_count > 0) v.null_words = cd.null_words.data() + lo / 64;
        out_.cols.push_back(std::move(v));
      }

      if (setup_->use_index) {
        // Evaluate conjuncts over the index-selected rows only.
        std::vector<uint32_t> sel = std::move(sel0);
        for (const auto& c : setup_->conjuncts) {
          if (sel.empty()) break;
          FF_ASSIGN_OR_RETURN(
              ColumnVector v,
              EvalBatch(*c, out_, schema, sel.data(), sel.size()));
          std::vector<uint8_t> keep(sel.size(), 1);
          ApplyBoolMaskSel(v, sel.size(), &keep);
          std::vector<uint32_t> refined;
          refined.reserve(sel.size());
          for (size_t k = 0; k < sel.size(); ++k) {
            if (keep[k]) refined.push_back(sel[k]);
          }
          sel = std::move(refined);
        }
        if (sel.empty()) continue;
        out_.has_sel = true;
        out_.sel = std::move(sel);
        return &out_;
      }

      if (setup_->conjuncts.empty()) return &out_;

      // Each conjunct is evaluated over every row of the chunk (matching
      // the reference engine, whose AND evaluates both sides always);
      // the masks are then intersected.
      std::vector<uint8_t> keep(span, 1);
      for (const auto& c : setup_->conjuncts) {
        FF_ASSIGN_OR_RETURN(ColumnVector v,
                            EvalBatch(*c, out_, schema, nullptr, span));
        ApplyBoolMask(v, span, &keep);
      }
      std::vector<uint32_t> sel;
      for (size_t k = 0; k < span; ++k) {
        if (keep[k]) sel.push_back(static_cast<uint32_t>(k));
      }
      if (sel.empty()) continue;
      if (sel.size() < span) {
        out_.has_sel = true;
        out_.sel = std::move(sel);
      }
      return &out_;
    }
    return nullptr;
  }

 private:
  const ScanNode* node_ = nullptr;   // whole-table scan only
  const Database* db_ = nullptr;     // whole-table scan only
  ScanSetup own_setup_;              // whole-table scan only
  const ScanSetup* setup_ = nullptr;
  size_t chunk_ = 0;      // next chunk to scan
  size_t end_chunk_ = 0;  // one past the last chunk to scan
  size_t index_pos_ = 0;
  obs::OperatorProfile* prof_ = nullptr;
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

// ------------------------------------------------------------- aggregate

class AggregateIterator : public BatchIterator {
 public:
  AggregateIterator(const AggregateNode& node, IterPtr input)
      : node_(node), input_(std::move(input)) {}

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
    FF_RETURN_IF_ERROR(groups.FoldAll(*input_));
    return EmitRows(groups.Finish(out_schema_), &out_);
  }

 private:
  const AggregateNode& node_;
  IterPtr input_;
  Schema out_schema_;
  std::vector<size_t> key_cols_;
  bool done_ = false;
  Batch out_;
};

// ------------------------------------------------------------------ sort

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
      // (the heap's top is the worst retained row).
      std::priority_queue<Entry, std::vector<Entry>, decltype(before)> heap(
          before);
      size_t seq = 0;
      for (;;) {
        FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
        if (in == nullptr) break;
        for (size_t k = 0; k < in->ActiveRows(); ++k) {
          heap.push(Entry{in->MaterializeRow(in->RowAt(k)), seq++});
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

// ---------------------------------------------------------- materialized

class MaterializedIterator : public BatchIterator {
 public:
  explicit MaterializedIterator(const MaterializedNode& node) : node_(node) {}

  util::Status Init() { return util::Status::OK(); }

  const Schema& schema() const override { return node_.schema; }

  util::StatusOr<const Batch*> Next() override {
    size_t n = node_.rows->size();
    if (next_ == n) return nullptr;
    size_t end = batch_ < node_.batch_ends.size() ? node_.batch_ends[batch_++]
                                                  : n;
    FillColumns(*node_.rows, next_, end, &out_);
    next_ = end;
    return &out_;
  }

 private:
  const MaterializedNode& node_;
  size_t next_ = 0;   // first row of the next batch
  size_t batch_ = 0;  // index into batch_ends
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
      DataType ct = s.table->schema().column(*idx).type;
      DataType lt = sp->literal.type();
      bool comparable =
          lt == DataType::kNull || ct == lt ||
          ((ct == DataType::kInt64 || ct == DataType::kDouble) &&
           (lt == DataType::kInt64 || lt == DataType::kDouble));
      if (comparable) s.zone_preds.emplace_back(*idx, *sp);
    }
  }
  if (!node.index_column.empty()) {
    FF_ASSIGN_OR_RETURN(s.index_rows,
                        s.table->Lookup(node.index_column, node.index_value));
    s.use_index = true;
  }
  return s;
}

std::vector<size_t> SurveyScanChunks(const ScanSetup& setup) {
  std::vector<size_t> out;
  size_t num_rows = setup.store->num_rows();
  size_t pos = 0;  // cursor into index_rows (ascending)
  for (size_t chunk = 0; chunk * kChunkRows < num_rows; ++chunk) {
    size_t lo = chunk * kChunkRows;
    size_t hi = std::min(lo + kChunkRows, num_rows);
    if (setup.use_index) {
      bool any = pos < setup.index_rows.size() && setup.index_rows[pos] < hi;
      while (pos < setup.index_rows.size() && setup.index_rows[pos] < hi) {
        ++pos;
      }
      if (!any) continue;
    }
    if (ChunkPruned(setup, chunk, hi - lo)) continue;
    out.push_back(chunk);
  }
  return out;
}

util::StatusOr<IterPtr> BuildChainIterator(const PlanNode& plan,
                                           const ScanSetup* setup,
                                           size_t chunk,
                                           obs::OperatorProfile* prof) {
  if (plan.kind() == PlanKind::kScan) {
    return WrapProfiled(MakeIter<ScanIterator>(setup, chunk, prof), plan,
                        prof);
  }
  if (plan.kind() != PlanKind::kFilter && plan.kind() != PlanKind::kProject) {
    return util::Status::Internal("BuildChainIterator: not a scan chain: " +
                                  plan.ToString());
  }
  obs::OperatorProfile* cp = prof == nullptr ? nullptr : prof->AddChild();
  FF_ASSIGN_OR_RETURN(
      IterPtr in, BuildChainIterator(*PlanInputs(plan)[0], setup, chunk, cp));
  return WrapProfiled(BuildIteratorOver(plan, std::move(in)), plan, prof);
}

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
      ScanSetup setup,
      PrepareScan(static_cast<const ScanNode&>(*leaf), db));
  std::vector<size_t> chunks = SurveyScanChunks(setup);
  if (chunks.empty() && plan->kind() == PlanKind::kFilter) {
    // No chain iterator is built, so run the check SELECT's Filter
    // makes when it is built over an empty table.
    FF_RETURN_IF_ERROR(
        CheckBoolPredicate(static_cast<const FilterNode&>(*plan).predicate,
                           setup.table->schema()));
  }
  std::vector<size_t> ids;
  for (size_t chunk : chunks) {
    FF_ASSIGN_OR_RETURN(IterPtr it, BuildChainIterator(*plan, &setup, chunk));
    FF_ASSIGN_OR_RETURN(const Batch* batch, it->Next());  // at most one
    if (batch == nullptr) continue;
    for (size_t k = 0; k < batch->ActiveRows(); ++k) {
      ids.push_back(chunk * kChunkRows + batch->RowAt(k));
    }
  }
  return ids;
}

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
    case PlanKind::kMaterialized:
      return {};
  }
  return {};
}

util::StatusOr<IterPtr> BuildIterator(const PlanNode& plan, const Database& db,
                                      obs::OperatorProfile* prof) {
  // One profile child per plan input, created lazily per case (leaves
  // get none).
  auto child = [prof]() {
    return prof == nullptr ? nullptr : prof->AddChild();
  };
  switch (plan.kind()) {
    case PlanKind::kScan:
      return WrapProfiled(
          MakeIter<ScanIterator>(static_cast<const ScanNode&>(plan), db, prof),
          plan, prof);
    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(plan);
      // Two children: [0] = left (probe), [1] = right (build), matching
      // the parallel rewriter's traversal order.
      obs::OperatorProfile* cl = child();
      obs::OperatorProfile* cr = child();
      FF_ASSIGN_OR_RETURN(IterPtr l, BuildIterator(*n.left, db, cl));
      FF_ASSIGN_OR_RETURN(IterPtr r, BuildIterator(*n.right, db, cr));
      return WrapProfiled(
          MakeIter<HashJoinIterator>(n, std::move(l), std::move(r)), plan,
          prof);
    }
    case PlanKind::kMaterialized:
      return WrapProfiled(MakeIter<MaterializedIterator>(
                              static_cast<const MaterializedNode&>(plan)),
                          plan, prof);
    default: {  // single-input operators
      FF_ASSIGN_OR_RETURN(IterPtr in,
                          BuildIterator(*PlanInputs(plan)[0], db, child()));
      return WrapProfiled(BuildIteratorOver(plan, std::move(in)), plan, prof);
    }
  }
}

util::Status DrainRows(BatchIterator& it, std::vector<Row>* out,
                       std::vector<size_t>* batch_ends) {
  for (;;) {
    FF_ASSIGN_OR_RETURN(const Batch* batch, it.Next());
    if (batch == nullptr) return util::Status::OK();
    for (size_t k = 0; k < batch->ActiveRows(); ++k) {
      out->push_back(batch->MaterializeRow(batch->RowAt(k)));
    }
    if (batch_ends != nullptr && batch->ActiveRows() > 0) {
      batch_ends->push_back(out->size());
    }
  }
}

util::StatusOr<ResultSet> Drain(BatchIterator& it) {
  ResultSet rs{it.schema(), {}};
  FF_RETURN_IF_ERROR(DrainRows(it, &rs.rows));
  return rs;
}

util::StatusOr<ResultSet> ExecuteColumnar(const PlanNode& plan,
                                          const Database& db,
                                          obs::QueryProfile* profile) {
  if (profile == nullptr) {
    FF_ASSIGN_OR_RETURN(IterPtr it, BuildIterator(plan, db));
    return Drain(*it);
  }
  profile->root = std::make_unique<obs::OperatorProfile>();
  int64_t t0 = 0;
  if constexpr (obs::kProfilingCompiledIn) t0 = obs::RuntimeNowNs();
  FF_ASSIGN_OR_RETURN(IterPtr it,
                      BuildIterator(plan, db, profile->root.get()));
  FF_ASSIGN_OR_RETURN(ResultSet rs, Drain(*it));
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
    case PlanKind::kMaterialized:
      return plan.ToString();  // leaves: ToString has no nested input
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
  PlanPtr optimized = OptimizePlan(plan, db);
  // Consults the result cache when the database's cache config enables
  // it, then dispatches to the morsel-parallel executor when the
  // parallel config (and the hardware) allow it; byte-identical results
  // in every combination, with a zero-overhead serial path otherwise.
  return ExecuteOptimized(optimized, db, profile);
}

}  // namespace statsdb
}  // namespace ff

#include "statsdb/plan.h"

#include <algorithm>

#include "statsdb/database.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/summary_stats.h"

namespace ff {
namespace statsdb {

// ------------------------------------------------------- shared helpers

void AggState::Add(const Value& v) {
  if (v.is_null()) return;
  ++count;
  if (v.type() == DataType::kInt64 || v.type() == DataType::kDouble) {
    sum += *v.AsDouble();
    if (v.type() == DataType::kDouble) sum_is_double = true;
    if (keep_values) values.push_back(*v.AsDouble());
  }
  if (min_v.is_null() || v.Compare(min_v) < 0) min_v = v;
  if (max_v.is_null() || v.Compare(max_v) > 0) max_v = v;
}

void AggState::AddInt64(int64_t v) {
  ++count;
  sum += static_cast<double>(v);
  if (keep_values) values.push_back(static_cast<double>(v));
  if (min_v.is_null() || v < min_v.int64_value()) min_v = Value::Int64(v);
  if (max_v.is_null() || v > max_v.int64_value()) max_v = Value::Int64(v);
}

void AggState::AddDouble(double v) {
  ++count;
  sum += v;
  sum_is_double = true;
  if (keep_values) values.push_back(v);
  // Comparisons spelled to match Value::Compare's NaN behavior (NaN is
  // never a new min but always a new max).
  if (min_v.is_null() || v < min_v.double_value()) min_v = Value::Double(v);
  if (max_v.is_null() || !(v <= max_v.double_value())) {
    max_v = Value::Double(v);
  }
}

void AggState::Merge(const AggState& o) {
  count += o.count;
  sum += o.sum;
  sum_is_double = sum_is_double || o.sum_is_double;
  values.insert(values.end(), o.values.begin(), o.values.end());
  if (!o.min_v.is_null() && (min_v.is_null() || o.min_v.Compare(min_v) < 0)) {
    min_v = o.min_v;
  }
  if (!o.max_v.is_null() && (max_v.is_null() || o.max_v.Compare(max_v) > 0)) {
    max_v = o.max_v;
  }
}

std::vector<AggState> NewAggStates(const std::vector<AggSpec>& aggs) {
  std::vector<AggState> states(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggFunc::kP95) states[a].keep_values = true;
  }
  return states;
}

util::StatusOr<Schema> AggOutputSchema(
    const Schema& in, const std::vector<std::string>& group_by,
    const std::vector<AggSpec>& aggs, std::vector<size_t>* key_cols) {
  for (const auto& g : group_by) {
    FF_ASSIGN_OR_RETURN(size_t i, in.IndexOf(g));
    key_cols->push_back(i);
  }

  // Output schema: group-by columns, then aggregates.
  std::vector<Column> out_cols;
  for (size_t i : *key_cols) out_cols.push_back(in.column(i));
  for (const auto& a : aggs) {
    DataType t = DataType::kNull;
    switch (a.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        t = DataType::kInt64;
        break;
      case AggFunc::kAvg:
        t = DataType::kDouble;
        break;
      case AggFunc::kSum: {
        FF_ASSIGN_OR_RETURN(DataType at, a.arg->ResultType(in));
        if (at != DataType::kInt64 && at != DataType::kDouble &&
            at != DataType::kNull) {
          return util::Status::InvalidArgument("SUM requires numeric");
        }
        t = at == DataType::kInt64 ? DataType::kInt64 : DataType::kDouble;
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        FF_ASSIGN_OR_RETURN(DataType at, a.arg->ResultType(in));
        t = at == DataType::kNull ? DataType::kString : at;
        break;
      }
      case AggFunc::kP95: {
        FF_ASSIGN_OR_RETURN(DataType at, a.arg->ResultType(in));
        if (at != DataType::kInt64 && at != DataType::kDouble &&
            at != DataType::kNull) {
          return util::Status::InvalidArgument("P95 requires numeric");
        }
        t = DataType::kDouble;
        break;
      }
    }
    std::string name = a.alias;
    if (name.empty()) {
      name = a.func == AggFunc::kCountStar
                 ? "count"
                 : util::ToLower(AggFuncName(a.func)) + "_" +
                       a.arg->ToString();
    }
    out_cols.push_back(Column{name, t});
    if (a.func == AggFunc::kAvg) {
      FF_ASSIGN_OR_RETURN(DataType at, a.arg->ResultType(in));
      if (at != DataType::kInt64 && at != DataType::kDouble &&
          at != DataType::kNull) {
        return util::Status::InvalidArgument("AVG requires numeric");
      }
    }
  }
  return Schema(std::move(out_cols));
}

Row FinalizeAggRow(const Row& key, const std::vector<AggState>& states,
                   const std::vector<AggSpec>& aggs,
                   const Schema& out_schema) {
  Row row = key;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggState& st = states[a];
    switch (aggs[a].func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        row.push_back(Value::Int64(static_cast<int64_t>(st.count)));
        break;
      case AggFunc::kSum:
        if (st.count == 0) {
          row.push_back(Value::Null());
        } else if (st.sum_is_double || out_schema.column(row.size()).type ==
                                           DataType::kDouble) {
          row.push_back(Value::Double(st.sum));
        } else {
          row.push_back(Value::Int64(static_cast<int64_t>(st.sum)));
        }
        break;
      case AggFunc::kAvg:
        row.push_back(st.count == 0
                          ? Value::Null()
                          : Value::Double(st.sum /
                                          static_cast<double>(st.count)));
        break;
      case AggFunc::kMin:
        row.push_back(st.min_v);
        break;
      case AggFunc::kMax:
        row.push_back(st.max_v);
        break;
      case AggFunc::kP95: {
        if (st.values.empty()) {
          row.push_back(Value::Null());
          break;
        }
        auto p = util::Percentile(st.values, 95.0);
        row.push_back(p.ok() ? Value::Double(*p) : Value::Null());
        break;
      }
    }
  }
  return row;
}

Schema JoinOutputSchema(const Schema& l, const Schema& r) {
  std::vector<Column> cols = l.columns();
  for (const auto& c : r.columns()) {
    std::string name = c.name;
    bool clash = false;
    for (const auto& existing : cols) {
      if (util::EqualsIgnoreCase(existing.name, name)) {
        clash = true;
        break;
      }
    }
    cols.push_back(Column{clash ? name + "_r" : name, c.type});
  }
  return Schema(std::move(cols));
}

bool TypesComparable(DataType a, DataType b) {
  auto numeric = [](DataType t) {
    return t == DataType::kInt64 || t == DataType::kDouble;
  };
  return a == b || (numeric(a) && numeric(b));
}

bool IndexKeyUsable(DataType column_type, const Value& key) {
  return !key.is_null() && TypesComparable(column_type, key.type());
}

// ------------------------------------------------------------ the nodes

std::string ScanNode::ToString() const {
  std::string out = "Scan(" + table;
  if (predicate != nullptr) {
    out += ", pred=" + predicate->ToString();
    // Conjuncts of the shape `column op literal` drive zone-map pruning.
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(predicate, &conjuncts);
    std::vector<std::string> prunable;
    for (const auto& c : conjuncts) {
      auto sp = MatchSimplePredicate(*c);
      if (!sp.has_value()) continue;
      if (std::find(prunable.begin(), prunable.end(), sp->column) ==
          prunable.end()) {
        prunable.push_back(sp->column);
      }
    }
    if (!prunable.empty()) out += ", prune=[" + util::Join(prunable, ", ") + "]";
  }
  if (!index_keys.empty()) {
    std::vector<std::string> columns;
    for (const auto& k : index_keys) columns.push_back(k.column);
    out += ", index=" + util::Join(columns, "|");
  }
  return out + ")";
}

std::string FilterNode::ToString() const {
  return "Filter(" + predicate->ToString() + ", " + input->ToString() + ")";
}

std::string ProjectNode::ToString() const {
  std::vector<std::string> parts;
  for (const auto& item : items) {
    parts.push_back(item.expr->ToString() +
                    (item.alias.empty() ? "" : " AS " + item.alias));
  }
  return "Project([" + util::Join(parts, ", ") + "], " + input->ToString() +
         ")";
}

std::string AggregateNode::ToString() const {
  std::vector<std::string> parts;
  for (const auto& a : aggs) {
    parts.push_back(std::string(AggFuncName(a.func)) +
                    (a.arg ? "(" + a.arg->ToString() + ")" : ""));
  }
  return "Aggregate(by=[" + util::Join(group_by, ", ") + "], aggs=[" +
         util::Join(parts, ", ") + "], " + input->ToString() + ")";
}

std::string SortNode::ToString() const {
  std::vector<std::string> parts;
  for (const auto& k : keys) {
    parts.push_back(k.column + (k.ascending ? " ASC" : " DESC"));
  }
  std::string top =
      limit_hint > 0 ? util::StrFormat("top=%zu, ", limit_hint) : "";
  return "Sort([" + util::Join(parts, ", ") + "], " + top +
         input->ToString() + ")";
}

std::string LimitNode::ToString() const {
  return util::StrFormat("Limit(%zu, offset=%zu, ", limit, offset) +
         input->ToString() + ")";
}

std::string DistinctNode::ToString() const {
  return "Distinct(" + input->ToString() + ")";
}

std::string HashJoinNode::ToString() const {
  return "HashJoin(" + left_col + " = " + right_col + ", " +
         left->ToString() + ", " + right->ToString() + ")";
}

// ------------------------------------------------------ schema inference

util::StatusOr<Schema> InferSchema(const PlanNode& plan, const Database& db) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& n = static_cast<const ScanNode&>(plan);
      FF_ASSIGN_OR_RETURN(const Table* t, db.table(n.table));
      return t->schema();
    }
    case PlanKind::kFilter:
      return InferSchema(*static_cast<const FilterNode&>(plan).input, db);
    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(plan);
      FF_ASSIGN_OR_RETURN(Schema in, InferSchema(*n.input, db));
      std::vector<Column> cols;
      for (const auto& item : n.items) {
        FF_ASSIGN_OR_RETURN(DataType t, item.expr->ResultType(in));
        std::string name =
            item.alias.empty() ? item.expr->ToString() : item.alias;
        cols.push_back(
            Column{name, t == DataType::kNull ? DataType::kString : t});
      }
      return Schema(std::move(cols));
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(plan);
      FF_ASSIGN_OR_RETURN(Schema in, InferSchema(*n.input, db));
      std::vector<size_t> key_cols;
      return AggOutputSchema(in, n.group_by, n.aggs, &key_cols);
    }
    case PlanKind::kSort:
      return InferSchema(*static_cast<const SortNode&>(plan).input, db);
    case PlanKind::kLimit:
      return InferSchema(*static_cast<const LimitNode&>(plan).input, db);
    case PlanKind::kDistinct:
      return InferSchema(*static_cast<const DistinctNode&>(plan).input, db);
    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(plan);
      FF_ASSIGN_OR_RETURN(Schema l, InferSchema(*n.left, db));
      FF_ASSIGN_OR_RETURN(Schema r, InferSchema(*n.right, db));
      return JoinOutputSchema(l, r);
    }
  }
  return util::Status::Internal("unhandled plan kind");
}

// -------------------------------------------------------- constructors

PlanPtr MakeScan(std::string table) {
  return std::make_shared<ScanNode>(std::move(table));
}
PlanPtr MakeFilter(PlanPtr input, ExprPtr predicate) {
  return std::make_shared<FilterNode>(std::move(input), std::move(predicate));
}
PlanPtr MakeProject(PlanPtr input, std::vector<ProjectItem> items) {
  return std::make_shared<ProjectNode>(std::move(input), std::move(items));
}
PlanPtr MakeAggregate(PlanPtr input, std::vector<std::string> group_by,
                      std::vector<AggSpec> aggs) {
  return std::make_shared<AggregateNode>(std::move(input),
                                         std::move(group_by),
                                         std::move(aggs));
}
PlanPtr MakeSort(PlanPtr input, std::vector<SortKey> keys) {
  return std::make_shared<SortNode>(std::move(input), std::move(keys));
}
PlanPtr MakeLimit(PlanPtr input, size_t limit, size_t offset) {
  return std::make_shared<LimitNode>(std::move(input), limit, offset);
}
PlanPtr MakeDistinct(PlanPtr input) {
  return std::make_shared<DistinctNode>(std::move(input));
}
PlanPtr MakeHashJoin(PlanPtr left, PlanPtr right, std::string left_col,
                     std::string right_col) {
  return std::make_shared<HashJoinNode>(std::move(left), std::move(right),
                                        std::move(left_col),
                                        std::move(right_col));
}

}  // namespace statsdb
}  // namespace ff

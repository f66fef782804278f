#include "oracle/row_engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

/// Keeps the rows of `rs` for which `predicate` is TRUE (WHERE
/// semantics: NULL does not pass).
util::Status FilterRows(const ExprPtr& predicate, ResultSet* rs) {
  FF_ASSIGN_OR_RETURN(DataType t, predicate->ResultType(rs->schema));
  if (t != DataType::kBool && t != DataType::kNull) {
    return util::Status::InvalidArgument(
        "WHERE predicate must be boolean: " + predicate->ToString());
  }
  std::vector<Row> kept;
  for (auto& row : rs->rows) {
    FF_ASSIGN_OR_RETURN(Value v, predicate->Eval(row, rs->schema));
    if (!v.is_null() && v.bool_value()) kept.push_back(std::move(row));
  }
  rs->rows = std::move(kept);
  return util::Status::OK();
}

util::StatusOr<ResultSet> Project(const ProjectNode& n, ResultSet in) {
  std::vector<Column> cols;
  for (const auto& item : n.items) {
    FF_ASSIGN_OR_RETURN(DataType t, item.expr->ResultType(in.schema));
    std::string name = item.alias.empty() ? item.expr->ToString() : item.alias;
    // NULL-typed output columns (e.g. literal NULL) degrade to string.
    cols.push_back(
        Column{name, t == DataType::kNull ? DataType::kString : t});
  }
  ResultSet out{Schema(std::move(cols)), {}};
  out.rows.reserve(in.rows.size());
  for (const auto& row : in.rows) {
    Row projected;
    projected.reserve(n.items.size());
    for (const auto& item : n.items) {
      FF_ASSIGN_OR_RETURN(Value v, item.expr->Eval(row, in.schema));
      projected.push_back(std::move(v));
    }
    out.rows.push_back(std::move(projected));
  }
  return out;
}

util::StatusOr<ResultSet> Aggregate(const AggregateNode& n, ResultSet in) {
  std::vector<size_t> key_cols;
  FF_ASSIGN_OR_RETURN(Schema out_schema,
                      AggOutputSchema(in.schema, n.group_by, n.aggs,
                                      &key_cols));
  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  std::unordered_map<Row, size_t, RowHash, RowEq> group_index;
  std::vector<Group> groups;
  for (const auto& row : in.rows) {
    Row key;
    for (size_t i : key_cols) key.push_back(row[i]);
    auto [it, inserted] = group_index.try_emplace(key, groups.size());
    if (inserted) groups.push_back(Group{key, NewAggStates(n.aggs)});
    Group& g = groups[it->second];
    for (size_t a = 0; a < n.aggs.size(); ++a) {
      if (n.aggs[a].func == AggFunc::kCountStar) {
        ++g.states[a].count;
      } else {
        FF_ASSIGN_OR_RETURN(Value v, n.aggs[a].arg->Eval(row, in.schema));
        g.states[a].Add(v);
      }
    }
  }
  // A global aggregate over an empty input still yields one row.
  if (groups.empty() && key_cols.empty()) {
    groups.push_back(Group{{}, NewAggStates(n.aggs)});
  }
  ResultSet out{std::move(out_schema), {}};
  for (const auto& g : groups) {
    out.rows.push_back(FinalizeAggRow(g.key, g.states, n.aggs, out.schema));
  }
  return out;
}

util::StatusOr<ResultSet> Sort(const SortNode& n, ResultSet in) {
  std::vector<size_t> cols;
  for (const auto& k : n.keys) {
    FF_ASSIGN_OR_RETURN(size_t i, in.schema.IndexOf(k.column));
    cols.push_back(i);
  }
  std::stable_sort(in.rows.begin(), in.rows.end(),
                   [&](const Row& a, const Row& b) {
                     for (size_t k = 0; k < cols.size(); ++k) {
                       int c = a[cols[k]].Compare(b[cols[k]]);
                       if (c != 0) return n.keys[k].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return in;
}

util::StatusOr<ResultSet> HashJoin(const HashJoinNode& n, ResultSet l,
                                   ResultSet r) {
  FF_ASSIGN_OR_RETURN(size_t lc, l.schema.IndexOf(n.left_col));
  FF_ASSIGN_OR_RETURN(size_t rc, r.schema.IndexOf(n.right_col));
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> build;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    if (r.rows[i][rc].is_null()) continue;  // NULL never joins
    build[Row{r.rows[i][rc]}].push_back(i);
  }
  ResultSet out{JoinOutputSchema(l.schema, r.schema), {}};
  for (const auto& lrow : l.rows) {
    if (lrow[lc].is_null()) continue;
    auto it = build.find(Row{lrow[lc]});
    if (it == build.end()) continue;
    for (size_t ri : it->second) {
      Row joined = lrow;
      joined.insert(joined.end(), r.rows[ri].begin(), r.rows[ri].end());
      out.rows.push_back(std::move(joined));
    }
  }
  return out;
}

}  // namespace

util::StatusOr<ResultSet> ExecuteRowOracle(const PlanNode& plan,
                                           const Database& db) {
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& n = static_cast<const ScanNode&>(plan);
      FF_ASSIGN_OR_RETURN(const Table* t, db.table(n.table));
      ResultSet rs{t->schema(), t->rows()};
      // The index annotation is a pure access-path hint: its conjunct
      // stays in the predicate, so applying the predicate alone is exact.
      if (n.predicate != nullptr) {
        FF_RETURN_IF_ERROR(FilterRows(n.predicate, &rs));
      }
      return rs;
    }
    case PlanKind::kFilter: {
      const auto& n = static_cast<const FilterNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      FF_RETURN_IF_ERROR(FilterRows(n.predicate, &in));
      return in;
    }
    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      return Project(n, std::move(in));
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      return Aggregate(n, std::move(in));
    }
    case PlanKind::kSort: {
      const auto& n = static_cast<const SortNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      return Sort(n, std::move(in));
    }
    case PlanKind::kLimit: {
      const auto& n = static_cast<const LimitNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      ResultSet out{in.schema, {}};
      for (size_t i = n.offset; i < in.rows.size() && out.rows.size() < n.limit;
           ++i) {
        out.rows.push_back(std::move(in.rows[i]));
      }
      return out;
    }
    case PlanKind::kDistinct: {
      const auto& n = static_cast<const DistinctNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet in, ExecuteRowOracle(*n.input, db));
      ResultSet out{in.schema, {}};
      std::unordered_set<Row, RowHash, RowEq> seen;
      for (auto& row : in.rows) {
        if (seen.insert(row).second) out.rows.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(plan);
      FF_ASSIGN_OR_RETURN(ResultSet l, ExecuteRowOracle(*n.left, db));
      FF_ASSIGN_OR_RETURN(ResultSet r, ExecuteRowOracle(*n.right, db));
      return HashJoin(n, std::move(l), std::move(r));
    }
  }
  return util::Status::Internal("row oracle: unsupported plan " +
                                plan.ToString());
}

}  // namespace statsdb
}  // namespace ff

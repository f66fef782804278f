// Concrete plan-node classes, shared between the predicate-pushdown
// planner (planner.h) and the executor (exec.h), serial or parallel.
// Members are public so the planner can rewrite trees and the executor
// can dispatch on PlanKind without RTTI.

#ifndef FF_STATSDB_PLAN_H_
#define FF_STATSDB_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "statsdb/query.h"

namespace ff {
namespace statsdb {

/// One hash-index access path of a scan: `column = key`, where `key` is
/// a literal or a `?` placeholder of a prepared statement.
struct IndexKey {
  std::string column;
  ExprPtr key;  // Expr::Kind::kLiteral or kParam
};

/// Table scan. The planner may attach a pushed-down predicate (a
/// conjunction evaluated with WHERE semantics), and may annotate
/// equality conjuncts as servable by a hash index. Pushed conjuncts of
/// the shape `column op literal` (a bound `?` counts as a literal) also
/// drive zone-map chunk pruning in the vectorized executor; the
/// annotations are reflected in ToString().
///
/// An index key may be a `?`: its value is read when the scan is
/// prepared, after binding, so a prepared statement takes the access
/// path its literal form takes. The scan uses the first key whose value
/// passes IndexKeyUsable and runs as a full scan when none does. The
/// planner lists keys in conjunct order and stops at the first usable
/// literal, the one key the literal form would have picked.
class ScanNode : public PlanNode {
 public:
  explicit ScanNode(std::string table_in) : table(std::move(table_in)) {}
  ScanNode(std::string table_in, ExprPtr predicate_in,
           std::vector<IndexKey> index_keys_in)
      : table(std::move(table_in)),
        predicate(std::move(predicate_in)),
        index_keys(std::move(index_keys_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kScan; }

  std::string table;
  ExprPtr predicate;                 // null => unfiltered scan
  std::vector<IndexKey> index_keys;  // empty => no index lookup
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanPtr input_in, ExprPtr predicate_in)
      : input(std::move(input_in)), predicate(std::move(predicate_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kFilter; }

  PlanPtr input;
  ExprPtr predicate;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanPtr input_in, std::vector<ProjectItem> items_in)
      : input(std::move(input_in)), items(std::move(items_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kProject; }

  PlanPtr input;
  std::vector<ProjectItem> items;
};

class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanPtr input_in, std::vector<std::string> group_by_in,
                std::vector<AggSpec> aggs_in)
      : input(std::move(input_in)),
        group_by(std::move(group_by_in)),
        aggs(std::move(aggs_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kAggregate; }

  PlanPtr input;
  std::vector<std::string> group_by;
  std::vector<AggSpec> aggs;
};

class SortNode : public PlanNode {
 public:
  SortNode(PlanPtr input_in, std::vector<SortKey> keys_in,
           size_t limit_hint_in = 0)
      : input(std::move(input_in)),
        keys(std::move(keys_in)),
        limit_hint(limit_hint_in) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kSort; }

  PlanPtr input;
  std::vector<SortKey> keys;
  /// Planner hint: only the first `limit_hint` rows of the sorted output
  /// are consumed (a Limit above), so the vectorized executor may run a
  /// top-k heap instead of a full sort. 0 means no hint.
  size_t limit_hint;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(PlanPtr input_in, size_t limit_in, size_t offset_in)
      : input(std::move(input_in)), limit(limit_in), offset(offset_in) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kLimit; }

  PlanPtr input;
  size_t limit;
  size_t offset;
};

class DistinctNode : public PlanNode {
 public:
  explicit DistinctNode(PlanPtr input_in) : input(std::move(input_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kDistinct; }

  PlanPtr input;
};

class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanPtr left_in, PlanPtr right_in, std::string left_col_in,
               std::string right_col_in)
      : left(std::move(left_in)),
        right(std::move(right_in)),
        left_col(std::move(left_col_in)),
        right_col(std::move(right_col_in)) {}

  std::string ToString() const override;
  PlanKind kind() const override { return PlanKind::kHashJoin; }

  PlanPtr left;
  PlanPtr right;
  std::string left_col;
  std::string right_col;
};

// ------------------------------------------------------- shared helpers
//
// The executors and the test-only row-at-a-time oracle execute
// aggregation, join naming and row hashing through these, so their
// observable results agree by construction.

/// Accumulator for one aggregate within one group.
struct AggState {
  size_t count = 0;
  double sum = 0.0;
  bool sum_is_double = false;
  bool keep_values = false;  // only order statistics (P95) pay for this
  Value min_v;
  Value max_v;
  std::vector<double> values;

  void Add(const Value& v);
  /// Typed adds for single-typed column vectors; same observable
  /// semantics as Add(Value::Int64(v)) / Add(Value::Double(v)).
  void AddInt64(int64_t v);
  void AddDouble(double v);
  /// Folds a partial state over later rows into this one: counts and
  /// sums add, P95 values append, and min/max keep the earlier value on
  /// a Value::Compare tie. Merging into a fresh state copies `o` exactly.
  void Merge(const AggState& o);
};

/// Fresh per-group accumulators; only P95 states buffer raw values.
std::vector<AggState> NewAggStates(const std::vector<AggSpec>& aggs);

/// Resolves group-by columns (appended to *key_cols) and builds the
/// aggregate output schema, validating aggregate argument types.
util::StatusOr<Schema> AggOutputSchema(const Schema& in,
                                       const std::vector<std::string>& group_by,
                                       const std::vector<AggSpec>& aggs,
                                       std::vector<size_t>* key_cols);

/// Finalizes one output row (group key columns then aggregate results).
Row FinalizeAggRow(const Row& key, const std::vector<AggState>& states,
                   const std::vector<AggSpec>& aggs,
                   const Schema& out_schema);

/// Join output schema: left columns then right columns; on (case-
/// insensitive) name clash the right column is suffixed "_r".
Schema JoinOutputSchema(const Schema& l, const Schema& r);

/// Hash/equality over whole rows with Value::Compare semantics (mixed
/// numerics compare equal when numerically equal).
struct RowHash {
  size_t operator()(const Row& key) const {
    size_t h = 0x9e3779b9;
    for (const auto& v : key) h = h * 1315423911u + v.Hash();
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

/// True when values of types `a` and `b` compare without a type error:
/// equal types, or both numeric.
bool TypesComparable(DataType a, DataType b);

/// True when `key` may serve `column = key` from a hash index on a
/// column of type `column_type`: the index path evaluates the conjunct
/// only over the looked-up rows, so a NULL key or one whose comparison
/// errors on every row must take the full scan. One check for literal
/// keys (at plan time) and bound `?` keys (when the scan is prepared).
bool IndexKeyUsable(DataType column_type, const Value& key);

/// Output schema of `plan` without executing it (resolves tables through
/// `db`). Errors mirror what execution would report for schema problems.
util::StatusOr<Schema> InferSchema(const PlanNode& plan, const Database& db);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_PLAN_H_

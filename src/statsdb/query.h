// Logical query plans, their materialized results, and a fluent builder.
// Plans are data: the vectorized executor (exec.h) runs them, after the
// planner pass (planner.h), as streams of column batches.

#ifndef FF_STATSDB_QUERY_H_
#define FF_STATSDB_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "statsdb/expr.h"
#include "statsdb/schema.h"

namespace ff {
namespace statsdb {

class Database;

/// Materialized query result.
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;

  /// CSV with header.
  std::string ToCsv() const;
  /// Fixed-width human-readable table.
  std::string ToPrettyString() const;
  /// Single scalar convenience: requires exactly one row and one column.
  util::StatusOr<Value> Scalar() const;
  /// Values of one column by name.
  util::StatusOr<std::vector<Value>> ColumnValues(
      const std::string& name) const;
};

/// Aggregate functions supported by AggregateNode.
enum class AggFunc {
  kCountStar,
  kCount,  // non-null count of arg
  kSum,
  kAvg,
  kMin,
  kMax,
  kP95,  // 95th percentile of a numeric column (telemetry analytics)
};

const char* AggFuncName(AggFunc f);

/// One aggregate computation in an aggregate node.
struct AggSpec {
  AggFunc func;
  ExprPtr arg;        // null for kCountStar
  std::string alias;  // output column name
};

/// One projected output column.
struct ProjectItem {
  ExprPtr expr;
  std::string alias;  // empty -> derived from expr
};

/// Sort key.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// Concrete node types, used by the planner and the vectorized executor
/// to dispatch without RTTI (see plan.h for the node classes).
enum class PlanKind {
  kScan,
  kFilter,
  kProject,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kHashJoin,
};

/// Base class of logical plan nodes. A node only describes itself;
/// queries run through ExecutePlan (exec.h), which optimizes the plan and
/// streams column batches through the vectorized executor.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  virtual std::string ToString() const = 0;
  virtual PlanKind kind() const = 0;
};

using PlanPtr = std::shared_ptr<const PlanNode>;

/// Node constructors.
PlanPtr MakeScan(std::string table);
PlanPtr MakeFilter(PlanPtr input, ExprPtr predicate);
PlanPtr MakeProject(PlanPtr input, std::vector<ProjectItem> items);
PlanPtr MakeAggregate(PlanPtr input, std::vector<std::string> group_by,
                      std::vector<AggSpec> aggs);
PlanPtr MakeSort(PlanPtr input, std::vector<SortKey> keys);
PlanPtr MakeLimit(PlanPtr input, size_t limit, size_t offset = 0);
PlanPtr MakeDistinct(PlanPtr input);
/// Inner equi-join; output columns are left's then right's, with ambiguous
/// names prefixed by their side's table alias ("left."/"right." when the
/// sides are anonymous plans).
PlanPtr MakeHashJoin(PlanPtr left, PlanPtr right, std::string left_col,
                     std::string right_col);

/// Fluent builder over a Database table.
///
///   auto rs = Query(db, "runs")
///                 .Filter(Eq(Col("code_version"), LitString("v3.2")))
///                 .Aggregate({"forecast"}, {{AggFunc::kAvg,
///                                            Col("walltime"), "avg_wt"}})
///                 .OrderBy({{"avg_wt", false}})
///                 .Run();
class Query {
 public:
  Query(const Database* db, std::string table);

  Query& Filter(ExprPtr predicate);
  Query& Project(std::vector<ProjectItem> items);
  Query& Select(std::vector<std::string> columns);  // name-only projection
  Query& Aggregate(std::vector<std::string> group_by,
                   std::vector<AggSpec> aggs);
  Query& OrderBy(std::vector<SortKey> keys);
  Query& Limit(size_t n, size_t offset = 0);
  Query& Distinct();
  Query& Join(std::string right_table, std::string left_col,
              std::string right_col);

  util::StatusOr<ResultSet> Run() const;
  PlanPtr plan() const { return plan_; }

 private:
  const Database* db_;
  PlanPtr plan_;
};

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_QUERY_H_

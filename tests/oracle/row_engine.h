// Row-at-a-time reference engine, for tests and benchmarks only.
//
// Executes a logical plan by materializing every intermediate result as
// whole rows and evaluating expressions with Expr::Eval, one row at a
// time: the simplest correct reading of each operator. The vectorized
// executor (statsdb/exec.h), serial and morsel-parallel, is checked
// against it. Planner annotations are hints it ignores: a Sort always
// runs a full std::stable_sort (the planner sets limit_hint only under a
// Limit, which then takes the same prefix), and an index annotation
// never changes which rows a scan's predicate keeps.

#ifndef FF_TESTS_ORACLE_ROW_ENGINE_H_
#define FF_TESTS_ORACLE_ROW_ENGINE_H_

#include "statsdb/database.h"
#include "statsdb/plan.h"
#include "statsdb/query.h"
#include "util/statusor.h"

namespace ff {
namespace statsdb {

/// Runs `plan` row at a time against `db`.
util::StatusOr<ResultSet> ExecuteRowOracle(const PlanNode& plan,
                                           const Database& db);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_TESTS_ORACLE_ROW_ENGINE_H_

// Plan rewrites applied before vectorized execution (exec.h):
//
//  * Predicate pushdown: WHERE conjuncts migrate below Sort, Distinct,
//    pass-through Projects, group-by keys of Aggregates, and the matching
//    side of a HashJoin, merging into the ScanNode where they drive
//    zone-map chunk pruning. Conjuncts never cross a Limit.
//  * Index selection: an equality conjunct on a hash-indexed column
//    annotates the scan with an index lookup (the conjunct stays in the
//    scan predicate as a residual check).
//  * Top-k: Limit over Sort (possibly through Projects) gives the sort a
//    limit hint, so the executor keeps a bounded heap instead of sorting
//    everything.
//
// Rewrites preserve the unoptimized plan's observable results; analysis
// failures (unknown tables/columns, type errors) leave the affected
// subtree untouched so the error surfaces at execution exactly as the
// unoptimized plan would report it.

#ifndef FF_STATSDB_PLANNER_H_
#define FF_STATSDB_PLANNER_H_

#include "statsdb/query.h"

namespace ff {
namespace statsdb {

class Database;

/// Returns the optimized plan (possibly `plan` itself). Never fails.
PlanPtr OptimizePlan(const PlanPtr& plan, const Database& db);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_PLANNER_H_

// Morsel-driven parallel query execution on the work-stealing pool
// (parallel/thread_pool.h).
//
// Parallelism lives inside the operator tree, not in a plan rewrite:
// given a pool, BuildIterator (exec.h) builds a Gather iterator wherever
// a scan chain (Filter/Project operators over one Scan leaf) is drained
// in full — under an Aggregate, a Distinct, a top-k Sort, a hash join or
// any other full consumer. The Gather prepares the scan once (table
// lookup, index probe), surveys the chunks that survive zone-map
// pruning, and on its first pull runs one morsel per surviving 4096-row
// chunk on the pool with a TaskGroup (safe even when the query itself
// runs inside a pool task, e.g. a sweep replica). A morsel runs the
// serial operators of exec.h over its chunk, capped by its own copy of
// the Distinct or top-k Sort it feeds, and emits at most one batch.
//
// Determinism contract: results are byte-identical to the serial
// engine — row order, group order, every bit of every double, and error
// messages — at any thread count. It holds by construction: a serial
// scan chain emits one batch per surviving chunk, in chunk order, and a
// morsel is exactly one chunk, so
//  - the Gather yields the morsels' batches in chunk order: the serial
//    chain's batch stream. The serial Distinct or Sort above it does
//    the combine pass, so duplicates and ties resolve by chunk, then by
//    arrival inside the chunk: the serial arrival order;
//  - under an Aggregate, each morsel folds its batch into its own
//    GroupedAgg partials and the Aggregate merges them in morsel order:
//    the serial operator's own sequence of AggState::Merge calls;
//  - Init errors come out at build time, in the serial DFS order: the
//    coordinator prepares the scan and builds morsel 0 there;
//  - the first runtime error is the lowest failing morsel's, raised on
//    the Gather's first pull, where the serial engine would raise it:
//    a chunk's errors do not depend on the thread that runs it.
// Chains consumed with early exit (under a Limit with no intervening
// breaker) are never fanned out.

#ifndef FF_STATSDB_PARALLEL_EXEC_H_
#define FF_STATSDB_PARALLEL_EXEC_H_

#include <cstddef>

#include "statsdb/query.h"

namespace ff {
namespace obs {
struct QueryProfile;
}  // namespace obs
namespace parallel {
class ThreadPool;
}  // namespace parallel

namespace statsdb {

class Database;

/// Tuning knobs for parallel execution, per Database (see
/// Database::set_parallel_config) and overridable via the
/// FF_STATSDB_PARALLEL environment variable:
///   FF_STATSDB_PARALLEL=off|0|false   serial execution (max_threads 1)
///   FF_STATSDB_PARALLEL=N             cap at N threads
struct ParallelConfig {
  /// Thread cap. 0 = hardware_concurrency; the resolved value must
  /// exceed 1 for any query to go parallel (so single-core hosts pay
  /// zero overhead — no pool is ever created).
  size_t max_threads = 0;
  /// Chains whose zone-map survey yields fewer chunks than this stay
  /// serial: tiny queries should not pay fan-out overhead.
  size_t min_chunks = 4;
  /// External pool to run on (not owned; e.g. a SweepRunner's shared
  /// pool). When null the Database lazily creates its own.
  parallel::ThreadPool* pool = nullptr;

  /// Defaults overridden by FF_STATSDB_PARALLEL (see above).
  static ParallelConfig FromEnv();
};

/// Executes an already-optimized plan, fanning eligible chains across
/// `config`-resolved threads: ExecuteColumnar (exec.h) with a pool, or
/// without one (no pool is created) when the resolved thread count is
/// 1. A non-null `profile` is filled as ExecuteColumnar fills it: the
/// wall-clock per-operator tree (obs/runtime_stats.h), the engine in
/// `profile->engine`, and the whole call's total_ns. Each fanned-out
/// chain appears as a "Parallel[<op>]" node under the operator it feeds,
/// carrying the morsel count, the slowest morsel, the aggregate's
/// partial-merge time, and the per-morsel chain profile merged in
/// morsel order (chain wall times are CPU time summed across morsels).
/// Results stay byte-identical to the unprofiled run.
util::StatusOr<ResultSet> ExecuteParallel(const PlanPtr& plan,
                                          const Database& db,
                                          const ParallelConfig& config,
                                          obs::QueryProfile* profile = nullptr);

/// Production execution of an already-optimized plan: consults the
/// database's result cache (cache.h) before either engine runs, then
/// falls through to ExecuteParallel with the database's parallel config.
/// Successful results are stored; error results never are (re-execution
/// is byte-identical and cheap). ExecutePlan (exec.h), Database::Sql, and
/// PreparedStatement::Execute all funnel through here; the engine-level
/// entry points (ExecuteParallel, ExecuteColumnar) stay cache-free so
/// tests can always reach the real engines. A non-null `profile` is
/// filled as ExecuteParallel fills it, plus `profile->cache`: "hit"
/// (served from the result cache, nothing executed — the operator tree
/// stays empty and engine reports "cache"), "miss" (consulted, executed,
/// stored), or "bypass" (cache off or plan uncacheable).
util::StatusOr<ResultSet> ExecuteOptimized(
    const PlanPtr& optimized, const Database& db,
    obs::QueryProfile* profile = nullptr);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_PARALLEL_EXEC_H_

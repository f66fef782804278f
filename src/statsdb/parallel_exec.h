// Morsel-driven parallel query execution on the work-stealing pool
// (parallel/thread_pool.h).
//
// The rewriter walks an optimized plan looking for parallel-safe
// pipelines — a chain of Filter/Project operators over one Scan leaf,
// optionally capped by a pipeline breaker (Aggregate, Distinct, top-k
// Sort) or feeding a hash-join side. Eligible chains are executed
// eagerly: the coordinator prepares the scan once (table lookup, index
// probe, zone-map refresh), surveys the surviving chunks, and fans one
// morsel per surviving 4096-row chunk across the pool with a TaskGroup
// (safe even when the query itself runs inside a pool task, e.g. a
// sweep replica). Each morsel runs the serial operators of exec.h over
// its chunk into a partial; the coordinator combines the partials in
// morsel order. The result is spliced back into the plan as a
// MaterializedNode and the remaining serial operators run unchanged.
// This file plans, runs and combines morsels; it has no per-row loop.
//
// Determinism contract: results are byte-identical to the serial
// vectorized engine (exec.h) — row order, group order, every bit of
// every double, and error messages — at any thread count. A morsel is
// exactly one chunk, and a serial scan chain emits exactly one batch
// per chunk, so:
//  - Aggregates: the serial operator folds each batch into fresh
//    per-group partial states and merges them into its running groups
//    (GroupedAgg); a morsel folds its one batch the same way, and the
//    combine merges the morsel partials in morsel order. Both engines
//    make the same sequence of AggState::Merge calls.
//  - Distinct and top-k: each morsel runs the serial operator over its
//    chunk; the combine runs it once more over the morsel outputs
//    concatenated in morsel order. Duplicates and ties resolve by
//    morsel, then by arrival inside the morsel: the serial arrival
//    order.
//  - Serial operators above a unit (e.g. an Aggregate over a join whose
//    probe side was collected in parallel) see the serial batches: the
//    MaterializedNode keeps the batch boundaries of the pipeline it
//    replaced, one batch per non-empty chunk for a collected chain.
//  - Errors: the lowest-indexed failing morsel's error is reported,
//    which is provably the error the serial engine would hit first.
// Chains consumed with early exit (under a Limit with no intervening
// breaker) are never parallelized.

#ifndef FF_STATSDB_PARALLEL_EXEC_H_
#define FF_STATSDB_PARALLEL_EXEC_H_

#include <cstddef>
#include <functional>
#include <vector>

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

/// Post-hoc description of one executed morsel, for observability (the
/// obs layer turns these into Chrome-trace spans).
struct MorselStat {
  size_t morsel = 0;       // index in dispatch order
  size_t chunk = 0;        // the ColumnStore chunk the morsel scanned
  size_t rows = 0;         // rows the morsel's chain emitted (op input)
  double wall_ms = 0.0;    // worker-side execution time
};

/// Invoked on the coordinator thread after each parallel operator's
/// barrier with the operator tag ("collect", "aggregate", "distinct",
/// "topk") and one entry per morsel.
using MorselHook =
    std::function<void(const char* op, const std::vector<MorselStat>&)>;

/// Tuning knobs for parallel execution, per Database (see
/// Database::set_parallel_config) and overridable via the
/// FF_STATSDB_PARALLEL environment variable:
///   FF_STATSDB_PARALLEL=off|0|false   disable (serial execution)
///   FF_STATSDB_PARALLEL=N             cap at N threads
struct ParallelConfig {
  /// Master switch; with `false` every query runs serial.
  bool enabled = true;
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
  /// Observability callback; null = off.
  MorselHook morsel_hook;

  /// Defaults overridden by FF_STATSDB_PARALLEL (see above).
  static ParallelConfig FromEnv();
};

/// Executes an already-optimized plan, fanning eligible pipelines across
/// `config`-resolved threads. Falls back to the serial vectorized engine
/// (byte-identical results by contract) when disabled, single-threaded,
/// or when no pipeline is eligible. A non-null `profile` gets the
/// wall-clock per-operator tree (obs/runtime_stats.h), the engine that
/// actually ran in `profile->engine`, and the whole call's total_ns.
/// Each parallelized pipeline appears as a "Parallel[<op>]" node under
/// the MaterializedNode that replaced it, carrying morsel count,
/// merge-cascade time, and the per-morsel chain profile merged in morsel
/// order (chain wall times are CPU time summed across morsels). Results
/// stay byte-identical to the unprofiled run.
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

// Vectorized executor, the one engine that runs queries: plan nodes
// stream column batches (batch.h) instead of materializing whole
// ResultSets. Scans slice ColumnStore chunks into zero-copy batches
// (pruning chunks via zone maps and serving equality predicates from hash
// indexes), filters refine selection vectors, and pipeline breakers
// (aggregate, sort, join, distinct) emit batches of exact Values. Plans
// coming from Query/SQL run here after the planner pass (planner.h).
//
// Morsel parallelism lives inside the operator tree, not in a plan
// rewrite: given a pool of more than one thread (ParallelConfig,
// database.h), BuildIterator builds a Gather iterator wherever a scan
// chain (Filter/Project operators over one Scan leaf) is drained in
// full — under an Aggregate, a Distinct, a top-k Sort, a hash join or
// any other full consumer. A scan reads scan units: on a full scan a
// unit is one 4096-row chunk; on the index path it is a block of up to
// 4096 index matches in ascending row order, however many chunks they
// span, read as one batch of zero-copy views with a selection vector.
// The Gather prepares the scan once (table lookup, index probe),
// surveys the units (the chunks that survive zone-map pruning, or every
// block), and on its first pull runs one morsel per unit on the pool
// with a TaskGroup (safe even when the query itself runs inside a pool
// task, e.g. a sweep replica). A morsel runs the serial operators over
// its unit, capped by its own copy of the Distinct or top-k Sort it
// feeds, and emits at most one batch. Unit boundaries depend only on
// the table and the match list, never on the thread count.
//
// Determinism contract: results are byte-identical to the serial
// engine — row order, group order, every bit of every double, and error
// messages — at any thread count. It holds by construction: a serial
// scan chain emits one batch per scan unit, in unit order, and a morsel
// is exactly one unit, so
//  - the Gather yields the morsels' batches in unit order: the serial
//    chain's batch stream. The serial Distinct or Sort above it does
//    the combine pass, so duplicates and ties resolve by unit, then by
//    arrival inside the unit: the serial arrival order;
//  - under an Aggregate, each morsel folds its batch into its own
//    GroupedAgg partials and the Aggregate merges them in morsel order:
//    the serial operator's own sequence of AggState::Merge calls;
//  - Init errors come out at build time, in the serial DFS order: the
//    coordinator prepares the scan and builds morsel 0 there;
//  - the first runtime error is the lowest failing morsel's, raised on
//    the Gather's first pull, where the serial engine would raise it:
//    a unit's errors do not depend on the thread that runs it.
// Chains consumed with early exit (under a Limit with no intervening
// breaker) are never fanned out, nor is a bare Scan (no predicate,
// Filter or Project), whose morsels would only slice views.

#ifndef FF_STATSDB_EXEC_H_
#define FF_STATSDB_EXEC_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/runtime_stats.h"
#include "statsdb/batch.h"
#include "statsdb/plan.h"
#include "statsdb/query.h"

namespace ff {
namespace statsdb {

class ColumnStore;
class Database;
class Table;
struct ParallelConfig;

/// Pull-based batch stream. Next() returns nullptr at end of stream; the
/// returned batch stays valid until the next call.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;
  virtual const Schema& schema() const = 0;
  virtual util::StatusOr<const Batch*> Next() = 0;
};

/// Builds the iterator tree for `plan`. The plan must outlive the
/// iterator. When `prof` is non-null a matching obs::OperatorProfile
/// tree is grown under it (one child per plan input, labels always set)
/// and — with FF_PROFILING compiled in — every iterator is wrapped to
/// time Next() and count batches/rows; `prof` must outlive the iterator.
///
/// With a non-null `par` whose pool has more than one thread (otherwise
/// the tree is serial, as with a null `par`), every scan chain
/// (Filter/Project over one Scan) that is drained in full and keeps at
/// least max(2, par->min_chunks) scan units after the survey is built
/// as a Gather over morsels run on `par->pool`: under an Aggregate
/// (each morsel folds its own partial groups), a Distinct or a top-k
/// Sort (each morsel runs its own copy, the operator above combines), a
/// hash join or any other full consumer. A chain under a Limit with no
/// pipeline breaker in between stays serial, and so does a bare Scan.
/// An index scan with at most 4096 matches is one unit. Its profile
/// node is "Parallel[aggregate|distinct|topk|collect]", under the
/// operator it feeds, with the chain's per-morsel profiles merged in
/// morsel order below it. Init errors surface here, in the serial
/// engine's order, whether or not a chain fans out.
util::StatusOr<std::unique_ptr<BatchIterator>> BuildIterator(
    const PlanNode& plan, const Database& db,
    obs::OperatorProfile* prof = nullptr,
    const ParallelConfig* par = nullptr);

/// Scan preparation, done once per scan chain and shared by every
/// morsel of a Gather. Building one performs all the allocation-heavy
/// work a scan needs — table lookup, predicate analysis, the hash-index
/// Lookup — exactly once; afterwards the setup is immutable and safe to
/// read from any number of threads.
struct ScanSetup {
  const Table* table = nullptr;
  const ColumnStore* store = nullptr;
  std::vector<ExprPtr> conjuncts;
  std::vector<std::pair<size_t, SimplePredicate>> zone_preds;
  /// Index path: the key's hash-index bucket (ascending row ids),
  /// borrowed from the table for the length of the read. Null on the
  /// full-scan path.
  const std::vector<size_t>* index_rows = nullptr;
};

/// Prepares a scan. Takes the index path on the first of the node's
/// index keys that is bound, usable (IndexKeyUsable) and names an
/// indexed column; otherwise a full scan.
util::StatusOr<ScanSetup> PrepareScan(const ScanNode& node,
                                      const Database& db);

/// Scan units (ascending) worth a morsel: on the full-scan path the
/// chunks that survive zone-map pruning; on the index path every block
/// of up to kChunkRows matches, whose pruned chunks the scan drops
/// itself. Units absent from it are provably empty for the scan.
std::vector<size_t> SurveyScanUnits(const ScanSetup& setup);

/// Ascending ids of the rows of `table` that `SELECT * FROM table WHERE
/// where` returns (every row when `where` is null), found by that
/// SELECT's own scan: the planner's pushdown and index selection, then
/// PrepareScan, SurveyScanUnits and one single-unit scan chain per
/// surveyed unit. Fails exactly when that SELECT fails, with the same
/// error. Serial. UPDATE and DELETE find their target rows here.
util::StatusOr<std::vector<size_t>> MatchRows(const std::string& table,
                                              const ExprPtr& where,
                                              const Database& db);

/// Plan inputs in the order BuildIterator creates profile children:
/// [0] = input (joins: [0] = left, [1] = right); leaves have none.
std::vector<PlanPtr> PlanInputs(const PlanNode& plan);

/// Grouped aggregation over mergeable partial states: the executor's one
/// per-row aggregate loop, shared by the Aggregate operator and the
/// morsels of a Gather under it. Each input batch is folded into
/// fresh per-group partial states, which are then merged into the
/// running groups (AggState::Merge); Merge() folds in another
/// GroupedAgg's groups the same way. Groups keep first-seen order.
///
/// A serial scan chain emits one batch per scan unit (a chunk, or an
/// index block) and a morsel is one unit, so the serial operator and a
/// morsel-order merge of morsel partials make the same Merge calls:
/// their results agree bit for bit.
class GroupedAgg {
 public:
  /// `aggs` must outlive this object; `key_cols` index the input schema
  /// (as resolved by AggOutputSchema).
  GroupedAgg(const std::vector<AggSpec>* aggs, std::vector<size_t> key_cols)
      : aggs_(aggs), key_cols_(std::move(key_cols)) {}

  /// Folds every batch of `input`, one partial per batch.
  util::Status FoldAll(BatchIterator& input);
  /// Merges `other`'s groups, in its first-seen order, into this one.
  void Merge(const GroupedAgg& other);
  /// One output row per group; a global aggregate (no group keys) over
  /// no input still yields one row.
  std::vector<Row> Finish(const Schema& out_schema) const;

 private:
  util::Status Fold(const Batch& in, const Schema& in_schema);
  /// Index of `key`'s group, appending a new group if unseen.
  size_t GroupIndex(const Row& key);

  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  static constexpr size_t kNoPart = static_cast<size_t>(-1);
  const std::vector<AggSpec>* aggs_;
  std::vector<size_t> key_cols_;
  std::unordered_map<Row, size_t, RowHash, RowEq> index_;
  std::vector<Group> groups_;
  // Fold's per-batch scratch: the partial of group g is run part_of_[g]
  // of part_states_ (kNoPart: none yet); part_groups_ lists the groups
  // with a partial in first-seen order.
  std::vector<size_t> part_of_;
  std::vector<size_t> part_groups_;
  std::vector<AggState> part_states_;
};

/// Pulls `it` to the end into a ResultSet with the iterator's schema.
util::StatusOr<ResultSet> Drain(BatchIterator& it);

/// Runs `plan` through the vectorized engine as-is (no planner pass) and
/// materializes the result: BuildIterator(plan, db, ..., par), then
/// Drain. Cache-free, so tests can always reach the engine. A non-null
/// `profile` gets the per-operator tree (profile->root),
/// profile->total_ns, and profile->engine: "parallel" when a Gather was
/// built, else "serial". Each fanned-out chain appears as a
/// "Parallel[<op>]" node under the operator it feeds, carrying the
/// morsel count, the slowest morsel, the aggregate's partial-merge time,
/// and the per-morsel chain profile merged in morsel order (chain wall
/// times are CPU time summed across morsels). The rows are the same
/// either way, because the profiled iterators are pass-through
/// observers.
util::StatusOr<ResultSet> ExecuteColumnar(const PlanNode& plan,
                                          const Database& db,
                                          obs::QueryProfile* profile = nullptr,
                                          const ParallelConfig* par = nullptr);

/// Node-local operator label for EXPLAIN output and operator profiles:
/// the node's own parameters without its inputs (a Scan leaf keeps its
/// full self-contained ToString with pred=/prune=/index= annotations).
std::string NodeLabel(const PlanNode& plan);

/// Bare EXPLAIN: the optimized plan tree, one line per operator with
/// two-space indentation per depth. Does not execute anything.
std::vector<std::string> ExplainPlanLines(const PlanNode& plan);

/// Production entry point: optimizes `plan` (predicate pushdown, index
/// selection, top-k) and executes it through ExecuteOptimized.
util::StatusOr<ResultSet> ExecutePlan(const PlanPtr& plan,
                                      const Database& db,
                                      obs::QueryProfile* profile = nullptr);

/// Production execution of an already-optimized plan: consults the
/// database's result cache (cache.h), then runs ExecuteColumnar with the
/// database's parallel config. Successful results are stored; error
/// results never are (re-execution is byte-identical and cheap).
/// ExecutePlan, Database::Sql and PreparedStatement::Execute all funnel
/// through here. A non-null `profile` is filled as ExecuteColumnar fills
/// it, with total_ns spanning the cache lookup, plus `profile->cache`:
/// "hit" (served from the result cache, nothing executed — the operator
/// tree stays empty and engine reports "cache"), "miss" (consulted,
/// executed, stored), or "bypass" (cache off or plan uncacheable).
util::StatusOr<ResultSet> ExecuteOptimized(
    const PlanPtr& optimized, const Database& db,
    obs::QueryProfile* profile = nullptr);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_EXEC_H_

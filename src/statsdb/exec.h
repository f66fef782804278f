// Vectorized executor, the one engine that runs queries: plan nodes
// stream column batches (batch.h) instead of materializing whole
// ResultSets. Scans slice ColumnStore chunks into zero-copy batches
// (pruning chunks via zone maps and serving equality predicates from hash
// indexes), filters refine selection vectors, and pipeline breakers
// (aggregate, sort, join, distinct) emit batches of exact Values. Plans
// coming from Query/SQL run here after the planner pass (planner.h); the
// morsel-parallel executor (parallel_exec.h) runs these same operators
// per chunk.

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
util::StatusOr<std::unique_ptr<BatchIterator>> BuildIterator(
    const PlanNode& plan, const Database& db,
    obs::OperatorProfile* prof = nullptr);

/// Coordinator-side scan preparation, shared across morsels by the
/// parallel executor (parallel_exec.h). Building one performs all the
/// allocation-heavy work a scan needs — table lookup, predicate
/// analysis, the hash-index Lookup — exactly once; afterwards the setup
/// is immutable and safe to read from any number of threads.
struct ScanSetup {
  const Table* table = nullptr;
  const ColumnStore* store = nullptr;
  std::vector<ExprPtr> conjuncts;
  std::vector<std::pair<size_t, SimplePredicate>> zone_preds;
  bool use_index = false;
  std::vector<size_t> index_rows;  // ascending row ids, index path only
};

util::StatusOr<ScanSetup> PrepareScan(const ScanNode& node,
                                      const Database& db);

/// Chunk indices (ascending) that survive zone-map pruning and — on the
/// index path — contain at least one index match. The parallel executor
/// runs one morsel per entry; chunks absent from it are provably empty
/// for the scan.
std::vector<size_t> SurveyScanChunks(const ScanSetup& setup);

/// Builds the iterator tree for `plan`, which must be a chain of
/// Filter/Project nodes over one Scan leaf; the leaf is replaced by a
/// scan of the single chunk `chunk` reusing the shared `setup`, which
/// must outlive the iterator. The chain emits at most one batch.
util::StatusOr<std::unique_ptr<BatchIterator>> BuildChainIterator(
    const PlanNode& plan, const ScanSetup* setup, size_t chunk,
    obs::OperatorProfile* prof = nullptr);

/// Ascending ids of the rows of `table` that `SELECT * FROM table WHERE
/// where` returns (every row when `where` is null), found by that
/// SELECT's own scan: the planner's pushdown and index selection, then
/// PrepareScan, SurveyScanChunks and one BuildChainIterator per
/// surviving chunk. Fails exactly when that SELECT fails, with the same
/// error. Serial. UPDATE and DELETE find their target rows here.
util::StatusOr<std::vector<size_t>> MatchRows(const std::string& table,
                                              const ExprPtr& where,
                                              const Database& db);

/// Builds the operator iterator for the single-input node `plan` over an
/// already-built `input` stream in place of the node's own input. The
/// parallel executor runs a serial Distinct or top-k Sort this way, once
/// per morsel and once more over the concatenated morsel outputs.
util::StatusOr<std::unique_ptr<BatchIterator>> BuildIteratorOver(
    const PlanNode& plan, std::unique_ptr<BatchIterator> input);

/// Plan inputs in the order BuildIterator creates profile children:
/// [0] = input (joins: [0] = left, [1] = right); leaves have none.
std::vector<PlanPtr> PlanInputs(const PlanNode& plan);

/// Grouped aggregation over mergeable partial states: the executor's one
/// per-row aggregate loop, shared by the serial Aggregate operator and
/// the parallel executor's morsels. Each input batch is folded into
/// fresh per-group partial states, which are then merged into the
/// running groups (AggState::Merge); Merge() folds in another
/// GroupedAgg's groups the same way. Groups keep first-seen order.
///
/// A serial scan chain emits one batch per chunk and a morsel is one
/// chunk, so the serial operator and a morsel-order merge of morsel
/// partials make the same Merge calls: their results agree bit for bit.
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

/// Pulls `it` to the end, appending every active row to `*out` and, when
/// `batch_ends` is non-null, the size of `*out` after each non-empty
/// batch (the input's batch boundaries, for MaterializedNode).
util::Status DrainRows(BatchIterator& it, std::vector<Row>* out,
                       std::vector<size_t>* batch_ends = nullptr);

/// Pulls `it` to the end into a ResultSet with the iterator's schema.
util::StatusOr<ResultSet> Drain(BatchIterator& it);

/// Runs `plan` through the vectorized engine as-is (no planner pass) and
/// materializes the result. A non-null `profile` gets the per-operator
/// tree (profile->root) and profile->total_ns; the rows are the same,
/// because the profiled iterators are pass-through observers.
util::StatusOr<ResultSet> ExecuteColumnar(const PlanNode& plan,
                                          const Database& db,
                                          obs::QueryProfile* profile = nullptr);

/// Node-local operator label for EXPLAIN output and operator profiles:
/// the node's own parameters without its inputs (a Scan leaf keeps its
/// full self-contained ToString with pred=/prune=/index= annotations).
std::string NodeLabel(const PlanNode& plan);

/// Bare EXPLAIN: the optimized plan tree, one line per operator with
/// two-space indentation per depth. Does not execute anything.
std::vector<std::string> ExplainPlanLines(const PlanNode& plan);

/// Production entry point: optimizes `plan` (predicate pushdown, index
/// selection, top-k) and executes it through ExecuteOptimized
/// (parallel_exec.h) with the database's cache and parallel configs.
/// A non-null `profile` is filled as ExecuteOptimized describes.
util::StatusOr<ResultSet> ExecutePlan(const PlanPtr& plan,
                                      const Database& db,
                                      obs::QueryProfile* profile = nullptr);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_EXEC_H_

#include "statsdb/parallel_exec.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/plan.h"
#include "statsdb/planner.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {
namespace {

using IterPtr = std::unique_ptr<BatchIterator>;

// ----------------------------------------------------------- chain shape

/// A chain is a pipeline the executor can split by chunk: Filter/Project
/// operators over exactly one Scan leaf. The scan emits one batch per
/// chunk and Filter/Project map batches one to one, so running the chain
/// once per chunk yields, in chunk order, exactly the batches of one
/// serial pass.
bool IsChain(const PlanNode& n) {
  if (n.kind() == PlanKind::kScan) return true;
  return (n.kind() == PlanKind::kFilter || n.kind() == PlanKind::kProject) &&
         IsChain(*PlanInputs(n)[0]);
}

const ScanNode& ChainLeaf(const PlanNode& n) {
  if (n.kind() == PlanKind::kScan) return static_cast<const ScanNode&>(n);
  return ChainLeaf(*PlanInputs(n)[0]);
}

// -------------------------------------------------------- morsel fan-out

struct RewriteCtx {
  const Database& db;
  const ParallelConfig& cfg;
  parallel::ThreadPool* pool;
  /// Non-null when the query runs profiled: each parallel unit deposits
  /// its "Parallel[<op>]" profile here, keyed by the MaterializedNode
  /// that replaced the pipeline, for the post-execution splice into the
  /// query's operator tree.
  std::unordered_map<const PlanNode*, std::unique_ptr<obs::OperatorProfile>>*
      unit_profiles = nullptr;
};

struct MorselPlan {
  ScanSetup setup;
  std::vector<size_t> chunks;  // surviving chunks, one morsel each
};

/// Prepares the scan once on the coordinator and surveys the surviving
/// chunks, one morsel per chunk. False = not worth parallelizing.
util::StatusOr<bool> PlanMorsels(const PlanNode& chain, RewriteCtx& ctx,
                                 MorselPlan* out) {
  FF_ASSIGN_OR_RETURN(out->setup, PrepareScan(ChainLeaf(chain), ctx.db));
  out->chunks = SurveyScanChunks(out->setup);
  return out->chunks.size() >= std::max<size_t>(2, ctx.cfg.min_chunks);
}

/// Per-unit profiling scaffolding, inert (all null/no-op) when the query
/// is not profiled. Owns the "Parallel[<op>]" operator node plus one
/// chain profile per morsel for BuildChainIterator to fill; Attach()
/// folds the morsel profiles into a single chain child (morsel order),
/// attributes the survey's pruning delta to the chain's scan leaf — the
/// single-chunk morsel scans never see the chunks the coordinator's
/// survey already dropped — and registers the unit under the
/// materialized node that replaced the pipeline.
class UnitProfile {
 public:
  UnitProfile(RewriteCtx& ctx, const char* op, const MorselPlan& mp)
      : ctx_(ctx) {
    if (ctx.unit_profiles == nullptr) return;
    unit_ = std::make_unique<obs::OperatorProfile>();
    unit_->name = util::StrFormat("Parallel[%s]", op);
    unit_->parallel = true;
    morsel_profs_.resize(mp.chunks.size());
    pruned_ = mp.setup.store->num_chunks() - mp.chunks.size();
    if constexpr (obs::kProfilingCompiledIn) t0_ = obs::RuntimeNowNs();
  }

  /// Chain profile for morsel `i`; null when not profiling.
  obs::OperatorProfile* morsel(size_t i) {
    return unit_ == nullptr ? nullptr : &morsel_profs_[i];
  }
  /// The unit node itself (for RunMorsels); null when not profiling.
  obs::OperatorProfile* unit() { return unit_.get(); }

  /// Brackets the deterministic combine step (accumulates merge_ns).
  void BeginMerge() {
    if constexpr (obs::kProfilingCompiledIn) {
      if (unit_ != nullptr) merge_t0_ = obs::RuntimeNowNs();
    }
  }
  void EndMerge() {
    if constexpr (obs::kProfilingCompiledIn) {
      if (unit_ != nullptr) {
        unit_->merge_ns +=
            static_cast<uint64_t>(obs::RuntimeNowNs() - merge_t0_);
      }
    }
  }

  void Attach(const PlanPtr& materialized, size_t rows_out) {
    if (unit_ == nullptr) return;
    obs::OperatorProfile* chain = unit_->AddChild();
    for (const obs::OperatorProfile& mp : morsel_profs_) {
      chain->MergeFrom(mp);
    }
    obs::OperatorProfile* leaf = chain;
    while (!leaf->children.empty()) leaf = leaf->children[0].get();
    if (leaf->is_scan) leaf->chunks_pruned += pruned_;
    unit_->rows_out = rows_out;
    if constexpr (obs::kProfilingCompiledIn) {
      unit_->wall_ns = static_cast<uint64_t>(obs::RuntimeNowNs() - t0_);
    }
    (*ctx_.unit_profiles)[materialized.get()] = std::move(unit_);
  }

 private:
  RewriteCtx& ctx_;
  std::unique_ptr<obs::OperatorProfile> unit_;
  std::vector<obs::OperatorProfile> morsel_profs_;
  uint64_t pruned_ = 0;
  int64_t t0_ = 0;
  int64_t merge_t0_ = 0;
};

/// Runs fn(morsel, stat) for every morsel on the pool and returns the
/// error of the lowest-indexed failing morsel — which is exactly the
/// error the serial engine would hit first: chunk-level errors are
/// deterministic and position-independent, so the earliest failing chunk
/// is the lowest failing morsel.
util::Status RunMorsels(
    RewriteCtx& ctx, const MorselPlan& mp, const char* op,
    const std::function<util::Status(size_t, MorselStat*)>& fn,
    obs::OperatorProfile* up = nullptr) {
  size_t m = mp.chunks.size();
  std::vector<util::Status> errs(m, util::Status::OK());
  std::vector<MorselStat> stats(m);
  parallel::TaskGroup group(ctx.pool);
  group.ParallelFor(m, [&](size_t i) {
    auto t0 = std::chrono::steady_clock::now();
    stats[i].morsel = i;
    stats[i].chunk = mp.chunks[i];
    errs[i] = fn(i, &stats[i]);
    stats[i].wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  });
  for (size_t i = 0; i < m; ++i) {
    if (!errs[i].ok()) return errs[i];
  }
  if (up != nullptr) {
    up->morsels = m;
    for (const MorselStat& st : stats) {
      up->max_morsel_ns = std::max(
          up->max_morsel_ns, static_cast<uint64_t>(st.wall_ms * 1e6));
    }
  }
  if (ctx.cfg.morsel_hook) ctx.cfg.morsel_hook(op, stats);
  return util::Status::OK();
}

PlanPtr Materialize(Schema schema, std::vector<Row> rows,
                    std::vector<size_t> batch_ends = {}) {
  return std::make_shared<MaterializedNode>(
      std::move(schema),
      std::make_shared<const std::vector<Row>>(std::move(rows)),
      std::move(batch_ends));
}

/// Pass-through that adds the rows its input emits to `*rows`.
class RowCounter : public BatchIterator {
 public:
  RowCounter(IterPtr input, size_t* rows)
      : input_(std::move(input)), rows_(rows) {}

  const Schema& schema() const override { return input_->schema(); }

  util::StatusOr<const Batch*> Next() override {
    FF_ASSIGN_OR_RETURN(const Batch* in, input_->Next());
    if (in != nullptr) *rows_ += in->ActiveRows();
    return in;
  }

 private:
  IterPtr input_;
  size_t* rows_;
};

/// Morsel `i`'s chain: `chain` over its one chunk, counting the rows it
/// emits into MorselStat::rows (the same measure for every op).
util::StatusOr<IterPtr> MorselChain(const PlanNode& chain,
                                    const MorselPlan& mp, size_t i,
                                    UnitProfile& prof, MorselStat* st) {
  FF_ASSIGN_OR_RETURN(IterPtr it, BuildChainIterator(chain, &mp.setup,
                                                     mp.chunks[i],
                                                     prof.morsel(i)));
  return IterPtr(std::make_unique<RowCounter>(std::move(it), &st->rows));
}

// ------------------------------------------------------- parallel units
//
// Each unit returns nullptr when the chain is too small to parallelize
// (the caller keeps the serial node).

/// scan -> filter -> project, optionally capped by `op_node`: a Distinct
/// or a top-k Sort. Each morsel drains its chunk of the chain — through
/// its own instance of the serial operator, when there is one — into
/// rows. The combine concatenates the morsel outputs in morsel order, one
/// batch per non-empty morsel (the serial chain's batches, one per
/// chunk), and runs the operator once more over the concatenation, so
/// duplicates and ties resolve by morsel, then by arrival inside the
/// morsel: the serial arrival order. The result keeps the batch
/// boundaries of the last pass, which are the serial pipeline's.
util::StatusOr<PlanPtr> RowsChain(const PlanNode& chain,
                                  const PlanNode* op_node, const char* op,
                                  RewriteCtx& ctx) {
  MorselPlan mp;
  FF_ASSIGN_OR_RETURN(bool eligible, PlanMorsels(chain, ctx, &mp));
  if (!eligible) return PlanPtr(nullptr);
  UnitProfile prof(ctx, op, mp);
  FF_ASSIGN_OR_RETURN(Schema schema, InferSchema(chain, ctx.db));

  std::vector<std::vector<Row>> slots(mp.chunks.size());
  FF_RETURN_IF_ERROR(RunMorsels(
      ctx, mp, op,
      [&](size_t i, MorselStat* st) -> util::Status {
        FF_ASSIGN_OR_RETURN(IterPtr it, MorselChain(chain, mp, i, prof, st));
        if (op_node != nullptr) {
          FF_ASSIGN_OR_RETURN(it, BuildIteratorOver(*op_node, std::move(it)));
        }
        return DrainRows(*it, &slots[i]);
      },
      prof.unit()));

  prof.BeginMerge();
  size_t total = 0;
  for (const auto& s : slots) total += s.size();
  std::vector<Row> rows;
  std::vector<size_t> ends;
  rows.reserve(total);
  for (auto& s : slots) {
    if (s.empty()) continue;
    for (auto& r : s) rows.push_back(std::move(r));
    ends.push_back(rows.size());
  }
  if (op_node != nullptr) {
    MaterializedNode concat(
        schema, std::make_shared<const std::vector<Row>>(std::move(rows)),
        std::move(ends));
    FF_ASSIGN_OR_RETURN(IterPtr in, BuildIterator(concat, ctx.db));
    FF_ASSIGN_OR_RETURN(IterPtr it, BuildIteratorOver(*op_node, std::move(in)));
    rows.clear();
    ends.clear();
    FF_RETURN_IF_ERROR(DrainRows(*it, &rows, &ends));
  }
  prof.EndMerge();
  total = rows.size();
  PlanPtr out = Materialize(std::move(schema), std::move(rows),
                            std::move(ends));
  prof.Attach(out, total);
  return out;
}

/// Aggregate over a chain: each morsel folds its chunk into a GroupedAgg
/// partial, exactly as the serial operator folds that chunk's batch, and
/// the combine merges the partials in morsel order — the serial
/// operator's own sequence of AggState::Merge calls.
util::StatusOr<PlanPtr> AggregateChain(const AggregateNode& agg,
                                       RewriteCtx& ctx) {
  MorselPlan mp;
  FF_ASSIGN_OR_RETURN(bool eligible, PlanMorsels(*agg.input, ctx, &mp));
  if (!eligible) return PlanPtr(nullptr);
  UnitProfile prof(ctx, "aggregate", mp);
  FF_ASSIGN_OR_RETURN(Schema in_schema, InferSchema(*agg.input, ctx.db));
  std::vector<size_t> key_cols;
  FF_ASSIGN_OR_RETURN(
      Schema out_schema,
      AggOutputSchema(in_schema, agg.group_by, agg.aggs, &key_cols));

  std::vector<GroupedAgg> slots(mp.chunks.size(),
                                GroupedAgg(&agg.aggs, key_cols));
  FF_RETURN_IF_ERROR(RunMorsels(
      ctx, mp, "aggregate",
      [&](size_t i, MorselStat* st) -> util::Status {
        FF_ASSIGN_OR_RETURN(IterPtr it,
                            MorselChain(*agg.input, mp, i, prof, st));
        return slots[i].FoldAll(*it);
      },
      prof.unit()));

  prof.BeginMerge();
  GroupedAgg groups(&agg.aggs, std::move(key_cols));
  for (const GroupedAgg& s : slots) groups.Merge(s);
  std::vector<Row> rows = groups.Finish(out_schema);
  prof.EndMerge();
  size_t total = rows.size();
  PlanPtr out = Materialize(std::move(out_schema), std::move(rows));
  prof.Attach(out, total);
  return out;
}

// -------------------------------------------------------------- rewrite

/// `n`, a single-input operator, with its input replaced by `in`.
PlanPtr WithInput(const PlanNode& n, PlanPtr in) {
  switch (n.kind()) {
    case PlanKind::kFilter:
      return std::make_shared<FilterNode>(
          std::move(in), static_cast<const FilterNode&>(n).predicate);
    case PlanKind::kProject:
      return std::make_shared<ProjectNode>(
          std::move(in), static_cast<const ProjectNode&>(n).items);
    case PlanKind::kAggregate: {
      const auto& a = static_cast<const AggregateNode&>(n);
      return std::make_shared<AggregateNode>(std::move(in), a.group_by,
                                             a.aggs);
    }
    case PlanKind::kSort: {
      const auto& s = static_cast<const SortNode&>(n);
      return std::make_shared<SortNode>(std::move(in), s.keys, s.limit_hint);
    }
    case PlanKind::kLimit: {
      const auto& l = static_cast<const LimitNode&>(n);
      return std::make_shared<LimitNode>(std::move(in), l.limit, l.offset);
    }
    case PlanKind::kDistinct:
      return std::make_shared<DistinctNode>(std::move(in));
    default:
      FF_CHECK(false) << "WithInput: not a single-input operator";
      return nullptr;
  }
}

/// Rewrites `node`, eagerly executing eligible pipelines and splicing
/// their results back as MaterializedNodes. `allow_exec` is false when
/// some ancestor may stop consuming early (a Limit with no intervening
/// pipeline breaker): a streaming chain must then stay lazy, while
/// breakers — which drain their input fully no matter what sits above —
/// may still parallelize. Execution order below a node matches the
/// serial engine's pull order (join build side before probe side), so
/// the first runtime error raised is the serial one.
util::StatusOr<PlanPtr> Rewrite(const PlanPtr& node, bool allow_exec,
                                RewriteCtx& ctx) {
  if (IsChain(*node)) {
    if (!allow_exec) return node;
    FF_ASSIGN_OR_RETURN(PlanPtr repl,
                        RowsChain(*node, nullptr, "collect", ctx));
    return repl == nullptr ? node : repl;
  }
  PlanKind kind = node->kind();
  if (kind == PlanKind::kMaterialized) return node;  // already computed
  if (kind == PlanKind::kHashJoin) {
    const auto& n = static_cast<const HashJoinNode&>(*node);
    // The serial probe drains the build (right) side in full before
    // pulling the first probe batch, so execute right before left.
    FF_ASSIGN_OR_RETURN(PlanPtr r, Rewrite(n.right, true, ctx));
    FF_ASSIGN_OR_RETURN(PlanPtr l, Rewrite(n.left, allow_exec, ctx));
    if (l == n.left && r == n.right) return node;
    return std::static_pointer_cast<const PlanNode>(
        std::make_shared<HashJoinNode>(std::move(l), std::move(r),
                                       n.left_col, n.right_col));
  }

  PlanPtr input = PlanInputs(*node)[0];
  bool topk = kind == PlanKind::kSort &&
              static_cast<const SortNode&>(*node).limit_hint > 0;
  if (IsChain(*input) && (kind == PlanKind::kAggregate ||
                          kind == PlanKind::kDistinct || topk)) {
    util::StatusOr<PlanPtr> repl =
        kind == PlanKind::kAggregate
            ? AggregateChain(static_cast<const AggregateNode&>(*node), ctx)
            : RowsChain(*input, node.get(), topk ? "topk" : "distinct", ctx);
    if (!repl.ok() || *repl != nullptr) return repl;
    return node;
  }
  // Filter and Project stream their input, a Limit may stop pulling it
  // early, and every other operator drains it fully.
  bool exec = kind == PlanKind::kFilter || kind == PlanKind::kProject
                  ? allow_exec
                  : kind != PlanKind::kLimit;
  FF_ASSIGN_OR_RETURN(PlanPtr in, Rewrite(input, exec, ctx));
  return in == input ? node : WithInput(*node, std::move(in));
}

/// Lockstep walk of the rewritten plan and its serial profile tree,
/// grafting each parallel unit's "Parallel[<op>]" profile under the
/// MaterializedNode profile that now stands where the pipeline was —
/// so EXPLAIN ANALYZE shows both the cheap re-emission of the merged
/// rows and the fan-out that produced them.
void SpliceUnitProfiles(
    const PlanNode& plan, obs::OperatorProfile* prof,
    std::unordered_map<const PlanNode*, std::unique_ptr<obs::OperatorProfile>>*
        units) {
  if (prof == nullptr || units->empty()) return;
  if (plan.kind() == PlanKind::kMaterialized) {
    auto it = units->find(&plan);
    if (it != units->end()) {
      prof->children.push_back(std::move(it->second));
      units->erase(it);
    }
    return;
  }
  std::vector<PlanPtr> inputs = PlanInputs(plan);
  for (size_t i = 0; i < inputs.size() && i < prof->children.size(); ++i) {
    SpliceUnitProfiles(*inputs[i], prof->children[i].get(), units);
  }
}

util::StatusOr<ResultSet> ExecuteParallelImpl(const PlanPtr& plan,
                                              const Database& db,
                                              const ParallelConfig& config,
                                              obs::QueryProfile* profile) {
  if (plan == nullptr) {
    return util::Status::InvalidArgument("null plan");
  }
  size_t threads = config.max_threads == 0
                       ? parallel::ThreadPool::DefaultThreads()
                       : config.max_threads;
  if (!config.enabled || threads <= 1) {
    // Zero-overhead serial path; no pool is created.
    return ExecuteColumnar(*plan, db, profile);
  }

  // Pre-validation: building the full serial iterator tree surfaces
  // every Init-time error (unknown table/column, ill-typed predicate,
  // index lookup failure) in the exact DFS order the serial engine
  // reports them — before any morsel runs.
  FF_ASSIGN_OR_RETURN(IterPtr prevalidated, BuildIterator(*plan, db));

  std::unordered_map<const PlanNode*, std::unique_ptr<obs::OperatorProfile>>
      units;
  RewriteCtx ctx{db, config,
                 config.pool != nullptr ? config.pool
                                        : db.parallel_pool(threads),
                 profile != nullptr ? &units : nullptr};
  FF_ASSIGN_OR_RETURN(PlanPtr rewritten, Rewrite(plan, true, ctx));
  if (profile != nullptr) {
    profile->engine = units.empty() ? "serial" : "parallel";
  }
  if (rewritten == plan) {
    if (profile != nullptr) {
      // Nothing was eligible; re-run profiled (the second Init is the
      // price of observation — results are identical by contract).
      return ExecuteColumnar(*plan, db, profile);
    }
    // Drain the prevalidated tree directly rather than paying a second
    // Init (notably a second index Lookup).
    return Drain(*prevalidated);
  }
  if (rewritten->kind() == PlanKind::kMaterialized) {
    // The whole plan was executed in parallel; the merge result is
    // solely owned here, so adopt it instead of copying row by row.
    const auto& m = static_cast<const MaterializedNode&>(*rewritten);
    if (profile != nullptr) {
      auto it = units.find(rewritten.get());
      if (it != units.end()) profile->root = std::move(it->second);
    }
    ResultSet rs{m.schema, {}};
    rs.rows = std::move(const_cast<std::vector<Row>&>(*m.rows));
    return rs;
  }
  if (profile != nullptr) {
    FF_ASSIGN_OR_RETURN(ResultSet rs,
                        ExecuteColumnar(*rewritten, db, profile));
    SpliceUnitProfiles(*rewritten, profile->root.get(), &units);
    return rs;
  }
  return ExecuteColumnar(*rewritten, db);
}

/// Start time for StampTotal: now when `profile` is timed, else 0.
int64_t ProfileStart(const obs::QueryProfile* profile) {
  return obs::kProfilingCompiledIn && profile != nullptr
             ? obs::RuntimeNowNs()
             : 0;
}

/// Sets profile->total_ns to the time since `t0` (ProfileStart).
void StampTotal(obs::QueryProfile* profile, int64_t t0) {
  if (obs::kProfilingCompiledIn && profile != nullptr) {
    profile->total_ns = static_cast<uint64_t>(obs::RuntimeNowNs() - t0);
  }
}

}  // namespace

ParallelConfig ParallelConfig::FromEnv() {
  ParallelConfig cfg;
  const char* env = std::getenv("FF_STATSDB_PARALLEL");
  if (env == nullptr || *env == '\0') return cfg;
  std::string v(env);
  if (v == "off" || v == "0" || v == "false") {
    cfg.enabled = false;
    return cfg;
  }
  char* end = nullptr;
  unsigned long t = std::strtoul(v.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && t > 0) {
    cfg.max_threads = static_cast<size_t>(t);
  }
  return cfg;
}

util::StatusOr<ResultSet> ExecuteParallel(const PlanPtr& plan,
                                          const Database& db,
                                          const ParallelConfig& config,
                                          obs::QueryProfile* profile) {
  // Whole-call wall time, covering parallel units executed during the
  // rewrite as well as the final serial drain.
  const int64_t t0 = ProfileStart(profile);
  auto result = ExecuteParallelImpl(plan, db, config, profile);
  StampTotal(profile, t0);
  return result;
}

util::StatusOr<ResultSet> ExecuteOptimized(const PlanPtr& optimized,
                                           const Database& db,
                                           obs::QueryProfile* profile) {
  if (optimized == nullptr) {
    return util::Status::InvalidArgument("null plan");
  }
  const int64_t t0 = ProfileStart(profile);
  QueryCache& qc = db.cache();
  QueryCache::ResultKey key;
  if (qc.config().mode == CacheConfig::Mode::kFull) {
    key = QueryCache::MakeResultKey(*optimized, db);
  }
  if (!key.cacheable) {
    qc.RecordResultBypass();
    if (profile != nullptr) profile->cache = "bypass";
  } else if (std::shared_ptr<const ResultSet> hit = qc.GetResult(key)) {
    // Nothing executed: no operator tree, and the engine label says so.
    // The result bytes are identical to a real run by contract.
    if (profile != nullptr) {
      profile->cache = "hit";
      profile->engine = "cache";
    }
    StampTotal(profile, t0);
    return *hit;  // copy out; the cached ResultSet stays immutable
  } else if (profile != nullptr) {
    profile->cache = "miss";
  }
  auto result = ExecuteParallel(optimized, db, db.parallel_config(), profile);
  StampTotal(profile, t0);  // the cache lookup included
  if (key.cacheable && result.ok()) qc.PutResult(key, *result);
  return result;
}

}  // namespace statsdb
}  // namespace ff

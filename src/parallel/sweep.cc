#include "parallel/sweep.h"

#include <utility>

#include "logdata/loader.h"
#include "obs/merge.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"

namespace ff {
namespace parallel {

SweepOutputs SweepRunner::Run(size_t num_replicas, const ReplicaFn& fn) {
  SweepOutputs out;
  out.num_replicas = num_replicas;
  out.replica_traces.resize(num_replicas);
  out.replica_metrics.resize(num_replicas);
  out.replica_records.resize(num_replicas);

  // Resolve the pool up front so the replica closure can attribute each
  // replica to the worker that ran it (runtime profiling only — the
  // deterministic outputs never see worker identity).
  size_t workers = options_.pool != nullptr
                       ? options_.pool->num_threads()
                       : options_.num_workers == 0 ? ThreadPool::DefaultThreads()
                                                   : options_.num_workers;
  out.num_workers = workers;
  const bool use_pool = workers > 1 && num_replicas > 1;
  std::unique_ptr<ThreadPool> owned;
  ThreadPool* pool = nullptr;
  if (use_pool) {
    pool = options_.pool;
    if (pool == nullptr) {
      owned = std::make_unique<ThreadPool>(
          ThreadPool::Options{workers, /*max_queue=*/1024});
      pool = owned.get();
    }
  }

  int64_t sweep_t0 = 0;
  obs::PoolRuntimeProfile pool_before;
  if constexpr (obs::kProfilingCompiledIn) {
    out.runtime.replicas.resize(num_replicas);
    sweep_t0 = obs::RuntimeNowNs();
    if (pool != nullptr) pool_before = pool->RuntimeProfile();
  }

  auto run_replica = [&](size_t i) {
    int64_t replica_t0 = 0;
    if constexpr (obs::kProfilingCompiledIn) {
      replica_t0 = obs::RuntimeNowNs();
      obs::ReplicaRuntime& rt = out.runtime.replicas[i];
      rt.replica = i;
      rt.queue_wait_ms = static_cast<double>(replica_t0 - sweep_t0) / 1e6;
      rt.worker = pool != nullptr ? pool->caller_worker_index() : SIZE_MAX;
    }
    // Recorders are created on the worker that runs the replica (memory
    // first-touch locality) but land in replica-indexed slots, so which
    // worker ran what leaves no trace in the outputs.
    if (options_.record_traces) {
      out.replica_traces[i] = std::make_unique<obs::TraceRecorder>();
    }
    if (options_.record_metrics) {
      out.replica_metrics[i] = std::make_unique<obs::MetricsRegistry>();
    }
    obs::ScopedObservability scoped(out.replica_traces[i].get(),
                                    out.replica_metrics[i].get());
    ReplicaContext ctx;
    ctx.replica = i;
    ctx.num_replicas = num_replicas;
    ctx.rng = util::Rng(options_.base_seed).Split(i);
    ctx.trace = out.replica_traces[i].get();
    ctx.metrics = out.replica_metrics[i].get();
    ctx.records = &out.replica_records[i];
    fn(ctx);
    if constexpr (obs::kProfilingCompiledIn) {
      out.runtime.replicas[i].wall_ms =
          static_cast<double>(obs::RuntimeNowNs() - replica_t0) / 1e6;
    }
  };

  // Post-barrier merge steps. Each consumes only the frozen per-replica
  // outputs and writes its own artifact, in replica-index order — which
  // worker (or thread count) runs them cannot show in the bytes.
  obs::MergeOptions merge_options;
  merge_options.lane_prefix = options_.lane_prefix;
  auto merge_traces = [&] {
    std::vector<const obs::TraceRecorder*> traces;
    traces.reserve(num_replicas);
    for (const auto& t : out.replica_traces) traces.push_back(t.get());
    out.merged_trace = std::make_unique<obs::TraceRecorder>();
    obs::MergeTraces(traces, out.merged_trace.get(), merge_options);
  };
  auto merge_metrics = [&] {
    std::vector<const obs::MetricsRegistry*> metrics;
    metrics.reserve(num_replicas);
    for (const auto& m : out.replica_metrics) metrics.push_back(m.get());
    out.merged_metrics = std::make_unique<obs::MetricsRegistry>();
    obs::MergeMetrics(metrics, out.merged_metrics.get(), merge_options);
  };
  auto merge_records = [&] {
    size_t total_records = 0;
    for (const auto& r : out.replica_records) total_records += r.size();
    out.merged_records.reserve(total_records);
    for (const auto& r : out.replica_records) {
      out.merged_records.insert(out.merged_records.end(), r.begin(), r.end());
    }
  };

  if (!use_pool) {
    for (size_t i = 0; i < num_replicas; ++i) run_replica(i);
    if (options_.record_traces) merge_traces();
    if (options_.record_metrics) merge_metrics();
    merge_records();
  } else {
    // Waits are scoped to this sweep's own tasks (TaskGroup, not
    // pool-wide Wait), so concurrent users of a shared pool — another
    // sweep, a parallel statsdb query — neither block us nor get
    // blocked, and the sweep itself may run from inside a pool task.
    uint64_t steals_before = pool->steals();
    TaskGroup replicas(pool);
    replicas.ParallelFor(num_replicas, run_replica);
    // The merge passes share no state with each other, so they overlap
    // on the pool — halving the serial tail that bounds sweep speedup.
    TaskGroup merges(pool);
    if (options_.record_traces) merges.Submit(merge_traces);
    if (options_.record_metrics) merges.Submit(merge_metrics);
    merge_records();
    merges.Wait();
    out.steals = pool->steals() - steals_before;
  }
  if constexpr (obs::kProfilingCompiledIn) {
    const int64_t sweep_ns = obs::RuntimeNowNs() - sweep_t0;
    out.runtime.wall_ms = static_cast<double>(sweep_ns) / 1e6;
    if (pool != nullptr) {
      out.runtime.pool = pool->RuntimeProfile().Since(pool_before);
      out.runtime.worker_occupancy.resize(out.runtime.pool.workers.size());
      for (size_t w = 0; w < out.runtime.pool.workers.size(); ++w) {
        out.runtime.worker_occupancy[w] =
            sweep_ns > 0 ? static_cast<double>(out.runtime.pool.workers[w].run_ns) /
                               static_cast<double>(sweep_ns)
                         : 0.0;
      }
    }
  }
  return out;
}

util::StatusOr<statsdb::Table*> LoadSweepRuns(statsdb::Database* db,
                                              const SweepOutputs& outputs) {
  using statsdb::DataType;
  using statsdb::Schema;
  using statsdb::Table;

  if (db->HasTable(kSweepRunsTable)) {
    FF_RETURN_IF_ERROR(db->DropTable(kSweepRunsTable));
  }
  Schema runs_schema = logdata::RunsSchema();
  std::vector<statsdb::Column> columns;
  columns.push_back({"replica", DataType::kInt64});
  for (const auto& col : runs_schema.columns()) {
    columns.push_back(col);
  }
  FF_ASSIGN_OR_RETURN(Table * table,
                      db->CreateTable(kSweepRunsTable, Schema(columns)));
  {
    Table::BulkAppender app(table);
    app.Reserve(outputs.merged_records.size());
    for (size_t ri = 0; ri < outputs.replica_records.size(); ++ri) {
      for (const auto& r : outputs.replica_records[ri]) {
        app.Int64(static_cast<int64_t>(ri));
        FF_RETURN_IF_ERROR(logdata::AppendRunCells(app, r));
      }
    }
    FF_RETURN_IF_ERROR(app.Finish());
  }
  FF_RETURN_IF_ERROR(table->CreateIndex("replica"));
  FF_RETURN_IF_ERROR(table->CreateIndex("forecast"));
  FF_RETURN_IF_ERROR(table->CreateIndex("node"));
  return table;
}

}  // namespace parallel
}  // namespace ff

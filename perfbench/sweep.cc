// Workload `sweep`: the nightly what-if study, end to end.
//
//   1. parallel::SweepRunner on a 4-worker pool runs kReplicas replicas;
//      each is a factory::Campaign of a kFleet-forecast CORIE fleet on 4
//      nodes for kDays days, with trace and metrics recording on.
//   2. After the merge barrier: export the Chrome trace JSON and the
//      metric-samples CSV, then load the merged run records into a
//      statsdb `runs` table (logdata::LoadRuns).
//   3. The paper's report queries (T6): per-node and per-code-version
//      aggregates, DISTINCT forecasts of one version, top-k slowest runs.
//   4. Replan tomorrow with core::ForeMan::PlanDay, estimating from the
//      loaded `runs` table.
//
// Set-up generates the inputs, starts the pool and runs the same
// pipeline on one worker as the reference: every measured iteration's
// trace JSON, metrics CSV, report CSV and plan must hash-equal it.

#include <algorithm>
#include <atomic>
#include <sstream>

#include "core/foreman.h"
#include "factory/campaign.h"
#include "logdata/loader.h"
#include "obs/chrome_trace.h"
#include "parallel/sweep.h"
#include "parallel/thread_pool.h"
#include "perfbench/workloads.h"
#include "statsdb/database.h"
#include "util/fingerprint.h"

namespace ff {
namespace bench {
namespace {

constexpr size_t kReplicas = 32;
constexpr int kDays = 30;
constexpr int kFleet = 20;
constexpr int kNodes = 4;
constexpr size_t kWorkers = 4;
// 4h telemetry ticks, as in perf_sweep: the merged sample volume stays a
// few percent of the sweep.
constexpr double kSamplePeriod = 4.0 * 3600.0;

const char* const kReportQueries[] = {
    "SELECT node, COUNT(*) AS n, AVG(walltime) AS avg_w, MAX(walltime) AS "
    "max_w FROM runs WHERE status = 'completed' GROUP BY node ORDER BY node",
    "SELECT code_version, COUNT(*) AS n, AVG(walltime) AS avg_w FROM runs "
    "GROUP BY code_version ORDER BY code_version",
    "SELECT DISTINCT forecast FROM runs WHERE code_version = 'elcirc-5.02' "
    "ORDER BY forecast",
    "SELECT forecast, day, node, walltime FROM runs WHERE status = "
    "'completed' ORDER BY walltime DESC, forecast, day LIMIT 20",
};

std::string NodeName(int i) { return "f" + std::to_string(i + 1); }

/// Hashes of the artifacts the determinism check compares.
struct Digests {
  uint64_t trace = 0, metrics = 0, report = 0, plan = 0;
  bool operator==(const Digests&) const = default;
};

/// One pipeline run: digests plus its stage timings and counters.
struct Iteration {
  bool ok = true;
  Digests digests;
  double total_ms = 0, export_ms = 0, load_ms = 0, report_ms = 0,
         plan_ms = 0;
  size_t rows = 0;
  std::vector<double> replica_ms;  // whole replica function wall per replica
  std::vector<double> run_ms;      // Campaign::Run wall per replica
  uint64_t sim_events = 0;     // summed over replicas
  double mean_replica_ms = 0;  // SweepRuntimeProfile replica wall, mean
  double mean_queue_wait_ms = 0;
  double occupancy = 0;
  double merge_ms = 0;  // sweep wall after the last replica ended
};

double MsSince(int64_t t0) { return (NowNs() - t0) / 1e6; }

class SweepPipeline {
 public:
  explicit SweepPipeline(uint64_t seed)
      : inputs_(MakeReplicaInputs(seed, kReplicas + 1, kFleet)),
        pool_(kWorkers) {
    for (int i = 0; i < kNodes; ++i) {
      nodes_.push_back(core::NodeInfo{NodeName(i), 2, 1.0});
    }
  }

  Iteration Run(size_t workers, uint64_t request) {
    Iteration it;
    it.replica_ms.assign(kReplicas, 0.0);
    it.run_ms.assign(kReplicas, 0.0);
    std::atomic<int> failed_replicas{0};
    const int64_t t_start = NowNs();
    ScopedSpan root(Layer::kBench, "sweep.iteration", request);

    parallel::SweepOptions opt;
    opt.num_workers = workers;
    opt.pool = workers > 1 ? &pool_ : nullptr;
    opt.base_seed = inputs_[0].campaign_seed;
    parallel::SweepRunner runner(opt);
    parallel::SweepOutputs out;
    {
      ScopedSpan span(Layer::kParallel, "SweepRunner::Run", request);
      const uint64_t sweep_span = span.id();
      out = runner.Run(kReplicas, [&](parallel::ReplicaContext& ctx) {
        const uint32_t r = static_cast<uint32_t>(ctx.replica);
        ScopedSpan rspan(Layer::kBench, "replica", request, r, sweep_span);
        const int64_t t0 = NowNs();
        if (!RunReplica(ctx, request, &it.run_ms[ctx.replica])) {
          failed_replicas.fetch_add(1);
        }
        it.replica_ms[ctx.replica] = MsSince(t0);
      });
    }
    it.ok = failed_replicas.load() == 0 && out.merged_trace != nullptr &&
            out.merged_metrics != nullptr;
    if (!it.ok) return it;
    for (const auto& m : out.replica_metrics) {
      const obs::Counter* c =
          m ? m->FindCounter("sim.events_dispatched") : nullptr;
      if (c != nullptr) it.sim_events += c->value();
    }
    SummarizeRuntime(out.runtime, &it);

    // 2. Export the merged artifacts, then load the records.
    int64_t t0 = NowNs();
    {
      ScopedSpan span(Layer::kObs, "ChromeTraceJson", request);
      it.digests.trace = util::Fingerprint64(
          obs::ChromeTraceJson(*out.merged_trace, out.merged_metrics.get()));
    }
    {
      ScopedSpan span(Layer::kObs, "WriteMetricSamplesCsv", request);
      std::ostringstream csv;
      obs::WriteMetricSamplesCsv(*out.merged_metrics, &csv);
      it.digests.metrics = util::Fingerprint64(csv.str());
    }
    it.export_ms = MsSince(t0);

    statsdb::Database db;
    db.set_cache_config(statsdb::CacheConfig{});  // off: measure the engine
    statsdb::ParallelConfig pcfg = db.parallel_config();
    pcfg.pool = &pool_;
    db.set_parallel_config(pcfg);
    t0 = NowNs();
    {
      ScopedSpan span(Layer::kLogdata, "LoadRuns", request);
      auto table = logdata::LoadRuns(&db, out.merged_records);
      if (!table.ok()) return Fail(&it);
      it.rows = (*table)->num_rows();
    }
    it.load_ms = MsSince(t0);

    // 3. Report queries.
    t0 = NowNs();
    util::FingerprintStream report;
    for (const char* sql : kReportQueries) {
      ScopedSpan span(Layer::kStatsdb, "Database::Sql", request);
      auto rs = db.Sql(sql);
      if (!rs.ok()) return Fail(&it);
      report.Str(rs->ToCsv());
    }
    it.digests.report = report.Digest();
    it.report_ms = MsSince(t0);

    // 4. Replan tomorrow from the loaded history.
    t0 = NowNs();
    {
      ScopedSpan span(Layer::kCore, "ForeMan::PlanDay", request);
      core::ForeMan foreman(nodes_, &db);
      auto plan = foreman.PlanDay(inputs_[kReplicas].fleet);
      if (!plan.ok()) return Fail(&it);
      it.digests.plan = util::Fingerprint64(foreman.RenderTable(*plan));
    }
    it.plan_ms = MsSince(t0);
    it.total_ms = MsSince(t_start);
    return it;
  }

 private:
  static Iteration& Fail(Iteration* it) {
    it->ok = false;
    return *it;
  }

  bool RunReplica(parallel::ReplicaContext& ctx, uint64_t request,
                  double* run_ms) {
    const ReplicaInput& in = inputs_[ctx.replica];
    factory::CampaignConfig cfg;
    cfg.num_days = kDays;
    cfg.metrics_sample_period = kSamplePeriod;
    cfg.seed = in.campaign_seed;
    factory::Campaign campaign(cfg);
    for (int i = 0; i < kNodes; ++i) {
      if (!campaign.AddNode(NodeName(i)).ok()) return false;
    }
    for (size_t i = 0; i < in.fleet.size(); ++i) {
      if (!campaign.AddForecast(in.fleet[i], NodeName(static_cast<int>(i) %
                                                       kNodes))
               .ok()) {
        return false;
      }
    }
    const int64_t t0 = NowNs();
    util::StatusOr<factory::CampaignResult> result = [&] {
      ScopedSpan span(Layer::kFactory, "Campaign::Run", request,
                      static_cast<uint32_t>(ctx.replica));
      return campaign.Run();
    }();
    *run_ms = MsSince(t0);
    if (!result.ok()) return false;
    *ctx.records = std::move(result->records);
    return true;
  }

  static void SummarizeRuntime(const obs::SweepRuntimeProfile& rt,
                               Iteration* it) {
    if (rt.replicas.empty()) return;
    double wall = 0, wait = 0, last_end = 0;
    for (const auto& r : rt.replicas) {
      wall += r.wall_ms;
      wait += r.queue_wait_ms;
      last_end = std::max(last_end, r.queue_wait_ms + r.wall_ms);
    }
    const double n = static_cast<double>(rt.replicas.size());
    it->mean_replica_ms = wall / n;
    it->mean_queue_wait_ms = wait / n;
    it->merge_ms = std::max(0.0, rt.wall_ms - last_end);
    it->occupancy = rt.pool.Occupancy();
  }

  std::vector<ReplicaInput> inputs_;  // kReplicas + tomorrow's fleet
  std::vector<core::NodeInfo> nodes_;
  parallel::ThreadPool pool_;
};

double MedianOf(const std::vector<Iteration>& its,
                double (*field)(const Iteration&)) {
  std::vector<double> v;
  for (const auto& it : its) v.push_back(field(it));
  return Median(std::move(v));
}

}  // namespace

WorkloadResult RunSweep(const RunConfig& cfg) {
  WorkloadResult res;

  // Set-up: inputs, pool, and the 1-worker reference pipeline.
  std::unique_ptr<SweepPipeline> pipe;
  Iteration reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pipe.reset();
    const int64_t t0 = NowNs();
    pipe = std::make_unique<SweepPipeline>(cfg.seed);
    reference = pipe->Run(1, 0);
    setup_s.push_back(MsSince(t0) / 1e3);
    ++res.attempted;
    if (!reference.ok) ++res.failed;
  }
  res.setup_s = Median(setup_s);
  if (!reference.ok) {
    res.correct = false;
    res.report.push_back("sweep: reference pipeline failed");
    return res;
  }

  // Measure: back-to-back pipeline iterations. A traced run spends the
  // first half untraced and the second half traced.
  std::vector<Iteration> plain, traced;
  Tracer tracer;
  const double phase_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  uint64_t request = 1;
  for (int phase = 0; phase < (cfg.trace ? 2 : 1); ++phase) {
    auto& its = phase == 0 ? plain : traced;
    if (phase == 1) SetActiveTracer(&tracer);
    const int64_t end = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    do {
      its.push_back(pipe->Run(kWorkers, request++));
      const Iteration& it = its.back();
      res.attempted += kReplicas + 1;
      if (!it.ok) {
        res.failed += 1;
      } else if (!(it.digests == reference.digests)) {
        res.failed += 1;
        res.correct = false;
        res.report.push_back(Fmt(
            "sweep: iteration %llu artifacts differ from the 1-worker "
            "reference (trace %s, metrics %s, report %s, plan %s)",
            static_cast<unsigned long long>(request - 1),
            it.digests.trace == reference.digests.trace ? "ok" : "DIFF",
            it.digests.metrics == reference.digests.metrics ? "ok" : "DIFF",
            it.digests.report == reference.digests.report ? "ok" : "DIFF",
            it.digests.plan == reference.digests.plan ? "ok" : "DIFF"));
      }
    } while (NowNs() < end);
    SetActiveTracer(nullptr);
  }
  if (res.failed > 0) res.correct = false;

  // Throughput is the whole pipeline's; latency is one what-if replica's
  // (build and run its campaign on a pool worker beside three others).
  // The two are timed separately: export dominates the first, the
  // simulator the second. Throughput is over all iterations of the run,
  // so a slow stretch of the host is averaged in, not picked or dropped.
  const double replica_days = static_cast<double>(kReplicas) * kDays;
  auto e2e = [&](const std::vector<Iteration>& its, WorkloadResult* r) {
    std::vector<double> replica;
    double days = 0, wall_s = 0;
    for (const auto& it : its) {
      if (!it.ok) continue;  // counted in `failed`, not timed
      days += replica_days;
      wall_s += it.total_ms / 1e3;
      replica.insert(replica.end(), it.replica_ms.begin(),
                     it.replica_ms.end());
    }
    r->throughput_per_s = wall_s > 0 ? days / wall_s : 0.0;
    r->p50_ms = Median(replica);
    r->p99_ms = ExactPercentile(replica, 0.99);
  };
  e2e(plain, &res);
  std::vector<double> pipeline_ms;
  for (const auto& it : plain) {
    if (it.ok) pipeline_ms.push_back(it.total_ms);
  }
  res.report.push_back(Fmt(
      "sweep: %zu iterations of %zu replicas x %d days (fleet %d, %d nodes) "
      "on %zu workers; campaign_days_per_s=%.1f pipeline p50=%.2f ms "
      "p99=%.2f ms (1-worker reference %.2f ms; export p50=%.2f ms); "
      "replica p50=%.3f ms p99=%.3f ms",
      plain.size(), kReplicas, kDays, kFleet, kNodes, kWorkers,
      res.throughput_per_s, Median(pipeline_ms),
      ExactPercentile(pipeline_ms, 0.99), reference.total_ms,
      MedianOf(plain, [](const Iteration& i) { return i.export_ms; }),
      res.p50_ms, res.p99_ms));

  if (!cfg.trace) return res;

  auto& L = res.layer;
  L["p99_ms"] = res.p99_ms;
  std::vector<double> run_ms;
  uint64_t events = 0;
  double run_s = 0;
  for (const auto& it : traced) {
    for (double ms : it.run_ms) {
      run_ms.push_back(ms);
      run_s += ms / 1e3;
    }
    events += it.sim_events;
  }
  L["factory.replica_ms"] = Median(run_ms);
  L["sim.events"] = static_cast<double>(events) /
                    static_cast<double>(std::max<size_t>(1, run_ms.size()));
  L["sim.events_per_s"] = run_s > 0 ? static_cast<double>(events) / run_s : 0;
  L["parallel.replica_inflation"] =
      MedianOf(traced, [](const Iteration& i) { return i.mean_replica_ms; }) /
      reference.mean_replica_ms;
  L["parallel.occupancy"] =
      MedianOf(traced, [](const Iteration& i) { return i.occupancy; });
  L["parallel.queue_wait_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.mean_queue_wait_ms; });
  L["obs.merge_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.merge_ms; });
  L["obs.export_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.export_ms; });
  L["logdata.load_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.load_ms; });
  L["logdata.rows"] = static_cast<double>(traced.front().rows);
  L["statsdb.report_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.report_ms; });
  L["core.plan_ms"] =
      MedianOf(traced, [](const Iteration& i) { return i.plan_ms; });

  WorkloadResult traced_e2e;
  e2e(traced, &traced_e2e);
  // Extra pipeline wall per iteration with spans on.
  L["trace.overhead_frac"] =
      res.throughput_per_s / traced_e2e.throughput_per_s - 1.0;

  const std::vector<Span> spans = tracer.Collect();
  AddSelfTimes(spans, static_cast<double>(traced.size()), &L);
  SaveSpans(cfg, spans, &res.report);
  return res;
}

}  // namespace bench
}  // namespace ff

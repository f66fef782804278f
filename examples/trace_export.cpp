// Observability end to end: run a fixed-seed campaign, a §4.2 dataflow
// run, and a ForeMan planning pass with the tracing layer installed;
// export the virtual-time telemetry as a Chrome trace (load it at
// ui.perfetto.dev or chrome://tracing) plus CSVs; then ingest the same
// telemetry into statsdb and answer SQL over it — p95 task duration per
// node straight off the live spans.
//
// Usage: trace_export [output-prefix]   (default "trace_export")
// Writes <prefix>.json, <prefix>_spans.csv, <prefix>_metrics.csv.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/foreman.h"
#include "dataflow/forecast_run.h"
#include "factory/campaign.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/statsdb_bridge.h"
#include "obs/trace.h"
#include "statsdb/database.h"
#include "statsdb/sql.h"
#include "util/status.h"
#include "workload/fleet.h"

using namespace ff;

namespace {

int Fail(const util::Status& s) {
  std::cerr << s << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "trace_export";
  if (!obs::kTracingCompiledIn) {
    std::printf("tracing compiled out (FF_TRACING=OFF); nothing to export\n");
    return 0;
  }

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(&trace, &metrics);

  // --- 1. Fixed-seed campaign: run + task spans, node-failure instants,
  //        foreman-move decisions, counters and per-node gauges. ---
  util::Rng rng(2006);
  auto fleet = workload::MakeCorieFleet(6, &rng);
  {
    factory::CampaignConfig cfg;
    cfg.num_days = 7;
    cfg.seed = 2006;
    cfg.foreman_rebalance = true;
    factory::Campaign campaign(cfg);
    for (const char* n : {"f1", "f2", "f3"}) {
      if (auto s = campaign.AddNode(n); !s.ok()) return Fail(s);
    }
    for (size_t i = 0; i < fleet.size(); ++i) {
      std::string node = "f" + std::to_string(i % 3 + 1);
      if (auto s = campaign.AddForecast(fleet[i], node); !s.ok()) {
        return Fail(s);
      }
    }
    factory::ChangeEvent down;
    down.day = 3;
    down.kind = factory::ChangeEvent::Kind::kNodeDown;
    down.str_value = "f2";
    campaign.AddEvent(down);
    factory::ChangeEvent up;
    up.day = 5;
    up.kind = factory::ChangeEvent::Kind::kNodeUp;
    up.str_value = "f2";
    campaign.AddEvent(up);
    auto result = campaign.Run();
    if (!result.ok()) return Fail(result.status());
    std::printf("campaign: %zu forecasts x 7 days, %d migrations, "
                "%d foreman moves\n",
                fleet.size(), result->failure_migrations,
                result->foreman_moves);
  }

  // --- 2. §4.2 dataflow run: rsync transfer spans on the uplink. ---
  {
    sim::Simulator sim;
    cluster::Cluster plant(&sim, /*server_cpus=*/2,
                           /*server_speed=*/2.6 / 2.8,
                           /*server_ram_bytes=*/1.0e9);
    cluster::NodeSpec spec;
    spec.name = "client";
    spec.num_cpus = 2;
    spec.speed = 1.0;
    spec.ram_bytes = 1.0e9;
    spec.uplink_bps = 12.5e6;
    if (auto s = plant.AddNode(spec); !s.ok()) return Fail(s);
    trace.SetClock([&sim] { return sim.now(); });
    dataflow::RunConfig rcfg;
    rcfg.arch = dataflow::Architecture::kProductsAtServer;
    rcfg.record_series = false;
    dataflow::ForecastRun run(&sim, *plant.node("client"),
                              *plant.uplink("client"), plant.server(),
                              /*recorder=*/nullptr, fleet[0], rcfg);
    run.Start();
    sim.Run();
    trace.SetClock(nullptr);
    std::printf("dataflow: %s under Architecture 2 (%zu transfer spans)\n",
                fleet[0].name.c_str(),
                trace.CountSpans(obs::SpanCategory::kTransfer));
  }

  // --- 3. Planning pass: the foreman's decision as a plan span. ---
  {
    std::vector<core::NodeInfo> nodes;
    for (int i = 1; i <= 3; ++i) {
      nodes.push_back(core::NodeInfo{"f" + std::to_string(i), 2, 1.0});
    }
    core::ForeMan foreman(nodes, nullptr);
    auto plan = foreman.PlanDay(fleet);
    if (!plan.ok()) return Fail(plan.status());
    std::printf("planner: %zu runs placed, makespan %.0fs\n",
                plan->runs.size(), plan->makespan);
  }

  // --- Exports. ---
  std::printf("\nspan counts: run=%zu task=%zu transfer=%zu plan=%zu "
              "spc=%zu (open=%zu)\n",
              trace.CountSpans(obs::SpanCategory::kRun),
              trace.CountSpans(obs::SpanCategory::kTask),
              trace.CountSpans(obs::SpanCategory::kTransfer),
              trace.CountSpans(obs::SpanCategory::kPlan),
              trace.CountSpans(obs::SpanCategory::kSpc), trace.OpenSpans());

  {
    std::ofstream json(prefix + ".json");
    json << obs::ChromeTraceJson(trace, &metrics);
    if (!json.good()) {
      return Fail(util::Status::Internal("cannot write " + prefix + ".json"));
    }
    std::ofstream spans(prefix + "_spans.csv");
    obs::WriteSpansCsv(trace, &spans);
    std::ofstream samples(prefix + "_metrics.csv");
    obs::WriteMetricSamplesCsv(metrics, &samples);
  }
  std::printf("wrote %s.json (open in ui.perfetto.dev), %s_spans.csv, "
              "%s_metrics.csv\n",
              prefix.c_str(), prefix.c_str(), prefix.c_str());

  // --- statsdb bridge: SQL over the live telemetry. ---
  statsdb::Database db;
  if (auto t = obs::LoadSpans(trace, &db); !t.ok()) return Fail(t.status());
  if (auto t = obs::LoadInstants(trace, &db); !t.ok()) {
    return Fail(t.status());
  }
  if (auto t = obs::LoadMetricSamples(metrics, &db); !t.ok()) {
    return Fail(t.status());
  }

  const char* kQueries[] = {
      "SELECT category, COUNT(*) AS n, SUM(duration_s) AS total_s "
      "FROM spans GROUP BY category ORDER BY category",
      "SELECT track, COUNT(*) AS n, P95(duration_s) AS p95_s "
      "FROM spans WHERE category = 'task' GROUP BY track ORDER BY track",
  };
  for (const char* q : kQueries) {
    std::printf("\nsql> %s\n", q);
    auto rs = statsdb::ExecuteSql(&db, q);
    if (!rs.ok()) return Fail(rs.status());
    std::printf("%s", rs->ToPrettyString().c_str());
  }
  return 0;
}

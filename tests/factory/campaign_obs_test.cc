// Campaign + observability integration: span accounting matches the
// campaign's own result records, exports are byte-stable under a fixed
// seed, and the SPC monitor->replan loop closes on live telemetry.

#include <gtest/gtest.h>

#include <string>

#include "factory/campaign.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/fleet.h"

namespace ff {
namespace factory {
namespace {

CampaignConfig BaseConfig(int days) {
  CampaignConfig cfg;
  cfg.num_days = days;
  cfg.seed = 2006;
  return cfg;
}

util::StatusOr<CampaignResult> RunSmallCampaign(const CampaignConfig& cfg,
                                                int num_forecasts = 4) {
  Campaign campaign(cfg);
  for (const char* n : {"f1", "f2"}) {
    auto s = campaign.AddNode(n);
    if (!s.ok()) return s;
  }
  util::Rng rng(7);
  auto fleet = workload::MakeCorieFleet(num_forecasts, &rng);
  for (size_t i = 0; i < fleet.size(); ++i) {
    auto s = campaign.AddForecast(fleet[i], i % 2 == 0 ? "f1" : "f2");
    if (!s.ok()) return s;
  }
  return campaign.Run();
}

TEST(CampaignObsTest, SpanCountsMatchResultRecords) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(&trace, &metrics);
  auto result = RunSmallCampaign(BaseConfig(5));
  ASSERT_TRUE(result.ok()) << result.status();

  // Every launched run opened a kRun span (4 forecasts x 5 days) and every
  // run that completed closed it.
  size_t completed = 0;
  for (const auto& rec : result->records) {
    if (rec.status == logdata::RunStatus::kCompleted) ++completed;
  }
  EXPECT_EQ(trace.CountSpans(obs::SpanCategory::kRun), 20u);
  EXPECT_EQ(trace.OpenSpans(),
            (trace.CountSpans(obs::SpanCategory::kRun) - completed) +
                (trace.CountSpans(obs::SpanCategory::kTask) - completed));
  // Each run ran as exactly one machine task.
  EXPECT_EQ(trace.CountSpans(obs::SpanCategory::kTask), 20u);
  // Task spans are parented under their run span.
  size_t parented = 0;
  for (const auto& s : trace.spans()) {
    if (s.category == obs::SpanCategory::kTask && s.parent != 0) ++parented;
  }
  EXPECT_EQ(parented, 20u);

  ASSERT_NE(metrics.FindCounter("campaign.runs_completed"), nullptr);
  EXPECT_EQ(metrics.FindCounter("campaign.runs_completed")->value(),
            completed);
  // The per-day metrics ticker sampled node gauges into the series.
  EXPECT_FALSE(metrics.SeriesSamples("node.util.f1").empty());
}

TEST(CampaignObsTest, ChromeExportIsByteStableUnderFixedSeed) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    obs::TraceRecorder trace;
    obs::MetricsRegistry metrics;
    obs::ScopedObservability scope(&trace, &metrics);
    auto result = RunSmallCampaign(BaseConfig(3));
    ASSERT_TRUE(result.ok()) << result.status();
    json[i] = obs::ChromeTraceJson(trace, &metrics);
  }
  EXPECT_GT(json[0].size(), 1000u);
  EXPECT_EQ(json[0], json[1]);
}

TEST(CampaignObsTest, ObservabilityDoesNotChangeSimulatedOutcomes) {
  auto base = RunSmallCampaign(BaseConfig(4));
  ASSERT_TRUE(base.ok());
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(&trace, &metrics);
  auto traced = RunSmallCampaign(BaseConfig(4));
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(base->records.size(), traced->records.size());
  for (size_t i = 0; i < base->records.size(); ++i) {
    EXPECT_EQ(base->records[i].forecast, traced->records[i].forecast);
    EXPECT_DOUBLE_EQ(base->records[i].walltime, traced->records[i].walltime);
  }
}

TEST(CampaignObsTest, SpcMonitorSignalsAndReplansUnderGuestLoad) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(&trace, &metrics);
  CampaignConfig cfg = BaseConfig(20);
  cfg.spc_replan = true;
  cfg.spc_baseline_days = 6;
  Campaign campaign(cfg);
  ASSERT_TRUE(campaign.AddNode("f1").ok());
  ASSERT_TRUE(campaign.AddNode("f2").ok());
  util::Rng rng(7);
  auto fleet = workload::MakeCorieFleet(2, &rng);
  ASSERT_TRUE(campaign.AddForecast(fleet[0], "f1").ok());
  ASSERT_TRUE(campaign.AddForecast(fleet[1], "f2").ok());
  for (int day = 8; day < 20; ++day) {
    ChangeEvent guest;
    guest.day = day;
    guest.kind = ChangeEvent::Kind::kGuestLoad;
    guest.str_value = "f1";
    guest.factor = 2.5e5;
    campaign.AddEvent(guest);
  }
  auto result = campaign.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->spc_signals, 0);
  EXPECT_GT(result->spc_replans, 0);
  // The monitor leaves an audit trail in the trace and the registry.
  EXPECT_GT(trace.CountSpans(obs::SpanCategory::kSpc) +
                trace.instants().size(),
            0u);
  ASSERT_NE(metrics.FindCounter("campaign.spc_signals"), nullptr);
  EXPECT_EQ(metrics.FindCounter("campaign.spc_signals")->value(),
            static_cast<uint64_t>(result->spc_signals));
  // The walltime telemetry the chart ran on is queryable after the fact.
  EXPECT_FALSE(
      metrics.SeriesValues("campaign.walltime." + fleet[0].name).empty());
}

TEST(CampaignObsTest, NoRecorderMeansNoSpansAndNoSamples) {
  // Sanity for the zero-cost claim's correctness half: without installed
  // observability the campaign runs identically and records nothing.
  auto result = RunSmallCampaign(BaseConfig(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
  EXPECT_EQ(obs::ActiveMetrics(), nullptr);
}

TEST(CampaignObsTest, CompiledOutHooksRecordNothing) {
  // The FF_TRACING=OFF contract: installing recorders is inert, nothing is
  // recorded, and the campaign's records are those of an unobserved run.
  if (obs::kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled in (FF_TRACING=ON)";
  }
  auto base = RunSmallCampaign(BaseConfig(4));
  ASSERT_TRUE(base.ok());
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(&trace, &metrics);
  EXPECT_EQ(obs::ActiveTrace(), nullptr);
  EXPECT_EQ(obs::ActiveMetrics(), nullptr);
  auto observed = RunSmallCampaign(BaseConfig(4));
  ASSERT_TRUE(observed.ok());
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_TRUE(trace.instants().empty());
  EXPECT_TRUE(metrics.samples().empty());
  EXPECT_TRUE(metrics.CounterNames().empty());
  EXPECT_TRUE(metrics.GaugeNames().empty());
  ASSERT_EQ(base->records.size(), observed->records.size());
  for (size_t i = 0; i < base->records.size(); ++i) {
    const auto& a = base->records[i];
    const auto& b = observed->records[i];
    EXPECT_EQ(a.forecast, b.forecast);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.start_time, b.start_time);
    EXPECT_EQ(a.walltime, b.walltime);
  }
}

}  // namespace
}  // namespace factory
}  // namespace ff

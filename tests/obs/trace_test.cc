#include "obs/trace.h"

#include <gtest/gtest.h>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"

namespace ff {
namespace obs {
namespace {

TEST(TraceRecorderTest, InternIsStableAndDeduplicates) {
  TraceRecorder tr;
  StrId a = tr.Intern("alpha");
  StrId b = tr.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.Intern("alpha"), a);
  EXPECT_EQ(tr.str(a), "alpha");
  EXPECT_EQ(tr.str(0), "");  // id 0 is reserved for the empty string
}

TEST(TraceRecorderTest, InternByViewMatchesInternByString) {
  TraceRecorder tr;
  const std::string long_name = "forecast-tillamook-bay-nowcast";
  StrId by_string = tr.Intern(long_name);
  // A view into a larger buffer: only the viewed bytes form the key.
  const std::string buffer = long_name + "#wip3";
  std::string_view view(buffer.data(), long_name.size());
  EXPECT_EQ(tr.Intern(view), by_string);
  StrId first_by_view = tr.Intern(std::string_view(buffer));
  EXPECT_NE(first_by_view, by_string);
  EXPECT_EQ(tr.Intern(std::string(buffer)), first_by_view);
  EXPECT_EQ(tr.str(first_by_view), buffer);
  EXPECT_EQ(tr.Intern(std::string_view()), 0u);
  EXPECT_EQ(tr.num_strings(), 3u);
}

TEST(TraceRecorderTest, SpanLifecycleAndCounts) {
  TraceRecorder tr;
  SpanId run = tr.BeginSpan(10.0, SpanCategory::kRun, "r", "runs");
  SpanId task = tr.BeginSpan(11.0, SpanCategory::kTask, "t", "f1", run);
  EXPECT_EQ(run, 1u);
  EXPECT_EQ(task, 2u);
  EXPECT_EQ(tr.OpenSpans(), 2u);
  tr.EndSpan(task, 15.0);
  tr.EndSpan(run, 20.0);
  EXPECT_EQ(tr.OpenSpans(), 0u);
  EXPECT_EQ(tr.CountSpans(SpanCategory::kRun), 1u);
  EXPECT_EQ(tr.CountSpans(SpanCategory::kTask), 1u);
  EXPECT_EQ(tr.CountSpans(SpanCategory::kTransfer), 0u);
  EXPECT_DOUBLE_EQ(tr.spans()[1].start, 11.0);
  EXPECT_DOUBLE_EQ(tr.spans()[1].end, 15.0);
  EXPECT_EQ(tr.spans()[1].parent, run);
}

TEST(TraceRecorderTest, EndSpanIsIdempotentAndIgnoresNull) {
  TraceRecorder tr;
  SpanId s = tr.BeginSpan(1.0, SpanCategory::kTask, "t", "x");
  tr.EndSpan(s, 2.0);
  tr.EndSpan(s, 99.0);  // already closed; keeps the first end time
  EXPECT_DOUBLE_EQ(tr.spans()[0].end, 2.0);
  tr.EndSpan(0, 5.0);  // no-op
  EXPECT_EQ(tr.spans().size(), 1u);
}

TEST(TraceRecorderTest, InlineArgAndRemovedFlag) {
  TraceRecorder tr;
  StrId key = tr.Intern("work");
  SpanId a = tr.BeginSpan(0.0, SpanCategory::kTask, tr.Intern("t"),
                          tr.Intern("x"), 0, key, 42.5);
  SpanId b = tr.BeginSpan(0.0, SpanCategory::kTask, "t", "x");
  tr.EndSpan(a, 1.0);
  tr.EndSpanRemoved(b, 1.0);
  EXPECT_EQ(tr.spans()[0].arg_key, key);
  EXPECT_DOUBLE_EQ(tr.spans()[0].arg_value, 42.5);
  EXPECT_EQ(tr.spans()[0].flags, 0);
  EXPECT_EQ(tr.spans()[1].arg_key, 0u);
  EXPECT_EQ(tr.spans()[1].flags, kSpanFlagRemoved);
}

TEST(TraceRecorderTest, SideTableArgs) {
  TraceRecorder tr;
  SpanId s = tr.BeginSpan(0.0, SpanCategory::kPlan, "p", "planner");
  tr.SpanArg(s, "makespan", 123.0);
  tr.SpanArg(s, "node", std::string_view("f1"));
  ASSERT_EQ(tr.num_args().size(), 1u);
  ASSERT_EQ(tr.str_args().size(), 1u);
  EXPECT_EQ(tr.num_args()[0].span, s);
  EXPECT_EQ(tr.str(tr.num_args()[0].key), "makespan");
  EXPECT_DOUBLE_EQ(tr.num_args()[0].value, 123.0);
  EXPECT_EQ(tr.str(tr.str_args()[0].value), "f1");
}

TEST(ScopedObservabilityTest, InstallRestoreAndEpochBump) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  uint64_t e0 = ObsEpoch();
  {
    TraceRecorder tr;
    MetricsRegistry m;
    ScopedObservability scope(&tr, &m);
    EXPECT_EQ(ActiveTrace(), &tr);
    EXPECT_EQ(ActiveMetrics(), &m);
    EXPECT_NE(ObsEpoch(), e0);
    {
      TraceRecorder inner;
      ScopedObservability nested(&inner, nullptr);
      EXPECT_EQ(ActiveTrace(), &inner);
      EXPECT_EQ(ActiveMetrics(), nullptr);
    }
    EXPECT_EQ(ActiveTrace(), &tr);  // restored
  }
  EXPECT_EQ(ActiveTrace(), nullptr);
  EXPECT_EQ(ActiveMetrics(), nullptr);
  EXPECT_NE(ObsEpoch(), e0);  // every install/uninstall bumps
}

TEST(SpanRaiiTest, NoopWithoutRecorderRecordsWithOne) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "hooks compiled out (FF_TRACING=OFF)";
  }
  { Span s(SpanCategory::kPlan, "p", "planner"); }  // no recorder: no-op
  TraceRecorder tr;
  tr.SetClock([] { return 42.0; });
  {
    ScopedObservability scope(&tr, nullptr);
    Span s(SpanCategory::kPlan, "plan_day", "planner");
    s.Arg("fleet", 6.0);
  }
  ASSERT_EQ(tr.spans().size(), 1u);
  EXPECT_DOUBLE_EQ(tr.spans()[0].start, 42.0);
  EXPECT_DOUBLE_EQ(tr.spans()[0].end, 42.0);
  EXPECT_EQ(tr.num_args().size(), 1u);
}

// The exporter's byte format is part of the contract: fixed `%.3f`
// microsecond timestamps and `%.6g` arg values make exports diffable and
// golden-testable. If this test breaks, either the change is accidental
// (fix it) or the format evolved deliberately (re-bless the golden).
TEST(ChromeTraceTest, GoldenExport) {
  TraceRecorder tr;
  StrId task = tr.Intern("sim");
  StrId track = tr.Intern("f1");
  StrId work = tr.Intern("work");
  SpanId run = tr.BeginSpan(3600.0, SpanCategory::kRun, "tide-a", "runs");
  SpanId t1 =
      tr.BeginSpan(3600.0, SpanCategory::kTask, task, track, run, work,
                   19061.5);
  tr.SpanArg(run, "node", std::string_view("f1"));
  tr.EndSpan(t1, 7200.25);
  SpanId t2 = tr.BeginSpan(7200.25, SpanCategory::kTask, task, track, run);
  tr.EndSpanRemoved(t2, 7300.0);
  tr.EndSpan(run, 7300.0);
  tr.Instant(7300.0, SpanCategory::kPlan, "node_down:f1", "campaign");
  MetricsRegistry m;
  m.counter("runs.completed")->Increment();
  m.SampleAll(7300.0);

  const std::string kGolden = R"({
"displayTimeUnit": "ms",
"traceEvents": [
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"forecast-factory"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"runs"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"f1"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"campaign"}},
{"ph":"X","pid":1,"tid":1,"cat":"run","name":"tide-a","ts":3600000000.000,"dur":3700000000.000,"args":{"span_id":1,"parent_id":0,"node":"f1"}},
{"ph":"X","pid":1,"tid":2,"cat":"task","name":"sim","ts":3600000000.000,"dur":3600250000.000,"args":{"span_id":2,"parent_id":1,"work":19061.5}},
{"ph":"X","pid":1,"tid":2,"cat":"task","name":"sim","ts":7200250000.000,"dur":99750000.000,"args":{"span_id":3,"parent_id":1,"removed":1}},
{"ph":"i","pid":1,"tid":3,"cat":"plan","name":"node_down:f1","ts":7300000000.000,"s":"t"},
{"ph":"C","pid":1,"tid":0,"name":"runs.completed","ts":7300000000.000,"args":{"value":1}}
]
}
)";
  EXPECT_EQ(ChromeTraceJson(tr, &m), kGolden);
}

TEST(ChromeTraceTest, OpenSpansExportWithZeroDuration) {
  TraceRecorder tr;
  tr.BeginSpan(5.0, SpanCategory::kRun, "r", "runs");
  std::string json = ChromeTraceJson(tr);
  EXPECT_NE(json.find("\"dur\":0.000"), std::string::npos);
}

TEST(ChromeTraceTest, EscapesJsonMetacharacters) {
  TraceRecorder tr;
  SpanId s = tr.BeginSpan(0.0, SpanCategory::kRun, "a\"b\\c\n", "runs");
  tr.EndSpan(s, 1.0);
  std::string json = ChromeTraceJson(tr);
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
}

TEST(ChromeTraceTest, SpansCsvRoundsTrips) {
  TraceRecorder tr;
  SpanId run = tr.BeginSpan(1.0, SpanCategory::kRun, "r", "runs");
  tr.EndSpan(run, 2.5);
  std::ostringstream csv;
  WriteSpansCsv(tr, &csv);
  EXPECT_EQ(csv.str(),
            "span_id,parent_id,category,name,track,start_s,end_s,"
            "duration_s\n"
            "1,0,run,r,runs,1.000000,2.500000,1.500000\n");
}

}  // namespace
}  // namespace obs
}  // namespace ff

// Differential tests: the one-buffer, to_chars exporters
// (obs/chrome_trace.h) against the ostringstream/printf reference
// (tests/oracle/chrome_trace_oracle.h), byte for byte, on edge values,
// hostile strings, out-of-order span args, a second process, block edges
// at the production block size and a real 32-replica sweep recording.

#include "oracle/chrome_trace_oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "factory/campaign.h"
#include "obs/chrome_trace.h"
#include "obs/profiler.h"
#include "parallel/sweep.h"
#include "util/rng.h"
#include "workload/fleet.h"

namespace ff {
namespace obs {
namespace {

std::string SpansCsv(const TraceRecorder& trace) {
  std::ostringstream out;
  WriteSpansCsv(trace, &out);
  return out.str();
}

std::string MetricSamplesCsv(const MetricsRegistry& metrics) {
  std::ostringstream out;
  WriteMetricSamplesCsv(metrics, &out);
  return out.str();
}

/// Compares every exporter with its reference; on a mismatch, reports
/// the first differing byte rather than two multi-megabyte strings.
void ExpectSameBytes(const std::string& got, const std::string& want,
                     const char* what) {
  if (got == want) return;
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  const size_t from = i < 80 ? 0 : i - 80;
  ADD_FAILURE() << what << " differs at byte " << i << " (sizes "
                << got.size() << " vs " << want.size() << ")\n got: "
                << got.substr(from, 160) << "\nwant: "
                << want.substr(from, 160);
}

void ExpectMatchesOracle(const TraceRecorder& trace,
                         const MetricsRegistry* metrics,
                         const ChromeTraceOptions& options = {}) {
  ExpectSameBytes(ChromeTraceJson(trace, metrics, options),
                  ChromeTraceJsonOracle(trace, metrics, options),
                  "ChromeTraceJson");
  ExpectSameBytes(SpansCsv(trace), SpansCsvOracle(trace), "WriteSpansCsv");
  if (metrics != nullptr) {
    ExpectSameBytes(MetricSamplesCsv(*metrics),
                    MetricSamplesCsvOracle(*metrics),
                    "WriteMetricSamplesCsv");
  }
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Values that stress each printf format: non-finite values, signed
/// zero, denormals, the extremes, fixed output far past 64 chars, and
/// rounding ties at each format's precision.
std::vector<double> EdgeValues() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          nan,
          -nan,
          FromBits(0x7ff0000000000001ull),  // signalling-NaN bits
          inf,
          -inf,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          1e-310,
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest(),
          1e300,
          -1e300,
          1.79e308,
          1e53,
          0.0005,   // "%.3f" tie after scaling, "%.6g"
          2.5e-7,   // 0.25 us
          5e-10,    // 0.0005 us: a "%.3f" tie in the JSON timestamp
          1.5e-9,
          0.0000005,  // "%.6f" tie in the CSV
          1.0000005,
          0.1234565,
          1234565.0,
          999999.5,   // "%.6g" rolls over to 1e+06
          999999.4,
          1e-5,
          1e-4,
          123456789012.0,
          1.0000000005,  // "%.9g" tie
          0.5,
          1.5,
          2.5,
          -2.5,
          3600.0,
          7200.25,
          19061.5,
          1.0 / 3.0,
          -1.0 / 3.0,
          4.35,
          2.675};
}

TEST(ChromeTraceDiffTest, EdgeValuesMatchPrintf) {
  TraceRecorder tr;
  MetricsRegistry m;
  const StrId key = tr.Intern("v");
  SpanId prev = 0;
  for (double v : EdgeValues()) {
    SpanId s = tr.BeginSpan(v, SpanCategory::kTask, tr.Intern("edge"),
                            tr.Intern("lane"), prev, key, v);
    tr.SpanArg(s, "x", v);
    tr.EndSpan(s, -v);  // negative end: the span stays open
    SpanId t = tr.BeginSpan(0.0, SpanCategory::kRun, "closed", "lane2");
    tr.EndSpan(t, v);
    tr.Instant(v, SpanCategory::kSim, "at", "instants");
    m.Record(v, "series", v);
    m.Record(0.0, "value_only", v);
    prev = s;
  }
  ExpectMatchesOracle(tr, &m);
}

TEST(ChromeTraceDiffTest, RandomBitPatternsMatchPrintf) {
  util::Rng rng(20061);
  TraceRecorder tr;
  MetricsRegistry m;
  const StrId key = tr.Intern("w");
  for (int i = 0; i < 3000; ++i) {
    // Alternate raw bit patterns (every exponent, NaN payloads) with
    // plausible magnitudes around the formats' rounding digits.
    const double a = FromBits(rng.Next());
    const double b = std::ldexp(rng.Uniform(-1.0, 1.0),
                                static_cast<int>(rng.Index(120)) - 60);
    SpanId s = tr.BeginSpan(i % 2 ? a : b, SpanCategory::kTask,
                            tr.Intern("r"), tr.Intern("lane"), 0, key,
                            i % 2 ? b : a);
    tr.EndSpan(s, i % 2 ? b : a);
    tr.SpanArg(s, "a", a);
    m.Record(i % 2 ? a : b, "s", i % 2 ? b : a);
  }
  ExpectMatchesOracle(tr, &m);
}

TEST(ChromeTraceDiffTest, HostileStringsMatchOracle) {
  std::string all_controls;
  for (int c = 1; c < 0x20; ++c) all_controls.push_back(static_cast<char>(c));
  const std::vector<std::string> names = {
      "plain",
      "quote\"inside",
      "back\\slash\\",
      "\"\\\"\\",
      all_controls,
      std::string("nul\0byte", 8),
      "del\x7f",
      "utf8 \xc3\xa9t\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x8c\x8a",
      "stray \xff\xfe bytes",
      "comma,and\nnewline",
      "tab\there\rcr",
  };
  TraceRecorder tr;
  MetricsRegistry m;
  SpanId prev = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    const std::string& other = names[(i + 3) % names.size()];
    SpanId s = tr.BeginSpan(static_cast<double>(i), SpanCategory::kPlan, n,
                            other, prev);
    tr.SpanArg(s, n, other);
    tr.SpanArg(s, other, static_cast<double>(i) + 0.5);
    tr.EndSpan(s, static_cast<double>(i) + 1.0);
    tr.BeginSpan(0.0, SpanCategory::kTask, tr.Intern(other), tr.Intern(n),
                 s, tr.Intern(n), 1.0);
    tr.Instant(static_cast<double>(i), SpanCategory::kSpc, other, n);
    m.Record(static_cast<double>(i), n, static_cast<double>(i));
    prev = s;
  }
  m.counter(all_controls)->Increment();
  m.SampleAll(99.0);
  ChromeTraceOptions opt;
  opt.process_name = names[4] + names[1] + names[7];
  ExpectMatchesOracle(tr, &m, opt);
}

TEST(ChromeTraceDiffTest, SpanArgsOutOfOrderAndOutOfRange) {
  TraceRecorder tr;
  std::vector<SpanId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(tr.BeginSpan(static_cast<double>(i), SpanCategory::kRun,
                               "s" + std::to_string(i), "lane"));
  }
  // Interleaved across spans, several per span, string and numeric args
  // mixed: each span must list its numeric args, then its string args,
  // each in record order.
  tr.SpanArg(ids[4], "late", 4.0);
  tr.SpanArg(ids[1], "k", std::string_view("first"));
  tr.SpanArg(ids[1], "a", 1.0);
  tr.SpanArg(ids[4], "early", std::string_view("x"));
  tr.SpanArg(ids[1], "b", 2.0);
  tr.SpanArg(ids[1], "k", std::string_view("second"));
  tr.SpanArg(ids[0], "z", 0.25);
  tr.SpanArg(ids[4], "late", 5.0);  // duplicate key: both are emitted
  // Span 0 and ids past the last span: recorded or not, never emitted.
  tr.SpanArg(0, "none", 1.0);
  tr.SpanArg(0, "none", std::string_view("x"));
  tr.SpanArg(7, "past", 7.0);
  tr.SpanArg(100, "past", std::string_view("far"));
  tr.SpanArg(ids.size() + 1, "past", 9.0);
  tr.EndSpanRemoved(ids[2], 3.0);
  tr.EndSpan(ids[3], 3.5);
  ExpectMatchesOracle(tr, nullptr);

  const std::string json = ChromeTraceJson(tr);
  EXPECT_NE(json.find("\"span_id\":2,\"parent_id\":0,\"a\":1,\"b\":2,"
                      "\"k\":\"first\",\"k\":\"second\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"span_id\":5,\"parent_id\":0,\"late\":4,\"late\":5,"
                      "\"early\":\"x\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("past"), std::string::npos);
  EXPECT_EQ(json.find("none"), std::string::npos);
}

TEST(ChromeTraceDiffTest, SecondProcessAndOptionsMatchOracle) {
  TraceRecorder sim;
  MetricsRegistry m;
  SpanId run = sim.BeginSpan(1.0, SpanCategory::kRun, "run", "f1");
  SpanId open = sim.BeginSpan(2.0, SpanCategory::kTask, "open", "f2", run);
  (void)open;
  SpanId gone = sim.BeginSpan(2.5, SpanCategory::kTask, "gone", "f1", run);
  sim.EndSpanRemoved(gone, 3.0);
  sim.EndSpan(run, 4.0);
  sim.Instant(4.0, SpanCategory::kPlan, "replan", "planner");
  m.counter("runs")->Increment();
  m.SampleAll(4.0);

  TraceRecorder runtime;
  SpanId w = runtime.BeginSpan(0.001, SpanCategory::kSim, "replica 0", "w1");
  runtime.SpanArg(w, "wall_ms", 12.5);
  runtime.SpanArg(w, "note", std::string_view("q\"uote"));
  runtime.EndSpan(w, 0.0135);
  runtime.Instant(0.02, SpanCategory::kSim, "barrier", "inline");

  ChromeTraceOptions opt;
  opt.runtime_trace = &runtime;
  opt.runtime_pid = 7;
  opt.runtime_process_name = "wall \\ clock";
  ExpectMatchesOracle(sim, &m, opt);
  opt.include_counters = false;
  ExpectMatchesOracle(sim, &m, opt);
  opt.runtime_pid = -3;
  ExpectMatchesOracle(sim, &m, opt);
  // An empty recorder still exports both metadata events.
  TraceRecorder empty;
  ExpectMatchesOracle(empty, nullptr, opt);
  ExpectMatchesOracle(empty, nullptr);
}

// At the production block size: spans, instants, counters and samples
// each cover 3+ blocks, with counts on and beside block multiples; every
// block holds escaped strings; spans on both sides of each block edge
// carry args; some spans stay open or are removed; and the runtime
// process fills more than one block of its own.
TEST(ChromeTraceDiffTest, BlockEdgesAtProductionBlockSize) {
  constexpr size_t kB = kExportBlockEvents;
  const std::vector<std::string> names = {"plain", "q\"uote", "back\\slash",
                                          "ctl\x01\x1f", "nl\ntab\t"};
  struct Counts {
    size_t spans, instants, samples;
  };
  for (const Counts& c : {Counts{3 * kB - 1, 3 * kB + 1, 4 * kB},
                          Counts{3 * kB, 3 * kB - 1, 4 * kB + 1},
                          Counts{3 * kB + 1, 3 * kB, 4 * kB - 1}}) {
    TraceRecorder tr;
    MetricsRegistry m;
    for (size_t i = 0; i < c.spans; ++i) {
      const double t = 0.25 * static_cast<double>(i);
      const std::string& name = names[i % names.size()];
      SpanId s = tr.BeginSpan(t, SpanCategory::kTask, name,
                              "lane " + names[(i / 7) % names.size()]);
      if (i % kB == 0 || i % kB == kB - 1 || i % 97 == 0) {
        tr.SpanArg(s, name, t);
        tr.SpanArg(s, "note", std::string_view(names[(i + 1) % names.size()]));
      }
      if (i % 5 == 1) {
        tr.EndSpanRemoved(s, t + 1.0);
      } else if (i % 5 != 3) {  // i % 5 == 3 stays open
        tr.EndSpan(s, t + 0.5);
      }
    }
    for (size_t i = 0; i < c.instants; ++i) {
      tr.Instant(0.5 * static_cast<double>(i), SpanCategory::kSim,
                 names[(i + 2) % names.size()],
                 "at " + names[(i / 11) % names.size()]);
    }
    for (size_t i = 0; i < c.samples; ++i) {
      m.Record(0.125 * static_cast<double>(i), names[(i + 3) % names.size()],
               1.0 / static_cast<double>(i + 1));
    }
    TraceRecorder runtime;
    for (size_t i = 0; i < kB + 1; ++i) {
      SpanId w = runtime.BeginSpan(1e-3 * static_cast<double>(i),
                                   SpanCategory::kSim,
                                   names[i % names.size()], "w");
      if (i == kB - 1 || i == kB) runtime.SpanArg(w, "wall_ms", 0.5);
      runtime.EndSpan(w, 1e-3 * static_cast<double>(i) + 5e-4);
    }
    ChromeTraceOptions with_runtime;
    with_runtime.runtime_trace = &runtime;
    ExpectMatchesOracle(tr, &m, with_runtime);
    ExpectMatchesOracle(tr, &m);
    ExpectMatchesOracle(runtime, nullptr);
  }
}

// A stream that fails mid-export: the exporter stops and joins its
// workers and the stream's exception reaches the caller (a worker left
// running or waiting would end the program or hang the call).
TEST(ChromeTraceBlocksTest, ThrowingStreamStopsAndJoinsWorkers) {
  struct FailAfter : std::streambuf {
    std::streamsize left = 100000;
    std::streamsize xsputn(const char*, std::streamsize n) override {
      if (n > left) return 0;
      left -= n;
      return n;
    }
    int overflow(int) override { return traits_type::eof(); }
  };
  MetricsRegistry m;
  for (size_t i = 0; i < 16 * kExportBlockEvents; ++i) {
    m.Record(static_cast<double>(i), "series", 0.5);
  }
  for (int rep = 0; rep < 20; ++rep) {
    FailAfter buf;
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);
    EXPECT_THROW(WriteMetricSamplesCsv(m, &out), std::ios_base::failure);
  }
}

// A real merged recording: 32 campaign replicas on the SweepRunner,
// merged traces and metric series plus the sweep's runtime trace.
TEST(ChromeTraceDiffTest, MergedSweepRecordingMatchesOracle) {
  parallel::SweepOptions opt;
  opt.num_workers = 4;
  opt.base_seed = 2006;
  parallel::SweepRunner runner(opt);
  parallel::SweepOutputs out =
      runner.Run(32, [](parallel::ReplicaContext& ctx) {
        factory::CampaignConfig cfg;
        cfg.num_days = 3;
        cfg.metrics_sample_period = 4.0 * 3600.0;
        cfg.seed = ctx.rng.Next();
        factory::Campaign campaign(cfg);
        for (int i = 1; i <= 2; ++i) {
          ASSERT_TRUE(campaign.AddNode("f" + std::to_string(i)).ok());
        }
        util::Rng fleet_rng(ctx.rng.Next());
        auto fleet = workload::MakeCorieFleet(6, &fleet_rng);
        for (size_t i = 0; i < fleet.size(); ++i) {
          ASSERT_TRUE(
              campaign.AddForecast(fleet[i], "f" + std::to_string(i % 2 + 1))
                  .ok());
        }
        auto result = campaign.Run();
        ASSERT_TRUE(result.ok()) << result.status();
        *ctx.records = std::move(result->records);
      });
  ASSERT_NE(out.merged_trace, nullptr);
  ASSERT_NE(out.merged_metrics, nullptr);
  if (kTracingCompiledIn) {  // FF_TRACING=OFF records nothing
    EXPECT_GT(out.merged_trace->spans().size(), 32u * 6u);
    EXPECT_GT(out.merged_trace->num_args().size(), 0u);
    EXPECT_GT(out.merged_metrics->samples().size(), 32u);
  }

  TraceRecorder runtime;
  FillSweepRuntimeTrace(out.runtime, &runtime);
  ChromeTraceOptions with_runtime;
  with_runtime.runtime_trace = &runtime;
  ExpectMatchesOracle(*out.merged_trace, out.merged_metrics.get());
  ExpectMatchesOracle(*out.merged_trace, out.merged_metrics.get(),
                      with_runtime);
}

}  // namespace
}  // namespace obs
}  // namespace ff

// Tracing overhead — what the observability layer costs the DES hot path.
//
// The obs design claims (1) with no recorder installed the hooks are one
// global load + branch per event (and literally dead code when compiled
// out with FF_TRACING=OFF), and (2) with a recorder + registry installed,
// full span/counter capture stays within a few percent of the PR 1 kernel
// numbers. This bench measures both claims on the perf_kernel workloads:
//
//   replenish — N resident jobs, each completion admits a replacement;
//               steady-state completion events.
//   churn     — N resident jobs, interleaved Add/Remove/SetSpeedFactor/
//               SetCongestionFactor management ops.
//
// Modes: off      — no recorder/registry installed (the default state);
//        metrics  — MetricsRegistry only (kernel counters + queue gauge);
//        full     — TraceRecorder + registry (per-job spans as well).
//
// Each (workload, mode, n) point is the min of kReps runs; run-to-run
// noise is estimated from the spread of the "off" reps, so "within noise"
// is a statement the JSON itself supports.
//
// Export section: the exporters' throughput (MB/s of output) on one
// full-mode recording — replenish at the largest scale, plus one metric
// sample per completed job (its sojourn time, at its end: the shape of
// the factory's per-run walltime series). Chrome-trace JSON and the
// metric-samples CSV are each timed against the test-only printf
// reference (tests/oracle/chrome_trace_oracle.h) after one warm-up
// call each, reps interleaved, min of kReps with the spread as a noise
// percentage. Every call of both must produce the same bytes (same
// Fingerprint64 and size), or the bench exits 1. Each row records
// export_threads, the threads the production exporter formats that
// recording on (obs::ExportThreads; blocks of obs::kExportBlockEvents),
// beside the file's hw.
//
// Output: labelled CSV on stdout and BENCH_trace.json (path = argv[1]
// or ./BENCH_trace.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/ps_resource.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/chrome_trace_oracle.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace ff {
namespace {

constexpr int kReps = 5;

using bench::WallMs;

struct Point {
  std::string workload;
  std::string mode;
  int n_jobs = 0;
  uint64_t events = 0;
  double wall_ms = 0.0;      // min over reps
  double wall_ms_max = 0.0;  // max over reps (spread diagnostic)
  double overhead_pct = 0.0; // vs the same workload's "off" point
  double events_per_sec() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(events) / wall_ms
                         : 0.0;
  }
};

enum class Mode { kOff, kMetrics, kFull };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kOff:
      return "off";
    case Mode::kMetrics:
      return "metrics";
    case Mode::kFull:
      return "full";
  }
  return "?";
}

// One replenish run; returns (events, wall_ms).
std::pair<uint64_t, double> ReplenishOnce(int n, int completions) {
  sim::Simulator sim;
  cluster::PsResource res(&sim, "bench", n / 2.0 + 1.0, 1.0);
  util::Rng rng(0xb0b0 + static_cast<uint64_t>(n));
  int remaining = completions;
  std::function<void()> refill = [&] {
    if (remaining-- > 0) res.Add(rng.Uniform(50.0, 150.0), refill);
  };
  double ms = WallMs([&] {
    for (int i = 0; i < n; ++i) res.Add(rng.Uniform(50.0, 150.0), refill);
    sim.Run();
  });
  return {sim.events_processed(), ms};
}

std::pair<uint64_t, double> ChurnOnce(int n, int ops) {
  sim::Simulator sim;
  cluster::PsResource res(&sim, "bench", n / 2.0 + 1.0, 1.0);
  util::Rng rng(0xc0de + static_cast<uint64_t>(n));
  std::vector<cluster::JobId> live;
  live.reserve(static_cast<size_t>(n) + 8);
  uint64_t applied = 0;
  double ms = WallMs([&] {
    for (int i = 0; i < n; ++i) {
      live.push_back(res.Add(rng.Uniform(1e5, 2e5), nullptr));
    }
    for (int i = 0; i < ops; ++i) {
      double p = rng.Uniform01();
      if (p < 0.4) {
        live.push_back(res.Add(rng.Uniform(1e5, 2e5), nullptr));
      } else if (p < 0.8 && !live.empty()) {
        size_t idx = rng.Index(live.size());
        std::swap(live[idx], live.back());
        (void)res.Remove(live.back());
        live.pop_back();
      } else if (p < 0.9) {
        res.SetSpeedFactor(rng.Uniform(0.5, 2.0));
      } else {
        res.SetCongestionFactor(rng.Uniform(0.3, 1.0));
      }
      ++applied;
    }
    sim.Run();
  });
  return {applied + sim.events_processed(), ms};
}

// One timed rep of (workload, mode); returns (events, wall_ms).
std::pair<uint64_t, double> MeasureRep(const std::string& workload,
                                       Mode mode, int n, int budget) {
  // Fresh recorder/registry per rep so span storage does not accumulate
  // across reps and every rep pays the same resolution cost. Provision
  // the recorder for the known recording length, as a long campaign
  // would — otherwise vector regrowth page faults dominate the measured
  // per-span cost.
  obs::TraceRecorder trace;
  trace.ReserveSpans(static_cast<size_t>(n) + budget + 64);
  obs::MetricsRegistry metrics;
  obs::ScopedObservability scope(mode == Mode::kFull ? &trace : nullptr,
                                 mode == Mode::kOff ? nullptr : &metrics);
  return workload == "replenish" ? ReplenishOnce(n, budget)
                                 : ChurnOnce(n, budget);
}

// Measures all three modes through the shared interleaved-reps harness
// (bench_common.h), so slow drift in machine load hits every mode
// equally instead of whichever mode happened to run last. Returns points
// in {off, metrics, full} order with min/max over reps filled in.
std::vector<Point> MeasureAllModes(const std::string& workload, int n,
                                   int budget) {
  const Mode kModes[] = {Mode::kOff, Mode::kMetrics, Mode::kFull};
  std::vector<Point> pts;
  std::vector<std::function<double()>> variants;
  for (size_t m = 0; m < 3; ++m) {
    Point pt;
    pt.workload = workload;
    pt.mode = ModeName(kModes[m]);
    pt.n_jobs = n;
    pts.push_back(pt);
    variants.push_back([&pts, &kModes, workload, n, budget, m] {
      auto [events, ms] = MeasureRep(workload, kModes[m], n, budget);
      pts[m].events = events;
      return ms;
    });
  }
  std::vector<bench::RepTiming> timings =
      bench::MeasureInterleaved(variants, kReps);
  for (size_t m = 0; m < 3; ++m) {
    pts[m].wall_ms = timings[m].wall_ms;
    pts[m].wall_ms_max = timings[m].wall_ms_max;
  }
  return pts;
}

// One exporter format, timed for the production exporter and for the
// printf reference on the same recording.
struct ExportPoint {
  std::string format;
  size_t threads = 1;  // obs::ExportThreads of the formatted events
  size_t bytes = 0;
  uint64_t digest = 0;
  bool stable = true;  // every rep of both exporters gave these bytes
  bench::RepTiming fast;
  bench::RepTiming ref;
  double MbPerS(const bench::RepTiming& t) const {
    return t.wall_ms > 0.0 ? static_cast<double>(bytes) / (t.wall_ms * 1e3)
                           : 0.0;
  }
};

// The full-mode recording the export section formats (see the header).
void RecordForExport(int n, int budget, obs::TraceRecorder* trace,
                     obs::MetricsRegistry* metrics) {
  trace->ReserveSpans(static_cast<size_t>(n) + budget + 64);
  {
    obs::ScopedObservability scope(trace, metrics);
    ReplenishOnce(n, budget);
  }
  const uint32_t series = metrics->series_id("job.sojourn_s");
  for (const auto& s : trace->spans()) {
    if (s.end >= 0.0) metrics->RecordById(s.end, series, s.end - s.start);
  }
}

// A timed call of one exporter: wall ms of `format`, checking its bytes
// against the first rep's (of either exporter).
std::function<double()> TimedExport(ExportPoint* p,
                                    std::function<std::string()> format) {
  return [p, format] {
    std::string out;
    double ms = WallMs([&] { out = format(); });
    const uint64_t digest = util::Fingerprint64(out);
    if (p->bytes == 0) {
      p->bytes = out.size();
      p->digest = digest;
    } else if (out.size() != p->bytes || digest != p->digest) {
      p->stable = false;
    }
    return ms;
  };
}

std::vector<ExportPoint> MeasureExport(const obs::TraceRecorder& trace,
                                       const obs::MetricsRegistry& metrics) {
  std::vector<ExportPoint> pts(2);
  pts[0].format = "chrome_json";
  pts[1].format = "metrics_csv";
  pts[0].threads = obs::ExportThreads(trace.spans().size() +
                                      trace.instants().size() +
                                      metrics.samples().size());
  pts[1].threads = obs::ExportThreads(metrics.samples().size());
  auto csv = [&metrics] {
    std::ostringstream out;
    obs::WriteMetricSamplesCsv(metrics, &out);
    return out.str();
  };
  std::vector<std::function<double()>> variants = {
      TimedExport(&pts[0],
                  [&] { return obs::ChromeTraceJson(trace, &metrics); }),
      TimedExport(&pts[0],
                  [&] { return obs::ChromeTraceJsonOracle(trace, &metrics); }),
      TimedExport(&pts[1], csv),
      TimedExport(&pts[1],
                  [&] { return obs::MetricSamplesCsvOracle(metrics); }),
  };
  // Warm-up: the first multi-megabyte output of each exporter pays the
  // page faults of fresh heap; a pipeline exporting every iteration
  // does not.
  for (const auto& v : variants) v();
  std::vector<bench::RepTiming> t = bench::MeasureInterleaved(variants, kReps);
  pts[0].fast = t[0];
  pts[0].ref = t[1];
  pts[1].fast = t[2];
  pts[1].ref = t[3];
  return pts;
}

std::string ExportJson(const ExportPoint& p) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "      {\"format\": \"%s\", \"export_threads\": %zu, \"bytes\": %zu, "
      "\"digest\": \"%016llx\", "
      "\"stable\": %s, \"wall_ms\": %.3f, \"wall_ms_max\": %.3f, "
      "\"mb_per_s\": %.1f, \"noise_pct\": %.2f, \"ref_wall_ms\": %.3f, "
      "\"ref_wall_ms_max\": %.3f, \"ref_mb_per_s\": %.1f, "
      "\"ref_noise_pct\": %.2f, \"speedup_vs_ref\": %.2f}",
      p.format.c_str(), p.threads, p.bytes,
      static_cast<unsigned long long>(p.digest),
      p.stable ? "true" : "false", p.fast.wall_ms, p.fast.wall_ms_max,
      p.MbPerS(p.fast), p.fast.noise_pct(), p.ref.wall_ms, p.ref.wall_ms_max,
      p.MbPerS(p.ref), p.ref.noise_pct(),
      p.fast.wall_ms > 0.0 ? p.ref.wall_ms / p.fast.wall_ms : 0.0);
  return buf;
}

void AppendJson(std::string* out, const Point& p) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"workload\": \"%s\", \"mode\": \"%s\", \"n_jobs\": %d, "
      "\"events\": %llu, \"wall_ms\": %.3f, \"wall_ms_max\": %.3f, "
      "\"events_per_sec\": %.0f, \"overhead_pct\": %.2f}",
      p.workload.c_str(), p.mode.c_str(), p.n_jobs,
      static_cast<unsigned long long>(p.events), p.wall_ms, p.wall_ms_max,
      p.events_per_sec(), p.overhead_pct);
  if (!out->empty()) *out += ",\n";
  *out += buf;
}

}  // namespace
}  // namespace ff

int main(int argc, char** argv) {
  using namespace ff;
  const char* json_path = argc > 1 ? argv[1] : "BENCH_trace.json";
  const std::vector<int> kScales = {100, 1000};
  const int kCompletions = 100000;
  const int kOps = 100000;

  std::printf("workload,mode,n_jobs,events,wall_ms,wall_ms_max,"
              "events_per_sec,overhead_pct\n");
  std::string json_rows;
  double max_overhead_full = 0.0;
  double noise_pct = 0.0;
  for (int n : kScales) {
    for (const std::string& wl : {std::string("replenish"),
                                  std::string("churn")}) {
      int budget = wl == "replenish" ? kCompletions : kOps;
      // Warm-up so allocator state does not favour any mode.
      MeasureRep(wl, Mode::kOff, n, budget / 10);

      std::vector<Point> pts = MeasureAllModes(wl, n, budget);
      const Point& off = pts[0];
      // Run-to-run spread of the baseline = the noise floor overhead
      // numbers must beat to be meaningful.
      if (off.wall_ms > 0.0) {
        noise_pct = std::max(
            noise_pct, 100.0 * (off.wall_ms_max - off.wall_ms) / off.wall_ms);
      }
      for (auto& p : pts) {
        p.overhead_pct =
            off.wall_ms > 0.0
                ? 100.0 * (p.wall_ms - off.wall_ms) / off.wall_ms
                : 0.0;
        if (p.mode == "full") {
          max_overhead_full = std::max(max_overhead_full, p.overhead_pct);
        }
        std::printf("%s,%s,%d,%llu,%.3f,%.3f,%.0f,%.2f\n",
                    p.workload.c_str(), p.mode.c_str(), p.n_jobs,
                    static_cast<unsigned long long>(p.events), p.wall_ms,
                    p.wall_ms_max, p.events_per_sec(), p.overhead_pct);
        AppendJson(&json_rows, p);
      }
    }
  }

  // Export throughput on the largest full-mode recording.
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  RecordForExport(kScales.back(), kCompletions, &trace, &metrics);
  std::vector<ExportPoint> exports = MeasureExport(trace, metrics);
  bool exports_stable = true;
  std::string export_rows;
  std::printf("\nexport,export_threads,bytes,wall_ms,mb_per_s,noise_pct,"
              "ref_wall_ms,ref_mb_per_s,ref_noise_pct,speedup_vs_ref,"
              "stable\n");
  for (const ExportPoint& p : exports) {
    exports_stable = exports_stable && p.stable;
    std::printf("%s,%zu,%zu,%.3f,%.1f,%.2f,%.3f,%.1f,%.2f,%.2f,%s\n",
                p.format.c_str(), p.threads, p.bytes, p.fast.wall_ms,
                p.MbPerS(p.fast),
                p.fast.noise_pct(), p.ref.wall_ms, p.MbPerS(p.ref),
                p.ref.noise_pct(), p.ref.wall_ms / p.fast.wall_ms,
                p.stable ? "yes" : "NO");
    if (!export_rows.empty()) export_rows += ",\n";
    export_rows += ExportJson(p);
  }

  std::FILE* f = std::fopen(json_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"perf_trace\",\n"
               "  \"tracing_compiled_in\": %s,\n"
               "  \"hw\": %u,\n"
               "  \"reps\": %d,\n"
               "  \"baseline_noise_pct\": %.2f,\n"
               "  \"max_overhead_pct_full\": %.2f,\n"
               "  \"runtime\": %s,\n"
               "  \"results\": [\n%s\n  ],\n"
               "  \"export\": {\n"
               "    \"hw\": %u,\n"
               "    \"recording\": {\"workload\": \"replenish\", "
               "\"n_jobs\": %d, \"spans\": %zu, \"samples\": %zu},\n"
               "    \"results\": [\n%s\n    ]\n  }\n}\n",
               obs::kTracingCompiledIn ? "true" : "false",
               std::thread::hardware_concurrency(), kReps, noise_pct,
               max_overhead_full, bench::RuntimePoolJson(nullptr).c_str(),
               json_rows.c_str(), std::thread::hardware_concurrency(),
               kScales.back(), trace.spans().size(),
               metrics.samples().size(), export_rows.c_str());
  std::fclose(f);
  std::printf("# wrote %s (max full-tracing overhead %.2f%%, "
              "baseline noise %.2f%%)\n",
              json_path, max_overhead_full, noise_pct);
  if (!exports_stable) {
    std::fprintf(stderr, "export output differs between reps or from the "
                         "printf reference\n");
    return 1;
  }
  return 0;
}

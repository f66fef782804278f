// factory_bench: the forecast factory's end-to-end benchmark.
//
//   factory_bench --workload sweep|dashboard|ingest --seed N --seconds S
//                 --trace 0|1 [--trace-dir DIR]
//
// Prints the host record, a human-readable report (every metric under
// its workload-specific name, each per-layer metric with the end-to-end
// metric and workload it should move), and as the last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones, with --trace 1 the per-layer ones
// (a per-layer metric of a layer the workload does not use reads 0).
// Exits 1 when an output check or an operation failed.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"

namespace ff {
namespace bench {

std::string Fmt(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void AddSelfTimes(const std::vector<Span>& spans, double ops,
                  std::map<std::string, double>* layer) {
  const std::vector<int64_t> self = SelfTimeByLayer(spans);
  for (int l = 0; l < kNumLayers; ++l) {
    (*layer)[std::string("self_ms.") + LayerName(static_cast<Layer>(l))] =
        ops > 0 ? self[static_cast<size_t>(l)] / 1e6 / ops : 0.0;
  }
  int64_t root_ns = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) root_ns += s.end_ns - s.start_ns;
  }
  (*layer)["unaccounted_frac"] =
      root_ns > 0 ? static_cast<double>(
                        self[static_cast<size_t>(Layer::kBench)]) /
                        static_cast<double>(root_ns)
                  : 0.0;
}

void SaveSpans(const RunConfig& cfg, const std::vector<Span>& spans,
               std::vector<std::string>* report) {
  if (cfg.trace_dir.empty()) return;
  const std::string path = cfg.trace_dir + "/spans-" + cfg.workload +
                           "-seed" + std::to_string(cfg.seed) + ".csv";
  report->push_back(WriteSpansCsv(spans, path)
                        ? Fmt("trace: %zu spans written to %s", spans.size(),
                              path.c_str())
                        : Fmt("trace: could not write %s", path.c_str()));
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric(s) and workload(s) it should move
};

// End-to-end metrics; the workload-specific meaning of the shared names
// is in kAliases.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "input generation, table load, server start, warm-up"},
    {"rss_mb", "MB", "peak resident set of the process"},
    {"throughput_per_s", "1/s", "the workload's completed work per second"},
    {"p50_ms", "ms", "the workload's median latency"},
};

struct Alias {
  const char* workload;
  const char* throughput;
  const char* latency;
};
const Alias kAliases[] = {
    {"sweep",
     "campaign_days_per_s (replica-days through the whole pipeline per "
     "wall second, over all iterations)",
     "what-if replica latency: wall of one replica (build + run its "
     "campaign) on a pool worker, exact p50 over all replicas; the "
     "pipeline's own p50/p99 are in the report line"},
    {"dashboard",
     "read_capacity_qps (closed-loop window phase, median over 0.25 s "
     "windows)",
     "read_p50_ms, open loop with idle vCPUs kept busy, from each "
     "request's due time, median of per-second p50s (p99_ms per layer; "
     "the same loop with idle vCPUs is in the report line)"},
    {"ingest", "ingest_rows_per_s (acknowledged inserted rows)",
     "run-script pair latency: launch INSERT sent to completion UPDATE "
     "acked, exact p50 (write_p50_ms / write_p99_ms per statement are in "
     "the report line; reads beside them: per-layer read_p50_ms / "
     "read_p99_ms)"},
};

constexpr char kSweepMoves[] = "sweep: throughput_per_s";
constexpr char kReplicaMoves[] = "sweep: p50_ms, throughput_per_s";
constexpr char kDashMoves[] =
    "dashboard: p50_ms, throughput_per_s; should not move ingest";
constexpr char kIngestMoves[] =
    "ingest: throughput_per_s, p50_ms (tails: p99_ms, read_p99_ms); should "
    "not move dashboard";
constexpr char kServedMoves[] = "dashboard, ingest: p50_ms (tail: p99_ms)";

const MetricDef kPerLayer[] = {
    // The tail of the workload's p50_ms; reported, not gated: on a shared
    // virtual machine it follows the host's vCPU scheduling.
    {"p99_ms", "ms", "every workload: the tail of p50_ms"},
    {"factory.replica_ms", "ms", kReplicaMoves},
    {"sim.events", "count", kReplicaMoves},
    {"sim.events_per_s", "1/s", kReplicaMoves},
    {"parallel.replica_inflation", "ratio", kReplicaMoves},
    {"parallel.occupancy", "ratio", kSweepMoves},
    {"parallel.queue_wait_ms", "ms", kSweepMoves},
    {"obs.merge_ms", "ms", kSweepMoves},
    {"obs.export_ms", "ms", kSweepMoves},
    {"logdata.load_ms", "ms",
     "sweep: throughput_per_s; dashboard, ingest: setup_s"},
    {"logdata.rows", "count", kSweepMoves},
    {"statsdb.report_ms", "ms", kSweepMoves},
    {"core.plan_ms", "ms", kSweepMoves},
    {"statsdb.cache_hit_ratio", "ratio", kDashMoves},
    {"statsdb.cache_evictions", "count", kDashMoves},
    {"net.decode_us", "us", kDashMoves},
    {"net.serialize_us", "us", kDashMoves},
    {"net.send_us", "us", kDashMoves},
    {"parallel.pool_occupancy", "ratio", kDashMoves},
    {"statsdb.exec_ms.point", "ms", kIngestMoves},
    {"statsdb.exec_ms.agg", "ms", kIngestMoves},
    {"statsdb.exec_ms.topk", "ms", kIngestMoves},
    {"statsdb.exec_ms.fleet_nodes", "ms", kIngestMoves},
    {"statsdb.exec_ms.fleet_topk", "ms", kIngestMoves},
    {"net.exec_ms.read", "ms", kIngestMoves},
    {"net.exec_ms.write", "ms", kIngestMoves},
    {"statsdb.cache_invalidations", "count", kIngestMoves},
    {"read_p50_ms", "ms",
     "ingest: reads beside the writers, not gated (dashboard: = p50_ms)"},
    {"read_p99_ms", "ms",
     "ingest: reads beside the writers, not gated (dashboard: = p99_ms)"},
    {"net.queue_wait_ms", "ms", kServedMoves},
    {"net.queue_wait_p95_ms", "ms", kServedMoves},
    {"net.shed_frames", "count", kServedMoves},
    {"loadgen.lag_p99_ms", "ms", kServedMoves},
    {"self_ms.bench", "ms", "every workload: the part no layer accounts for"},
    {"self_ms.loadgen", "ms", kServedMoves},
    {"self_ms.parallel", "ms", kSweepMoves},
    {"self_ms.factory", "ms", kReplicaMoves},
    {"self_ms.obs", "ms", kSweepMoves},
    {"self_ms.logdata", "ms", kSweepMoves},
    {"self_ms.statsdb", "ms", kSweepMoves},
    {"self_ms.core", "ms", kSweepMoves},
    {"self_ms.net", "ms", "dashboard, ingest: p50_ms"},
    {"unaccounted_frac", "ratio", "every workload: p50_ms"},
    {"trace.overhead_frac", "ratio", "none (tracing is off in end-to-end runs)"},
    {"host.effective_cores", "count", "every metric (host capacity)"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "factory_bench: %s\nusage: factory_bench --workload "
               "sweep|dashboard|ingest --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace bench
}  // namespace ff

int main(int argc, char** argv) {
  using namespace ff::bench;
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* v = argv[++i];
    if (std::strcmp(a, "--workload") == 0) {
      cfg.workload = v;
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (std::strcmp(a, "--trace-dir") == 0) {
      cfg.trace_dir = v;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!(cfg.seconds > 0.0)) return Usage("--seconds must be positive");

  WorkloadResult (*run)(const RunConfig&) = nullptr;
  const Alias* alias = nullptr;
  if (cfg.workload == "sweep") run = RunSweep, alias = &kAliases[0];
  if (cfg.workload == "dashboard") run = RunDashboard, alias = &kAliases[1];
  if (cfg.workload == "ingest") run = RunIngest, alias = &kAliases[2];
  if (run == nullptr) return Usage("unknown workload");

  const HostInfo host = ProbeHost();
  std::printf("%s\n", HostLine(host).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);

  WorkloadResult r = run(cfg);
  r.layer["host.effective_cores"] = host.effective_cores;
  const double rss = PeakRssMb();
  for (const std::string& line : r.report) std::printf("%s\n", line.c_str());

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    const double values[] = {r.setup_s, rss, r.throughput_per_s, r.p50_ms};
    std::printf("end-to-end (%s): throughput = %s; latency = %s\n",
                alias->workload, alias->throughput, alias->latency);
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
      std::printf("  %-18s %14.4f %-5s  %s\n", kEndToEnd[i].name, values[i],
                  kEndToEnd[i].unit, kEndToEnd[i].moves);
    }
  } else {
    std::printf("per-layer (traced run; metric -> what it should move):\n");
    for (const MetricDef& d : kPerLayer) {
      auto it = r.layer.find(d.name);
      const bool applies = it != r.layer.end();
      const double v = applies ? it->second : 0.0;
      metrics.push_back({d.name, v, d.unit});
      std::printf("  %-30s %14.4f %-5s -> %s%s\n", d.name, v, d.unit, d.moves,
                  applies ? "" : "  [not used by this workload]");
    }
  }
  const double error_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("error_frac=%.6f (%llu of %llu operations and checks failed)\n",
              error_frac, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("%s\n",
              ResultJson(r.correct, r.attempted, r.failed, metrics).c_str());
  std::fflush(stdout);
  return r.correct && r.failed == 0 ? 0 : 1;
}

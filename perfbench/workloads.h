// The benchmark's three workloads. Each sets itself up several times
// (setup_s is the median), measures for RunConfig::seconds, checks its
// outputs, and fills a WorkloadResult. With RunConfig::trace the
// measured time is split: an untraced half, then a traced half whose
// spans give the per-layer numbers (the difference is the tracing
// overhead).

#ifndef FF_PERFBENCH_WORKLOADS_H_
#define FF_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace ff {
namespace bench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed or unanswered operations and checks

  // End-to-end, with the workload-specific meaning given in main.cc.
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;  // the tail of p50_ms: reported, not gated

  /// Per-layer metrics this workload produces (traced run only).
  std::map<std::string, double> layer;
  /// Human-readable lines printed above the result line.
  std::vector<std::string> report;
};

WorkloadResult RunSweep(const RunConfig& cfg);
WorkloadResult RunDashboard(const RunConfig& cfg);
WorkloadResult RunIngest(const RunConfig& cfg);

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Self time per layer over `spans`, divided by `ops`, in ms, as
/// "self_ms.<layer>" entries, plus "unaccounted_frac": the share of the
/// root spans' time no layer span covers.
void AddSelfTimes(const std::vector<Span>& spans, double ops,
                  std::map<std::string, double>* layer);

/// Writes the spans under cfg.trace_dir and notes the path in `report`.
void SaveSpans(const RunConfig& cfg, const std::vector<Span>& spans,
               std::vector<std::string>* report);

std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace bench
}  // namespace ff

#endif  // FF_PERFBENCH_WORKLOADS_H_

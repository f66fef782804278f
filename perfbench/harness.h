// Helpers of the factory benchmark that do not depend on the factory
// itself: exact-rank percentiles, the open-loop generator's due-time
// accounting, seeded input generation, the in-memory span tracer, host
// probes and the metric report. Tested by harness_test.cc.

#ifndef FF_PERFBENCH_HARNESS_H_
#define FF_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logdata/log_record.h"
#include "util/rng.h"
#include "workload/forecast_spec.h"

namespace ff {
namespace bench {

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile (q in [0, 1]): the smallest sample with at
/// least q of the samples at or below it. Always a sample that actually
/// happened; 0 for an empty input. The same definition as
/// bench/bench_common.h, kept here so that the benchmark's statistics
/// cannot change with the program it measures.
double ExactPercentile(std::vector<double> samples, double q);

/// Median of the samples (nearest-rank, lower middle for even sizes).
double Median(std::vector<double> samples);

/// Robust tail of a long run: the samples are cut into consecutive
/// windows of `window` samples (a short last window is dropped unless it
/// is the only one), the exact-rank q-percentile is taken per window,
/// and the median of those is returned. One bad window moves it less
/// than it moves the percentile of the whole run.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double q);

/// Steady-clock nanoseconds.
int64_t NowNs();

// ------------------------------------------------------------ open loop

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its answer arrived.
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;

  /// Latency as the user sees it: from the due time, so a generator or
  /// server stall charges every request it delayed, not just the first.
  double LatencyMs() const { return (done_ns - due_ns) / 1e6; }
  /// How late the generator sent.
  double LagMs() const { return (sent_ns - due_ns) / 1e6; }
};

/// Drives a synchronous request function on a fixed schedule: request i
/// is due at start_ns + i * interval_ns and is sent at its due time, or
/// at once when an earlier request ran past it. Stops at the first due
/// time at or after end_ns. `clock` supplies now() and sleep_until(ns);
/// `send(i)` performs request i and returns whether it succeeded.
template <typename Clock, typename Send>
std::vector<OpenLoopSample> RunOpenLoop(int64_t start_ns, int64_t interval_ns,
                                        int64_t end_ns, Clock& clock,
                                        Send&& send) {
  std::vector<OpenLoopSample> out;
  for (size_t i = 0;; ++i) {
    OpenLoopSample s;
    s.due_ns = start_ns + static_cast<int64_t>(i) * interval_ns;
    if (s.due_ns >= end_ns) break;
    if (clock.now() < s.due_ns) clock.sleep_until(s.due_ns);
    s.sent_ns = clock.now();
    s.ok = send(i);
    s.done_ns = clock.now();
    out.push_back(s);
  }
  return out;
}

/// The real clock for RunOpenLoop.
struct SteadyClock {
  int64_t now() const { return NowNs(); }
  void sleep_until(int64_t ns) const;
};

// ------------------------------------------------------------ inputs

/// Zipf(s) sampler over ranks 0..n-1 (rank 0 hottest), by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(util::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Request kinds of the dashboard read mix.
enum class ReadShape : uint8_t {
  kPoint,      // one (forecast, day) walltime
  kAgg,        // per-node COUNT/AVG of one forecast
  kTopK,       // a forecast's 10 slowest days
  kFleetNodes, // fleet-wide per-node report over a day range
  kFleetTopK,  // fleet-wide 20 slowest runs
};
inline constexpr int kNumReadShapes = 5;
const char* ReadShapeName(ReadShape s);

/// One generated read: a shape plus its bound parameters.
struct ReadOp {
  ReadShape shape = ReadShape::kPoint;
  int forecast = 0;  // per-forecast shapes
  int day = 0;       // kPoint: the day; kFleetNodes: first day of range
};

/// Size of the served table. The read mix is fixed: Zipf(1.1) over the
/// forecasts, 20% kAgg, 20% kTopK, 1% each fleet shape, the rest kPoint.
struct ServedSpec {
  int forecasts = 1000;
  int days = 365;
};

std::string ForecastName(int f);

/// The served `runs` table's rows, day-major (every forecast's day 1,
/// then day 2, ...), all completed, walltimes drawn from `seed`.
std::vector<logdata::LogRecord> MakeServedRows(const ServedSpec& spec,
                                               uint64_t seed);

/// `n` reads for client `client` of a run seeded `seed`.
std::vector<ReadOp> MakeReadOps(const ServedSpec& spec, uint64_t seed,
                                size_t client, size_t n);

/// One write a run script sends: the launch INSERT of a day's slice of
/// the fleet (status 'running', no completion stats), then the
/// completion UPDATE that fills walltime and marks it completed.
struct WriteOp {
  int day = 0;          // day beyond the loaded table
  int first_forecast = 0;
  int count = 0;        // forecasts in the slice
  double walltime = 0;  // the slice's completion walltime
  /// SQL text of the two statements.
  std::string InsertSql() const;
  std::string UpdateSql() const;
};

/// `n` write pairs for writer `writer` of a run seeded `seed`. Writers
/// own disjoint day ranges beyond spec.days, so acks never conflict.
std::vector<WriteOp> MakeWriteOps(const ServedSpec& spec, uint64_t seed,
                                  size_t writer, size_t n, int slice);

/// One sweep replica's inputs: its campaign seed and forecast fleet.
struct ReplicaInput {
  uint64_t campaign_seed = 0;
  std::vector<workload::ForecastSpec> fleet;
};

/// `count` replica inputs of a run seeded `seed`; replica i depends only
/// on (seed, i). The sweep uses one extra entry as tomorrow's fleet.
std::vector<ReplicaInput> MakeReplicaInputs(uint64_t seed, size_t count,
                                            int fleet_size);

// ------------------------------------------------------------ tracing

/// Layers a span can belong to: the benchmark's own code plus each
/// library whose public functions it calls.
enum class Layer : uint8_t {
  kBench,     // the workload driver itself (the root of every request)
  kLoadgen,   // generator wait between due time and send
  kParallel,
  kFactory,
  kObs,
  kLogdata,
  kStatsdb,
  kCore,
  kNet,
};
inline constexpr int kNumLayers = 9;
const char* LayerName(Layer l);

/// One finished span. `request` is shared by every span of one served
/// request or one sweep iteration; `replica` tags the replica a sweep
/// span ran for (UINT32_MAX otherwise).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  uint32_t replica = UINT32_MAX;
  Layer layer = Layer::kBench;
  const char* name = "";  // static string: the public call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store. Spans go to a per-thread buffer (no lock on the
/// hot path after a thread's first span); Collect() gathers them once
/// the traced phase has ended and every worker is idle.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId();
  void Record(const Span& span);
  std::vector<Span> Collect() const;

  struct Buffer;  // one thread's spans

 private:
  Buffer* LocalBuffer();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  const uint64_t generation_;  // tells this tracer's buffers from stale ones
};

/// The tracer spans go to; null while tracing is off (then ScopedSpan
/// costs one branch).
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span around one call into a layer. The parent defaults to the
/// innermost open span on this thread; pass it explicitly for spans
/// opened on another thread (sweep replicas on pool workers).
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, const char* name, uint64_t request,
             uint32_t replica = UINT32_MAX, uint64_t parent = UINT64_MAX);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
  uint64_t saved_current_ = 0;
};

/// Records an already-finished root span (e.g. the time a request spent
/// waiting for the generator) when tracing is on.
void RecordSpan(Layer layer, const char* name, uint64_t request,
                int64_t start_ns, int64_t end_ns);

/// Per-layer self time in nanoseconds: each span's duration minus the
/// union of its children's intervals clipped to it, summed by layer.
std::vector<int64_t> SelfTimeByLayer(const std::vector<Span>& spans);

/// Writes spans as CSV (id,parent,request,replica,layer,name,start_ns,
/// end_ns, starts relative to the earliest span). False on I/O error.
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

// ------------------------------------------------------------ host

struct HostInfo {
  unsigned nproc = 0;
  double warmup_ms = 0.0;    // spin until all four vCPUs run at full speed
  double probe_1t_ms = 0.0;  // fixed CPU-bound loop on one thread
  double probe_4t_ms = 0.0;  // slowest of four concurrent copies
  double effective_cores = 0.0;  // 4 * probe_1t / probe_4t
  std::string build_type;
  bool tracing = false;   // FF_TRACING compiled in
  bool profiling = false; // FF_PROFILING compiled in
};

HostInfo ProbeHost();
std::string HostLine(const HostInfo& h);

/// While alive, one spinning thread per CPU at the lowest scheduling
/// priority (SCHED_IDLE): any runnable thread of the workload preempts
/// it at once, but no vCPU goes idle. On a virtual machine an idle vCPU
/// may be descheduled by the host, and waking it again costs from tens
/// of microseconds to a second, so at low load the host, not the
/// program, would set the latency. Spinning costs CPU share on such a
/// host, so use it only around phases that leave the CPUs mostly idle.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned threads);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Peak resident set of this process in MB.
double PeakRssMb();

// ------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final result line: {"correct": ..., "attempted": ..., "failed":
/// ..., "metrics": {name: {"value": v, "unit": u}, ...}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace bench
}  // namespace ff

#endif  // FF_PERFBENCH_HARNESS_H_

#include "perfbench/harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "workload/fleet.h"

namespace ff {
namespace bench {

// ------------------------------------------------------------ statistics

double ExactPercentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return ExactPercentile(std::move(samples), 0.5);
}

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double q) {
  if (window == 0 || samples.size() < 2 * window) {
    return ExactPercentile(samples, q);
  }
  std::vector<double> per_window;
  for (size_t i = 0; i + window <= samples.size(); i += window) {
    per_window.push_back(ExactPercentile(
        std::vector<double>(samples.begin() + static_cast<ptrdiff_t>(i),
                            samples.begin() + static_cast<ptrdiff_t>(i + window)),
        q));
  }
  return Median(std::move(per_window));
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::sleep_until(int64_t ns) const {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(ns)));
}

// ------------------------------------------------------------ inputs

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(util::Rng* rng) const {
  const double u = rng->Uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

const char* ReadShapeName(ReadShape s) {
  switch (s) {
    case ReadShape::kPoint: return "point";
    case ReadShape::kAgg: return "agg";
    case ReadShape::kTopK: return "topk";
    case ReadShape::kFleetNodes: return "fleet_nodes";
    case ReadShape::kFleetTopK: return "fleet_topk";
  }
  return "?";
}

std::string ForecastName(int f) { return "forecast-" + std::to_string(f); }

// Independent streams per purpose, so adding draws to one never shifts
// another.
enum Stream : uint64_t {
  kRowsStream = 1,
  kReadStream = 2,
  kWriteStream = 3,
  kFleetStream = 4,
};

std::vector<logdata::LogRecord> MakeServedRows(const ServedSpec& spec,
                                               uint64_t seed) {
  util::Rng rng = util::Rng(seed).Split(kRowsStream);
  std::vector<logdata::LogRecord> rows;
  rows.reserve(static_cast<size_t>(spec.forecasts) * spec.days);
  for (int d = 1; d <= spec.days; ++d) {
    for (int f = 0; f < spec.forecasts; ++f) {
      logdata::LogRecord r;
      r.forecast = ForecastName(f);
      r.region = "region-" + std::to_string(f % 20);
      r.day = d;
      r.node = "f" + std::to_string(f % 6 + 1);
      r.code_version = "v" + std::to_string(d / 60);
      r.mesh_sides = 5000 + (f % 26) * 1000;
      r.timesteps = f % 2 ? 5760 : 2880;
      r.start_time = d * 86400.0 + 3600.0;
      r.walltime = rng.Uniform(20000.0, 80000.0);
      r.end_time = r.start_time + r.walltime;
      r.status = logdata::RunStatus::kCompleted;
      rows.push_back(std::move(r));
    }
  }
  return rows;
}

namespace {

constexpr double kZipfS = 1.1;
// Mix shares; the rest is kPoint.
constexpr double kAggShare = 0.2;
constexpr double kTopKShare = 0.2;
constexpr double kFleetShare = 0.02;  // split evenly between the fleet shapes

}  // namespace

std::vector<ReadOp> MakeReadOps(const ServedSpec& spec, uint64_t seed,
                                size_t client, size_t n) {
  util::Rng rng = util::Rng(seed).Split(kReadStream).Split(client);
  // Rank r of the Zipf law maps to a seed-dependent forecast, so the hot
  // set moves with the seed.
  std::vector<int> perm(static_cast<size_t>(spec.forecasts));
  {
    util::Rng prng = util::Rng(seed).Split(kReadStream).Split(~0ull);
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[prng.Index(i)]);
    }
  }
  const ZipfSampler zipf(perm.size(), kZipfS);
  std::vector<ReadOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ReadOp op;
    const double u = rng.Uniform01();
    op.forecast = perm[zipf.Sample(&rng)];
    op.day = static_cast<int>(rng.UniformInt(1, spec.days));
    if (u < kFleetShare / 2) {
      op.shape = ReadShape::kFleetNodes;
      op.day = static_cast<int>(rng.UniformInt(1, spec.days - 30));
    } else if (u < kFleetShare) {
      op.shape = ReadShape::kFleetTopK;
    } else if (u < kFleetShare + kAggShare) {
      op.shape = ReadShape::kAgg;
    } else if (u < kFleetShare + kAggShare + kTopKShare) {
      op.shape = ReadShape::kTopK;
    }
    ops.push_back(op);
  }
  return ops;
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string WriteOp::InsertSql() const {
  std::string sql = "INSERT INTO runs VALUES ";
  const double start = day * 86400.0 + 3600.0;
  for (int i = 0; i < count; ++i) {
    const int f = first_forecast + i;
    if (i > 0) sql += ", ";
    sql += "('" + ForecastName(f) + "', 'region-" + std::to_string(f % 20) +
           "', " + std::to_string(day) + ", 'f" + std::to_string(f % 6 + 1) +
           "', 'v" + std::to_string(day / 60) + "', " +
           std::to_string(5000 + (f % 26) * 1000) + ", " +
           (f % 2 ? "5760" : "2880") + ", " + Num(start) +
           ", NULL, NULL, 'running')";
  }
  return sql;
}

std::string WriteOp::UpdateSql() const {
  // A writer finishes one slice before launching the next, so the only
  // 'running' rows of its day are this slice's.
  return "UPDATE runs SET status = 'completed', walltime = " + Num(walltime) +
         ", end_time = start_time + " + Num(walltime) + " WHERE day = " +
         std::to_string(day) + " AND status = 'running'";
}

std::vector<WriteOp> MakeWriteOps(const ServedSpec& spec, uint64_t seed,
                                  size_t writer, size_t n, int slice) {
  util::Rng rng = util::Rng(seed).Split(kWriteStream).Split(writer);
  const int slices_per_day = (spec.forecasts + slice - 1) / slice;
  std::vector<WriteOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    WriteOp op;
    // Writer w owns days spec.days + 1 + w + 8k, so up to eight writers
    // never share a day.
    const size_t day_index = i / static_cast<size_t>(slices_per_day);
    op.day = spec.days + 1 + static_cast<int>(writer + 8 * day_index);
    op.first_forecast =
        static_cast<int>(i % static_cast<size_t>(slices_per_day)) * slice;
    op.count = std::min(slice, spec.forecasts - op.first_forecast);
    op.walltime = rng.Uniform(20000.0, 80000.0);
    ops.push_back(op);
  }
  return ops;
}

std::vector<ReplicaInput> MakeReplicaInputs(uint64_t seed, size_t count,
                                            int fleet_size) {
  const util::Rng root = util::Rng(seed).Split(kFleetStream);
  std::vector<ReplicaInput> out(count);
  for (size_t i = 0; i < count; ++i) {
    util::Rng rng = root.Split(i);
    out[i].campaign_seed = rng.Next();
    out[i].fleet = workload::MakeCorieFleet(fleet_size, &rng);
  }
  return out;
}

// ------------------------------------------------------------ tracing

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kLoadgen: return "loadgen";
    case Layer::kParallel: return "parallel";
    case Layer::kFactory: return "factory";
    case Layer::kObs: return "obs";
    case Layer::kLogdata: return "logdata";
    case Layer::kStatsdb: return "statsdb";
    case Layer::kCore: return "core";
    case Layer::kNet: return "net";
  }
  return "?";
}

struct Tracer::Buffer {
  std::vector<Span> spans;
};

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<uint64_t> g_tracer_generation{1};
thread_local Tracer::Buffer* t_buffer = nullptr;
thread_local uint64_t t_buffer_generation = 0;
thread_local uint64_t t_current_span = 0;
std::atomic<uint64_t> g_next_span_id{1};

}  // namespace

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() {
  if (g_tracer.load() == this) g_tracer.store(nullptr);
}

uint64_t Tracer::NewId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer* Tracer::LocalBuffer() {
  // A thread's buffer pointer is only valid for the tracer that made it;
  // every tracer has its own generation, so a stale pointer (left by an
  // earlier tracer, possibly at the same address) is never followed.
  if (t_buffer == nullptr || t_buffer_generation != generation_) {
    auto buf = std::make_unique<Buffer>();
    buf->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(mu_);
    t_buffer = buf.get();
    t_buffer_generation = generation_;
    buffers_.push_back(std::move(buf));
  }
  return t_buffer;
}

void Tracer::Record(const Span& span) { LocalBuffer()->spans.push_back(span); }

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }
void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

void RecordSpan(Layer layer, const char* name, uint64_t request,
                int64_t start_ns, int64_t end_ns) {
  Tracer* tracer = ActiveTracer();
  if (tracer == nullptr) return;
  Span s;
  s.id = tracer->NewId();
  s.request = request;
  s.layer = layer;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  tracer->Record(s);
}

ScopedSpan::ScopedSpan(Layer layer, const char* name, uint64_t request,
                       uint32_t replica, uint64_t parent)
    : tracer_(ActiveTracer()) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NewId();
  span_.parent = parent == UINT64_MAX ? t_current_span : parent;
  span_.request = request;
  span_.replica = replica;
  span_.layer = layer;
  span_.name = name;
  saved_current_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  tracer_->Record(span_);
}

std::vector<int64_t> SelfTimeByLayer(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(kNumLayers, 0);
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = 0, hi = -1;  // current merged interval, clipped
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (hi < lo || a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[static_cast<size_t>(s.layer)] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  int64_t t0 = INT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  out << "id,parent,request,replica,layer,name,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.request << ','
        << (s.replica == UINT32_MAX ? -1 : static_cast<int64_t>(s.replica))
        << ',' << LayerName(s.layer) << ',' << s.name << ','
        << s.start_ns - t0 << ',' << s.end_ns - t0 << '\n';
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ host

namespace {

// A fixed amount of integer work no compiler can fold away.
uint64_t ProbeLoop(int iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

std::atomic<uint64_t> g_probe_sink{0};

/// Wall time of the slowest of `threads` concurrent copies of the loop.
double TimeProbe(int threads, int iterations) {
  std::vector<double> ms(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&ms, t, iterations] {
      const int64_t t0 = NowNs();
      g_probe_sink.fetch_xor(ProbeLoop(iterations), std::memory_order_relaxed);
      ms[static_cast<size_t>(t)] = (NowNs() - t0) / 1e6;
    });
  }
  for (auto& th : pool) th.join();
  return *std::max_element(ms.begin(), ms.end());
}

constexpr int kProbeIterations = 60'000'000;
constexpr int kWarmIterations = 10'000'000;

}  // namespace

HostInfo ProbeHost() {
  HostInfo h;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  h.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
  // On a virtual machine whose idle vCPUs were descheduled, four busy
  // threads can run at one core's speed for about a second. Spin until
  // four copies of a short loop run nearly as fast as one (at most 3 s),
  // so neither the probe nor the workload measures that ramp.
  const double one = TimeProbe(1, kWarmIterations);
  const int64_t t0 = NowNs();
  while (NowNs() - t0 < 3'000'000'000 &&
         TimeProbe(4, kWarmIterations) > 1.3 * one) {
  }
  h.warmup_ms = (NowNs() - t0) / 1e6;
  h.probe_1t_ms = TimeProbe(1, kProbeIterations);
  h.probe_4t_ms = TimeProbe(4, kProbeIterations);
  h.effective_cores =
      h.probe_4t_ms > 0.0 ? 4.0 * h.probe_1t_ms / h.probe_4t_ms : 0.0;
#ifdef FF_BENCH_BUILD_TYPE
  h.build_type = FF_BENCH_BUILD_TYPE;
#endif
#ifdef FF_TRACING_DISABLED
  h.tracing = false;
#else
  h.tracing = true;
#endif
#ifdef FF_PROFILING_DISABLED
  h.profiling = false;
#else
  h.profiling = true;
#endif
  return h;
}

std::string HostLine(const HostInfo& h) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%u cpu_warmup_ms=%.0f probe_1t_ms=%.1f "
                "probe_4t_ms=%.1f effective_cores=%.2f build=%s "
                "FF_TRACING=%s FF_PROFILING=%s",
                h.nproc, h.warmup_ms, h.probe_1t_ms, h.probe_4t_ms,
                h.effective_cores,
                h.build_type.c_str(), h.tracing ? "ON" : "OFF",
                h.profiling ? "ON" : "OFF");
  return buf;
}

IdleSpinners::IdleSpinners(unsigned threads) {
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      param.sched_priority = 0;
      // Best effort: if the policy cannot be set the spinner still runs,
      // at normal priority, so give up instead of competing.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ------------------------------------------------------------ report

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(v) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace bench
}  // namespace ff

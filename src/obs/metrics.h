// Named counters, gauges and fixed-bucket histograms plus a registry that
// snapshots them into a virtual-time sample series — the quantitative half
// of the observability layer (queue depths, utilization, transfer bytes,
// plan counts). Instruments are plain structs with inline mutators so a
// hot-path increment is a single add; lookup cost is paid once per
// instrument via get-or-create and cached by callers (see CachedCounter).
//
// Simulation-budget work (Bokor et al., PAPERS.md) argues instrumentation
// overhead must itself be measured and bounded; bench/perf_trace measures
// this layer's.

#ifndef FF_OBS_METRICS_H_
#define FF_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace ff {
namespace obs {

/// Monotonically increasing integer metric. Wraps modulo 2^64 like any
/// unsigned counter; consumers diff successive samples.
class Counter {
 public:
  void Increment() { ++value_; }
  void Add(uint64_t delta) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins point-in-time metric.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `upper_bounds` are ascending inclusive upper
/// edges; one implicit overflow bucket catches everything above the last
/// bound. Observe is O(log buckets).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double x);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// upper_bounds().size() + 1 buckets; the last is the overflow bucket.
  const std::vector<double>& upper_bounds() const { return bounds_; }
  const std::vector<uint64_t>& bucket_counts() const { return counts_; }

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// selected bucket; the overflow bucket reports its lower edge. 0 when
  /// empty.
  double Quantile(double q) const;

  /// Adds `other`'s observations bucket-wise (sweep merge path). Returns
  /// false — and leaves this histogram untouched — when the bucket
  /// layouts differ; bucket-wise addition is commutative, so a merged
  /// histogram is independent of replica completion order.
  bool MergeFrom(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// One point of the sampled telemetry stream.
struct MetricSample {
  double time;
  uint32_t metric;  // index into MetricsRegistry::metric_names()
  double value;
};

/// Owns named instruments (stable addresses; get-or-create) and the
/// virtual-time sample series. Iteration order is the name order, so
/// sampling and export are deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. Fatal when the name is already used by another kind.
  /// Lookups by an existing name allocate nothing; hot paths still cache
  /// the returned pointer (see CachedCounter).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name,
                       std::vector<double> upper_bounds);

  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  /// Snapshots every counter (as a double) and gauge into the sample
  /// series at virtual time `t`; histograms contribute "<name>.count" and
  /// "<name>.sum". Each instrument's series id is resolved at its first
  /// sample and kept with the instrument, so a tick is one append per
  /// series with no name lookup, and ids keep first-sample order.
  void SampleAll(double t);

  /// Appends an explicit sample (e.g. a per-run walltime the moment it
  /// completes) without touching any instrument.
  void Record(double t, std::string_view series, double value);

  /// Hot-path and bulk-append path (per-run series, sweep merge): resolve
  /// a series name to its id once, then append samples by id — skips the
  /// per-sample name lookup.
  uint32_t series_id(std::string_view series) { return InternName(series); }
  void RecordById(double t, uint32_t series_id, double value) {
    samples_.push_back(MetricSample{t, series_id, value});
  }
  void ReserveSamples(size_t n) { samples_.reserve(n); }

  const std::vector<MetricSample>& samples() const { return samples_; }
  const std::string& metric_name(uint32_t id) const { return names_[id]; }
  size_t num_metric_names() const { return names_.size(); }

  /// All samples of one series, in recording order.
  std::vector<MetricSample> SeriesSamples(std::string_view series) const;
  /// Values only, for feeding analysis code (e.g. logdata::Spc).
  std::vector<double> SeriesValues(std::string_view series) const;

  std::vector<std::string> CounterNames() const;
  std::vector<std::string> GaugeNames() const;
  std::vector<std::string> HistogramNames() const;

 private:
  uint32_t InternName(std::string_view name);

  // Series id of an instrument not sampled yet.
  static constexpr uint32_t kUnsampled = ~uint32_t{0};
  struct CounterEntry {
    Counter counter;
    uint32_t series = kUnsampled;
  };
  struct GaugeEntry {
    Gauge gauge;
    uint32_t series = kUnsampled;
  };
  struct HistogramEntry {
    Histogram histogram;
    uint32_t count_series = kUnsampled;
    uint32_t sum_series = kUnsampled;
  };
  // Transparent comparators: lookups by string_view build no std::string.
  std::map<std::string, CounterEntry, std::less<>> counters_;
  std::map<std::string, GaugeEntry, std::less<>> gauges_;
  std::map<std::string, HistogramEntry, std::less<>> histograms_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<MetricSample> samples_;
};

/// Revalidating cache for a hot-path counter: one integer compare per use
/// once the active registry is stable. Revalidates on the observability
/// install epoch (see obs::ObsEpoch), not the registry address, so a
/// registry reallocated at a freed one's address cannot false-match.
struct CachedCounter {
  uint64_t epoch = 0;
  Counter* counter = nullptr;

  Counter* Get(MetricsRegistry* m, const char* name) {
    uint64_t e = ObsEpoch();
    if (e != epoch) {
      epoch = e;
      counter = m->counter(name);
    }
    return counter;
  }
};

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_METRICS_H_

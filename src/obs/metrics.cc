#include "obs/metrics.h"

#include <algorithm>

#include "util/logging.h"

namespace ff {
namespace obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0) {
  FF_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  FF_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Observe(double x) {
  size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  ++counts_[i];
  ++count_;
  sum_ += x;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, interpolated).
  double rank = q * static_cast<double>(count_ - 1) + 1.0;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    uint64_t lo_rank = seen + 1;
    seen += counts_[i];
    if (rank > static_cast<double>(seen)) continue;
    double lower = i == 0 ? 0.0 : bounds_[i - 1];
    if (i == bounds_.size()) return lower;  // overflow bucket: lower edge
    double upper = bounds_[i];
    double within =
        (rank - static_cast<double>(lo_rank) + 1.0) /
        static_cast<double>(counts_[i]);
    return lower + (upper - lower) * within;
  }
  return bounds_.back();
}

bool Histogram::MergeFrom(const Histogram& other) {
  if (bounds_ != other.bounds_) return false;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  return true;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  FF_CHECK(!gauges_.count(name) && !histograms_.count(name))
      << "metric " << name << " already registered with another kind";
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), CounterEntry{}).first;
  }
  return &it->second.counter;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  FF_CHECK(!counters_.count(name) && !histograms_.count(name))
      << "metric " << name << " already registered with another kind";
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), GaugeEntry{}).first;
  }
  return &it->second.gauge;
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  FF_CHECK(!counters_.count(name) && !gauges_.count(name))
      << "metric " << name << " already registered with another kind";
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      HistogramEntry{Histogram(std::move(upper_bounds))})
             .first;
  }
  return &it->second.histogram;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second.counter;
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second.gauge;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second.histogram;
}

uint32_t MetricsRegistry::InternName(std::string_view name) {
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void MetricsRegistry::SampleAll(double t) {
  for (auto& [name, e] : counters_) {
    if (e.series == kUnsampled) e.series = InternName(name);
    samples_.push_back(MetricSample{
        t, e.series, static_cast<double>(e.counter.value())});
  }
  for (auto& [name, e] : gauges_) {
    if (e.series == kUnsampled) e.series = InternName(name);
    samples_.push_back(MetricSample{t, e.series, e.gauge.value()});
  }
  for (auto& [name, e] : histograms_) {
    if (e.count_series == kUnsampled) {
      e.count_series = InternName(name + ".count");
      e.sum_series = InternName(name + ".sum");
    }
    samples_.push_back(MetricSample{
        t, e.count_series, static_cast<double>(e.histogram.count())});
    samples_.push_back(MetricSample{t, e.sum_series, e.histogram.sum()});
  }
}

void MetricsRegistry::Record(double t, std::string_view series,
                             double value) {
  samples_.push_back(MetricSample{t, InternName(series), value});
}

std::vector<MetricSample> MetricsRegistry::SeriesSamples(
    std::string_view series) const {
  std::vector<MetricSample> out;
  auto it = name_ids_.find(series);
  if (it == name_ids_.end()) return out;
  for (const auto& s : samples_) {
    if (s.metric == it->second) out.push_back(s);
  }
  return out;
}

std::vector<double> MetricsRegistry::SeriesValues(
    std::string_view series) const {
  std::vector<double> out;
  for (const auto& s : SeriesSamples(series)) out.push_back(s.value);
  return out;
}

namespace {
template <typename Map>
std::vector<std::string> Keys(const Map& m) {
  std::vector<std::string> out;
  out.reserve(m.size());
  for (const auto& [k, v] : m) out.push_back(k);
  return out;
}
}  // namespace

std::vector<std::string> MetricsRegistry::CounterNames() const {
  return Keys(counters_);
}
std::vector<std::string> MetricsRegistry::GaugeNames() const {
  return Keys(gauges_);
}
std::vector<std::string> MetricsRegistry::HistogramNames() const {
  return Keys(histograms_);
}

}  // namespace obs
}  // namespace ff

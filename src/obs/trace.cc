#include "obs/trace.h"

#include "util/logging.h"

namespace ff {
namespace obs {

const char* SpanCategoryName(SpanCategory c) {
  switch (c) {
    case SpanCategory::kRun:
      return "run";
    case SpanCategory::kTask:
      return "task";
    case SpanCategory::kTransfer:
      return "transfer";
    case SpanCategory::kPlan:
      return "plan";
    case SpanCategory::kSpc:
      return "spc";
    case SpanCategory::kSim:
      return "sim";
  }
  return "?";
}

TraceRecorder::TraceRecorder() {
  // Id 0 is the empty string so StrId 0 is always printable.
  strings_.emplace_back();
  intern_.emplace(std::string(), 0);
  // Skip the first few doublings: early-growth reallocs and the page
  // faults they trigger are the dominant per-span cost on short
  // recordings. Long recordings should call ReserveSpans with their
  // expected span count.
  spans_.reserve(4096);
}

StrId TraceRecorder::Intern(std::string_view s) {
  auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  StrId id = static_cast<StrId>(strings_.size());
  strings_.emplace_back(s);
  intern_.emplace(strings_.back(), id);
  return id;
}

void TraceRecorder::SpanArg(SpanId span, std::string_view key,
                            double value) {
  if (span == 0) return;
  num_args_.push_back(NumArgRecord{span, Intern(key), value});
}

void TraceRecorder::SpanArg(SpanId span, StrId key, double value) {
  if (span == 0) return;
  num_args_.push_back(NumArgRecord{span, key, value});
}

void TraceRecorder::SpanArg(SpanId span, StrId key, StrId value) {
  if (span == 0) return;
  str_args_.push_back(StrArgRecord{span, key, value});
}

void TraceRecorder::SpanArg(SpanId span, std::string_view key,
                            std::string_view value) {
  if (span == 0) return;
  str_args_.push_back(StrArgRecord{span, Intern(key), Intern(value)});
}

size_t TraceRecorder::CountSpans(SpanCategory cat) const {
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.category == cat) ++n;
  }
  return n;
}

size_t TraceRecorder::OpenSpans() const {
  size_t n = 0;
  for (const auto& s : spans_) {
    if (s.end < 0.0) ++n;
  }
  return n;
}

#if !defined(FF_TRACING_DISABLED)
namespace internal {
thread_local TraceRecorder* g_trace = nullptr;
thread_local MetricsRegistry* g_metrics = nullptr;
thread_local uint64_t g_epoch = 1;
}  // namespace internal
#endif

ScopedObservability::ScopedObservability(TraceRecorder* trace,
                                         MetricsRegistry* metrics) {
#if defined(FF_TRACING_DISABLED)
  (void)trace;
  (void)metrics;
  prev_trace_ = nullptr;
  prev_metrics_ = nullptr;
#else
  prev_trace_ = internal::g_trace;
  prev_metrics_ = internal::g_metrics;
  internal::g_trace = trace;
  internal::g_metrics = metrics;
  ++internal::g_epoch;
#endif
}

ScopedObservability::~ScopedObservability() {
#if !defined(FF_TRACING_DISABLED)
  internal::g_trace = prev_trace_;
  internal::g_metrics = prev_metrics_;
  ++internal::g_epoch;
#endif
}

Span::Span(SpanCategory cat, std::string_view name, std::string_view track,
           SpanId parent) {
  if (TraceRecorder* tr = ActiveTrace()) {
    id_ = tr->BeginSpan(tr->now(), cat, name, track, parent);
  }
}

Span::~Span() {
  if (id_ == 0) return;
  if (TraceRecorder* tr = ActiveTrace()) tr->EndSpan(id_, tr->now());
}

void Span::Arg(std::string_view key, double value) {
  if (id_ == 0) return;
  if (TraceRecorder* tr = ActiveTrace()) tr->SpanArg(id_, key, value);
}

void Span::Arg(std::string_view key, std::string_view value) {
  if (id_ == 0) return;
  if (TraceRecorder* tr = ActiveTrace()) tr->SpanArg(id_, key, value);
}

}  // namespace obs
}  // namespace ff

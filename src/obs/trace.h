// Virtual-time tracing: structured spans and instant events recorded while
// the simulation runs, the telemetry the paper's operators manage the
// factory by (§1, §5: run logs -> statistics database -> SPC charts ->
// re-planning). A span is an interval of *virtual* time on a named track
// (a machine, a link, a run lane); parent ids give causality (a task span
// belongs to a run span). Instants mark zero-duration decisions (plan
// accepted, node down, SPC signal).
//
// Recording is designed for the DES hot path:
//   - instrumentation sites test `obs::ActiveTrace()` — one global load +
//     branch when tracing is runtime-disabled, and a constant-folded
//     nullptr (dead code) when compiled out with FF_TRACING_DISABLED;
//   - names and tracks are interned once into a string table; hot sites
//     cache the interned ids against the recorder's identity;
//   - a span record is a few words in a flat vector, no per-span
//     allocation; one numeric arg rides inline, the rest live in cold
//     side tables.
//
// The recorder is installed per-thread with ScopedObservability: each
// sim::Simulator is single-threaded, and a parallel sweep runs one
// simulator (and one recorder) per worker thread, merging the recordings
// afterwards (obs/merge.h).

#ifndef FF_OBS_TRACE_H_
#define FF_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ff {
namespace obs {

class MetricsRegistry;

/// Span/instant categories; the Chrome-trace "cat" field.
enum class SpanCategory : uint8_t {
  kRun = 0,    // one forecast run end to end
  kTask,       // one task executing on a PsResource-backed Machine
  kTransfer,   // one transfer on a Link
  kPlan,       // planner / rescheduler / foreman decisions
  kSpc,        // statistical-process-control signals
  kSim,        // kernel-internal events (compactions etc.)
};
inline constexpr int kNumSpanCategories = 6;
const char* SpanCategoryName(SpanCategory c);

/// 1-based span handle; 0 means "no span" (tracing off or no parent).
using SpanId = uint64_t;
/// Index into a TraceRecorder's interned string table.
using StrId = uint32_t;

/// One closed or open interval of virtual time. One numeric argument can
/// ride inline in the record (arg_key == 0 means none): the hot path then
/// writes a single flat record instead of touching a second side-table
/// stream, which measurably cuts full-tracing overhead on the DES kernel.
struct SpanRecord {
  double start;
  double end;  // < 0 while the span is still open
  SpanId parent;
  StrId name;
  StrId track;
  StrId arg_key;  // 0 = no inline argument
  SpanCategory category;
  uint8_t flags;  // kSpanFlag* bits
  double arg_value;
};

/// The span ended because its job was cancelled/removed, not completed.
inline constexpr uint8_t kSpanFlagRemoved = 1;

/// One zero-duration event.
struct InstantRecord {
  double time;
  StrId name;
  StrId track;
  SpanCategory category;
};

/// Cold-path span annotations (bytes moved, plan makespan, ...).
struct NumArgRecord {
  SpanId span;
  StrId key;
  double value;
};
struct StrArgRecord {
  SpanId span;
  StrId key;
  StrId value;
};

/// Collects spans and instants in virtual time.
class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Interns `s`, returning a stable id. A repeated call is one hash
  /// probe keyed by the view itself: it allocates nothing. Ids are issued
  /// in first-intern order.
  StrId Intern(std::string_view s);
  const std::string& str(StrId id) const { return strings_[id]; }

  /// Opens a span at virtual time `t`. The (name, track) overloads intern
  /// on the fly; hot paths should pre-intern and pass StrIds. A single
  /// numeric argument (pre-interned key) can be attached inline for free.
  SpanId BeginSpan(double t, SpanCategory cat, StrId name, StrId track,
                   SpanId parent = 0, StrId arg_key = 0,
                   double arg_value = 0.0) {
    spans_.push_back(SpanRecord{t, kOpen, parent, name, track, arg_key, cat,
                                0, arg_value});
    return static_cast<SpanId>(spans_.size());
  }
  SpanId BeginSpan(double t, SpanCategory cat, std::string_view name,
                   std::string_view track, SpanId parent = 0) {
    return BeginSpan(t, cat, Intern(name), Intern(track), parent);
  }

  /// Closes a span; ignored for id 0 or an already-closed span.
  void EndSpan(SpanId id, double t) {
    if (id == 0) return;
    SpanRecord& s = spans_[id - 1];
    if (s.end < 0.0) s.end = t;
  }

  /// Closes a span whose job was removed rather than run to completion;
  /// a flag bit instead of a side-table arg keeps PsResource::Remove off
  /// the cold path.
  void EndSpanRemoved(SpanId id, double t) {
    if (id == 0) return;
    SpanRecord& s = spans_[id - 1];
    if (s.end < 0.0) s.end = t;
    s.flags |= kSpanFlagRemoved;
  }

  /// Rewrites a span's parent link. Used by the sweep merge (obs/merge.cc)
  /// to remap parents onto merged ids; ignored for id 0.
  void SetParent(SpanId id, SpanId parent) {
    if (id == 0) return;
    spans_[id - 1].parent = parent;
  }

  void Instant(double t, SpanCategory cat, std::string_view name,
               std::string_view track) {
    instants_.push_back(InstantRecord{t, Intern(name), Intern(track), cat});
  }

  /// Pre-sizes span storage (page-fault hygiene for long recordings).
  void ReserveSpans(size_t n) { spans_.reserve(n); }

  /// Attaches an argument to a span (cold path).
  void SpanArg(SpanId span, std::string_view key, double value);
  void SpanArg(SpanId span, std::string_view key, std::string_view value);
  /// Hot-path variants: key (and value) already interned (cache the
  /// StrId alongside an epoch check, like PsResource's TraceCache does).
  void SpanArg(SpanId span, StrId key, double value);
  void SpanArg(SpanId span, StrId key, StrId value);

  /// Virtual-time clock for call sites without a Simulator* at hand (RAII
  /// Span guards, planner code). Installed by whoever owns the simulation;
  /// reads 0 when unset.
  void SetClock(std::function<double()> clock) { clock_ = std::move(clock); }
  double now() const { return clock_ ? clock_() : 0.0; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<InstantRecord>& instants() const { return instants_; }
  const std::vector<NumArgRecord>& num_args() const { return num_args_; }
  const std::vector<StrArgRecord>& str_args() const { return str_args_; }
  size_t num_strings() const { return strings_.size(); }

  /// Number of spans in a category (open and closed).
  size_t CountSpans(SpanCategory cat) const;
  /// Number of spans never closed (diagnostics; open spans export with
  /// zero duration).
  size_t OpenSpans() const;

 private:
  static constexpr double kOpen = -1.0;

  std::vector<SpanRecord> spans_;
  std::vector<InstantRecord> instants_;
  std::vector<NumArgRecord> num_args_;
  std::vector<StrArgRecord> str_args_;
  // Transparent hash and equality: lookups by string_view build no
  // std::string.
  struct ViewHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> strings_;
  std::unordered_map<std::string, StrId, ViewHash, std::equal_to<>> intern_;
  std::function<double()> clock_;
};

#if defined(FF_TRACING_DISABLED)
/// Compiled-out fast path: the active recorder is a constant nullptr, so
/// every `if (auto* tr = obs::ActiveTrace())` site is dead code.
constexpr TraceRecorder* ActiveTrace() { return nullptr; }
constexpr MetricsRegistry* ActiveMetrics() { return nullptr; }
constexpr uint64_t ObsEpoch() { return 0; }
#else
namespace internal {
// Thread-local, not process-global: a parallel sweep installs one
// recorder per worker thread (each campaign replica records into its
// own), and a thread-local active pointer keeps the instrumentation
// sites lock-free and race-free. Single-threaded use is unchanged —
// the main thread's slot behaves exactly like the old global.
extern thread_local TraceRecorder* g_trace;
extern thread_local MetricsRegistry* g_metrics;
extern thread_local uint64_t g_epoch;
}  // namespace internal
inline TraceRecorder* ActiveTrace() { return internal::g_trace; }
inline MetricsRegistry* ActiveMetrics() { return internal::g_metrics; }
/// Bumped on every ScopedObservability install/uninstall (per thread).
/// Hot paths cache interned ids / instrument pointers against this, not
/// the recorder address (a new recorder can reuse a freed one's address).
inline uint64_t ObsEpoch() { return internal::g_epoch; }
#endif

/// True when the trace/metrics hooks are compiled in (FF_TRACING=ON).
#if defined(FF_TRACING_DISABLED)
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

/// Installs a recorder and/or metrics registry for the enclosing scope and
/// restores the previous ones on destruction. Either may be null.
class ScopedObservability {
 public:
  ScopedObservability(TraceRecorder* trace, MetricsRegistry* metrics);
  ~ScopedObservability();

  ScopedObservability(const ScopedObservability&) = delete;
  ScopedObservability& operator=(const ScopedObservability&) = delete;

 private:
  TraceRecorder* prev_trace_;
  MetricsRegistry* prev_metrics_;
};

/// RAII span over the active recorder's clock, for synchronous sections
/// (planner decisions). No-op when tracing is off.
class Span {
 public:
  Span(SpanCategory cat, std::string_view name, std::string_view track,
       SpanId parent = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanId id() const { return id_; }
  void Arg(std::string_view key, double value);
  void Arg(std::string_view key, std::string_view value);

 private:
  SpanId id_ = 0;
};

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_TRACE_H_

// Wall-clock runtime profiling primitives — the *other* clock domain.
//
// Everything in obs/trace.h records VIRTUAL time: when the simulated
// factory did something. This header records RUNTIME: where the engine
// that runs the simulation spends real nanoseconds — worker threads
// running/stealing/idling, query operators pulling batches, sweep
// replicas waiting in queue. The two domains never mix: virtual-time
// traces stay byte-deterministic across thread counts, runtime profiles
// are real measurements and must never leak into determinism-gated
// artifacts.
//
// Layering: this file lives in its own library (ff_runtime_stats,
// depending only on ff_util) so that BOTH ff_parallel_core (the thread
// pool) and ff_statsdb (the executor) can link it — ff_obs itself links
// ff_statsdb and therefore cannot be a dependency of either. The
// exporters that need the rest of the obs stack (Chrome lanes, statsdb
// tables) live in obs/profiler.h inside ff_obs.
//
// Compile-out: -DFF_PROFILING=OFF defines FF_PROFILING_DISABLED and
// every timing hook guarded by `if constexpr (obs::kProfilingCompiledIn)`
// becomes dead code, mirroring the FF_TRACING pattern in obs/trace.h.
// Steal counters stay live either way (they predate the profiler and
// tests rely on ThreadPool::steals()); only clock reads, histograms and
// gauges compile out.

#ifndef FF_OBS_RUNTIME_STATS_H_
#define FF_OBS_RUNTIME_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ff {
namespace obs {

/// True when the wall-clock profiling hooks are compiled in
/// (-DFF_PROFILING=ON, the default).
#if defined(FF_PROFILING_DISABLED)
inline constexpr bool kProfilingCompiledIn = false;
#else
inline constexpr bool kProfilingCompiledIn = true;
#endif

/// Monotonic wall-clock nanoseconds (std::chrono::steady_clock). All
/// runtime profiling timestamps come from this one function so the
/// runtime clock domain has a single origin per process.
int64_t RuntimeNowNs();

// ---------------------------------------------------------------------------
// RuntimeHistogram — log2-bucketed nanosecond histogram, safe for any
// number of concurrent writers (relaxed atomic increments; TSan-clean).
// Unlike obs::Histogram (single-threaded, virtual-time), this is built
// for hot multi-threaded paths: Record() is two fetch_adds and a
// bit_width.

class RuntimeHistogram {
 public:
  /// Bucket b (b >= 1) holds values with bit_width b, i.e. ns in
  /// [2^(b-1), 2^b). Bucket 0 holds exact zeros. 40 buckets cover up to
  /// ~9 minutes; larger values clamp into the last bucket.
  static constexpr size_t kBuckets = 40;

  struct Snapshot {
    uint64_t buckets[kBuckets] = {};
    uint64_t count = 0;
    uint64_t sum_ns = 0;

    double MeanNs() const {
      return count == 0 ? 0.0 : static_cast<double>(sum_ns) / count;
    }
    /// Approximate quantile (linear interpolation inside the bucket).
    double QuantileNs(double q) const;
    /// Counter-wise difference (this - begin); for windowed profiles.
    Snapshot Since(const Snapshot& begin) const;
    void MergeFrom(const Snapshot& other);
  };

  void Record(uint64_t ns) {
    buckets_[BucketIndex(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }

  Snapshot Snap() const;

  static size_t BucketIndex(uint64_t ns);
  /// Inclusive lower bound of bucket `b` in nanoseconds.
  static uint64_t BucketLowNs(size_t b);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

// ---------------------------------------------------------------------------
// Per-worker thread-pool stats. One instance per worker, cache-line
// separated; the owning worker is the only writer of the timing fields,
// thieves never write another worker's struct, and readers snapshot with
// relaxed loads — so plain relaxed atomics are exact, not approximate.

struct alignas(64) WorkerRuntimeStats {
  std::atomic<uint64_t> tasks_run{0};    // tasks executed (always on)
  std::atomic<uint64_t> run_ns{0};       // time inside task bodies
  std::atomic<uint64_t> idle_ns{0};      // ended parks on the work signal
  std::atomic<uint64_t> parks{0};        // times the worker went to sleep
  std::atomic<uint64_t> steals{0};       // successful StealTop (always on)
  std::atomic<uint64_t> steal_fails{0};  // empty/lost StealTop attempts
  std::atomic<uint64_t> deque_peak{0};   // max own-deque depth observed
  RuntimeHistogram task_ns;              // per-task run duration
};

/// Plain-data copy of one worker's counters at a point in time.
struct WorkerRuntimeSnapshot {
  uint64_t tasks_run = 0;
  uint64_t run_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t parks = 0;
  uint64_t steals = 0;
  uint64_t steal_fails = 0;
  uint64_t deque_peak = 0;
  uint64_t deque_depth = 0;  // approximate depth at snapshot time
  RuntimeHistogram::Snapshot task_ns;
};

/// Snapshot of a whole pool's runtime behaviour (ThreadPool::
/// RuntimeProfile()). Subtract two snapshots with Since() to profile a
/// window (e.g. one sweep) instead of the pool's whole lifetime.
struct PoolRuntimeProfile {
  size_t num_threads = 0;
  uint64_t lifetime_ns = 0;  // pool construction (or window start) to snap
  uint64_t global_queue_depth = 0;
  uint64_t global_queue_peak = 0;
  std::vector<WorkerRuntimeSnapshot> workers;

  uint64_t TotalTasks() const;
  uint64_t TotalRunNs() const;
  uint64_t TotalIdleNs() const;
  uint64_t TotalSteals() const;
  uint64_t TotalStealFails() const;
  /// Fraction of worker-seconds spent inside task bodies:
  /// sum(run_ns) / (lifetime_ns * num_threads). 0 when unknown.
  double Occupancy() const;
  /// Merged per-task latency histogram across workers.
  RuntimeHistogram::Snapshot MergedTaskNs() const;
  /// Window profile: counters accumulated after `begin` was taken.
  PoolRuntimeProfile Since(const PoolRuntimeProfile& begin) const;
};

// ---------------------------------------------------------------------------
// Sweep-level runtime profile (filled by parallel::SweepRunner; declared
// here rather than in sweep.h so ff_obs exporters can consume it without
// linking ff_parallel).

struct ReplicaRuntime {
  size_t replica = 0;
  /// Worker index that ran the replica; SIZE_MAX when run inline.
  size_t worker = SIZE_MAX;
  /// Sweep start -> replica start: time spent queued/stolen-but-not-run.
  double queue_wait_ms = 0.0;
  /// Replica function execution time.
  double wall_ms = 0.0;
};

struct SweepRuntimeProfile {
  /// Whole sweep wall time, fan-out through merge barrier.
  double wall_ms = 0.0;
  std::vector<ReplicaRuntime> replicas;
  /// Pool counters accumulated during the sweep window (empty when the
  /// sweep ran inline without a pool).
  PoolRuntimeProfile pool;
  /// Per-worker occupancy over the sweep window: run_ns / sweep wall.
  std::vector<double> worker_occupancy;
};

// ---------------------------------------------------------------------------
// Query profiling: a tree of per-operator counters mirroring a statsdb
// plan. The executor fills one of these when a query runs under EXPLAIN
// ANALYZE (or any caller that passes one to ExecutePlan); it has no statsdb
// dependencies so it can cross the ff_statsdb/ff_obs layering boundary
// in either direction.

struct OperatorProfile {
  std::string name;  // operator label, e.g. "Scan(runs, pred=..., prune=[day])"

  uint64_t rows_out = 0;  // rows in emitted batches
  uint64_t batches = 0;   // batches emitted
  uint64_t wall_ns = 0;   // cumulative time in Next(), children included

  // Scan-only counters.
  bool is_scan = false;
  uint64_t chunks_scanned = 0;  // chunks materialized and evaluated
  uint64_t chunks_pruned = 0;   // chunks skipped via zone maps
  uint64_t index_rows = 0;      // rows served by the hash-index path

  // Parallel-unit counters (a Gather: one scan chain's morsel fan-out).
  bool parallel = false;
  uint64_t morsels = 0;        // morsels dispatched
  uint64_t merge_ns = 0;       // morsel-order merge of aggregate partials
  uint64_t max_morsel_ns = 0;  // slowest morsel

  std::vector<std::unique_ptr<OperatorProfile>> children;

  OperatorProfile* AddChild();
  /// Time spent in this operator alone (wall minus children). For nodes
  /// under a parallel unit, wall_ns is CPU time summed across morsels.
  uint64_t SelfNs() const;
  /// Structural merge: sums counters of `other` into this node and
  /// recursively into positionally-matching children (creating them when
  /// absent). Used to fold per-morsel chain profiles into one.
  void MergeFrom(const OperatorProfile& other);
};

struct QueryProfile {
  std::string engine = "serial";  // "serial", "parallel", or "cache"
  uint64_t total_ns = 0;          // whole profiled execution call
  std::unique_ptr<OperatorProfile> root;
  /// Result-cache disposition: "hit" (served from statsdb's result
  /// cache, nothing executed, root stays null), "miss" (consulted,
  /// executed, stored), "bypass" (cache off or plan uncacheable), or
  /// "" for profiled runs that never consulted the cache layer.
  std::string cache;

  /// Annotated plan tree, one line per operator (two-space indent per
  /// depth), preceded by an `engine=... total=...` header (plus
  /// `cache=...` when the cache layer was consulted). With profiling
  /// compiled out the tree renders without counters and the header
  /// notes "(profiling compiled out)".
  std::vector<std::string> RenderLines() const;
  std::string Render() const;  // newline-joined RenderLines()
};

/// "1.234ms" fixed formatting used by every runtime renderer.
std::string FormatNsAsMs(uint64_t ns);

}  // namespace obs
}  // namespace ff

#endif  // FF_OBS_RUNTIME_STATS_H_

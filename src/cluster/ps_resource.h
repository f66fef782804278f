// Egalitarian processor-sharing resource — the execution model the paper's
// ForeMan assumes ("if three forecasts run concurrently on a node with two
// CPUs ... each forecast gets 2/3 of the available CPU cycles").
//
// A PsResource has a capacity (CPUs for machines, bytes/s for links) and a
// per-job rate cap (1 CPU for serial forecast codes; the full bandwidth for
// transfers). K active jobs each progress at
//     rate = speed_factor * min(max_per_job, capacity / K).
// Completion events are recomputed whenever membership or speed changes.
//
// Internally the resource uses a *virtual-time* formulation: because the
// sharing is egalitarian, every resident job receives service at the same
// instantaneous rate, so a single accumulator V(t) — cumulative per-job
// service since the last idle period — advances for all of them at once. A
// job admitted with work `w` when the accumulator reads `v0` completes at
// the fixed virtual credit `v0 + w`; its remaining work at any later
// instant is `credit - V(t)`. Membership and speed changes only alter how
// fast V advances, never the credits, so the completion order is a static
// min-heap over credits with lazy deletion for removed jobs. This makes
// Advance O(1) and Add/Remove/completion O(log K) — versus the former
// O(K) sweep per event — and eliminates the per-job floating-point drift
// of repeatedly subtracting `rate * dt` from each job. V rebases to zero
// whenever the resource drains, bounding accumulator growth.

#ifndef FF_CLUSTER_PS_RESOURCE_H_
#define FF_CLUSTER_PS_RESOURCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/statusor.h"

namespace ff {
namespace cluster {

/// Identifier of a job admitted to a PsResource.
using JobId = uint64_t;

/// Processor-sharing resource on a discrete-event simulator.
class PsResource {
 public:
  /// `capacity` — total service rate available (e.g. number of CPUs);
  /// `max_per_job` — cap on a single job's service rate (e.g. 1.0 CPU).
  PsResource(sim::Simulator* sim, std::string name, double capacity,
             double max_per_job);

  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  /// Admits a job with `work` units of demand (capacity-units × seconds;
  /// CPU-seconds for machines, bytes for links). `on_done` fires exactly
  /// once, at the simulated completion instant. Zero/negative work
  /// completes at the current time (event still dispatched via the queue).
  JobId Add(double work, std::function<void()> on_done) {
    return AddTraced(work, std::move(on_done), {}, 0);
  }

  /// Add plus an observability span covering the job's residency, on this
  /// resource's track, named `label` (the category's name when empty) and
  /// parented under `parent`. When no recorder is active this is exactly
  /// Add.
  JobId AddTraced(double work, std::function<void()> on_done,
                  std::string_view label, obs::SpanId parent);

  /// Removes a job before completion; returns its remaining work.
  /// NotFound if the job is unknown or already completed.
  util::StatusOr<double> Remove(JobId id);

  /// Scales all service (0 = down / failed). Takes effect immediately.
  void SetSpeedFactor(double factor);
  double speed_factor() const { return speed_factor_; }

  /// Additional multiplicative slowdown in (0,1], orthogonal to the speed
  /// factor — used by Machine to model memory thrashing when the working
  /// sets of concurrent tasks exceed RAM.
  void SetCongestionFactor(double factor);
  double congestion_factor() const { return congestion_; }

  /// Remaining work of an active job (advanced to the current instant).
  util::StatusOr<double> RemainingWork(JobId id) const;

  /// Called with a job's id at its completion, just before its on_done
  /// (Machine releases the task's memory here). Jobs removed with Remove
  /// do not reach it.
  void set_completion_hook(std::function<void(JobId)> hook) {
    completion_hook_ = std::move(hook);
  }

  size_t active_jobs() const { return live_jobs_; }
  double capacity() const { return capacity_; }
  double max_per_job() const { return max_per_job_; }
  const std::string& name() const { return name_; }

  /// Per-job service rate right now (0 when idle or down).
  double CurrentRatePerJob() const;

  /// Span category for jobs on this resource (kTask for machines,
  /// kTransfer for links). Default kTask.
  void set_trace_category(obs::SpanCategory cat) { trace_category_ = cat; }

  /// Span of an active job (0 when untraced or unknown).
  obs::SpanId span_of(JobId id) const;

  /// Total work units delivered so far (for utilization accounting).
  double total_delivered() const;

  /// Integral of busy capacity over time so far; divide by
  /// (capacity * elapsed) for average utilization.
  double busy_capacity_integral() const;

 private:
  struct Job {
    double finish_credit;  // virtual time at which the job completes
    std::function<void()> on_done;
    obs::SpanId span = 0;  // open while the job is resident; 0 = untraced
    bool live = false;     // false once completed or removed
  };
  struct HeapEntry {
    double credit;
    JobId id;
  };
  // Min-heap on (credit, id) under std::push_heap's max-heap convention.
  struct CreditLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.credit != b.credit) return a.credit > b.credit;
      return a.id > b.id;
    }
  };

  // Advances the virtual-time accumulator (and the delivered-work
  // integrals) to sim_->now(). O(1).
  void Advance();
  // Cancels and reschedules the next-completion event; rebases the
  // accumulator when the resource has drained.
  void Reschedule();
  // Fires completions due at the current instant.
  void OnCompletionEvent();
  // Pops heap entries whose jobs were removed (lazy deletion).
  void PruneHeapTop();
  // Rebuilds the heap without stale entries once they outnumber live jobs.
  void MaybeCompactHeap();
  // Per-job virtual service extrapolated to sim_->now() without mutating.
  double VirtualTimeNow() const;
  // The live job `id`, or nullptr when it completed, was removed or never
  // existed. O(1).
  Job* FindJob(JobId id);
  const Job* FindJob(JobId id) const;
  // Marks a live job finished and trims the finished prefix of jobs_.
  void EraseJob(Job* job);

  // Interned ids for this resource's track, resolved once per
  // observability install (epoch compare per traced Add).
  struct TraceCache {
    uint64_t epoch = 0;
    obs::StrId track = 0;
    obs::StrId default_name = 0;
    obs::StrId work_key = 0;
  };

  sim::Simulator* sim_;
  std::string name_;
  double capacity_;
  double max_per_job_;
  obs::SpanCategory trace_category_ = obs::SpanCategory::kTask;
  TraceCache trace_;
  double speed_factor_ = 1.0;
  double congestion_ = 1.0;
  // Jobs by id: jobs_[i] is job first_id_ + i. Ids are issued in
  // ascending order, so admission appends; finished jobs stay as holes
  // until the finished prefix (jobs_[0, head_)) is dropped, which happens
  // once it is half the window. The window spans the oldest live job to
  // the newest.
  std::vector<Job> jobs_;
  JobId first_id_ = 1;
  size_t head_ = 0;
  size_t live_jobs_ = 0;
  std::vector<HeapEntry> heap_;
  // Completions due at one instant (reused across completion events).
  std::vector<std::pair<JobId, std::function<void()>>> done_;
  std::function<void(JobId)> completion_hook_;
  size_t stale_entries_ = 0;
  double virtual_time_ = 0.0;
  JobId next_id_ = 1;
  sim::Time last_update_;
  sim::EventHandle pending_;
  double total_delivered_ = 0.0;
  double busy_integral_ = 0.0;

  static constexpr double kWorkEpsilon = 1e-9;
  // Jobs whose residual service time falls below this are complete (their
  // completion delay is unrepresentable in double virtual time).
  static constexpr double kTimeEpsilon = 1e-6;
};

}  // namespace cluster
}  // namespace ff

#endif  // FF_CLUSTER_PS_RESOURCE_H_

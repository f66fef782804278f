// Machine: a compute node with N CPUs, a relative speed factor and finite
// RAM, running serial tasks under egalitarian processor sharing (the
// paper's stated execution model for forecast nodes). When the combined
// working set of active tasks exceeds RAM, all tasks slow proportionally
// (memory thrashing) — the paper's §4.2 observation that simulation and
// product generation "both consume considerable amounts of memory and CPU
// cycles, so running them concurrently may increase the running times of
// both". Supports failure injection (down/up) and task migration
// (remove-with-remaining-work).

#ifndef FF_CLUSTER_MACHINE_H_
#define FF_CLUSTER_MACHINE_H_

#include <functional>
#include <limits>
#include <map>
#include <string>

#include "cluster/ps_resource.h"

namespace ff {
namespace cluster {

/// Identifier of a CPU task on a Machine.
using TaskId = JobId;

/// A dual-CPU-style forecast node.
class Machine {
 public:
  /// `speed` is the node's relative CPU speed (1.0 = reference node); the
  /// paper's ForeMan "will scale the expected running time of the forecast
  /// by the relative node speed". `ram_bytes` bounds the combined working
  /// set before thrashing sets in (default: effectively unlimited).
  Machine(sim::Simulator* sim, std::string name, int num_cpus,
          double speed = 1.0,
          double ram_bytes = std::numeric_limits<double>::infinity());

  /// Starts a serial task needing `cpu_seconds` of reference-speed CPU
  /// time and holding `mem_bytes` of resident memory while it runs.
  /// `on_done` fires at completion. When a trace recorder is active the
  /// task gets a kTask span on this machine's track, named `label` and
  /// parented under `parent` (e.g. the owning run's span).
  TaskId StartTask(double cpu_seconds, std::function<void()> on_done,
                   double mem_bytes = 0.0, std::string_view label = {},
                   obs::SpanId parent = 0);

  /// Span of an active task (0 when untraced).
  obs::SpanId TaskSpan(TaskId id) const { return res_.span_of(id); }

  /// Kills or migrates a task; returns remaining reference-speed
  /// CPU-seconds.
  util::StatusOr<double> RemoveTask(TaskId id);

  util::StatusOr<double> RemainingWork(TaskId id) const {
    return res_.RemainingWork(id);
  }

  /// Failure injection. A down machine makes no progress but keeps task
  /// state (callers usually migrate tasks off instead).
  void SetUp(bool up);
  bool up() const { return up_; }

  const std::string& name() const { return res_.name(); }
  int num_cpus() const { return num_cpus_; }
  double speed() const { return speed_; }
  double ram_bytes() const { return ram_bytes_; }
  size_t active_tasks() const { return res_.active_jobs(); }
  double resident_bytes() const { return resident_bytes_; }

  /// Current thrash multiplier in (0,1]; 1 when the working set fits RAM.
  double thrash_factor() const { return res_.congestion_factor(); }

  /// Per-task CPU fraction delivered right now, in reference-speed units.
  double CurrentRatePerTask() const { return res_.CurrentRatePerJob(); }

  /// Total reference-speed CPU-seconds delivered.
  double total_cpu_seconds() const { return res_.total_delivered(); }

  /// Average utilization since the machine was created (pass the creation
  /// time as t0). Mathematically bounded by 1; the value is returned
  /// unclamped and checked against `kUtilizationSlack` so capacity-
  /// accounting drift surfaces as a failed invariant instead of being
  /// silently truncated.
  double AverageUtilization(sim::Time t0) const;

  /// Tolerance on the utilization <= 1 invariant (floating-point
  /// accumulation over long simulations).
  static constexpr double kUtilizationSlack = 1e-6;

 private:
  void UpdateCongestion();
  // A task left the machine (completed or removed): frees its memory and
  // re-evaluates thrashing.
  void ReleaseTask(TaskId id);

  sim::Simulator* sim_;
  PsResource res_;
  int num_cpus_;
  double speed_;
  double ram_bytes_;
  double resident_bytes_ = 0.0;
  std::map<TaskId, double> task_mem_;  // tasks holding memory only
  bool up_ = true;
};

}  // namespace cluster
}  // namespace ff

#endif  // FF_CLUSTER_MACHINE_H_

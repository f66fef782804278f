#include "cluster/machine.h"

#include <algorithm>

#include "util/logging.h"

namespace ff {
namespace cluster {

Machine::Machine(sim::Simulator* sim, std::string name, int num_cpus,
                 double speed, double ram_bytes)
    : sim_(sim),
      res_(sim, std::move(name), static_cast<double>(num_cpus),
           /*max_per_job=*/1.0),
      num_cpus_(num_cpus),
      speed_(speed),
      ram_bytes_(ram_bytes) {
  FF_CHECK(num_cpus >= 1) << "machine needs at least one CPU";
  FF_CHECK(speed > 0.0) << "machine speed must be positive";
  FF_CHECK(ram_bytes > 0.0) << "machine RAM must be positive";
  res_.SetSpeedFactor(speed);
  res_.set_completion_hook([this](TaskId id) { ReleaseTask(id); });
}

void Machine::UpdateCongestion() {
  double factor = 1.0;
  if (resident_bytes_ > ram_bytes_) {
    factor = ram_bytes_ / resident_bytes_;
  }
  res_.SetCongestionFactor(factor);
}

TaskId Machine::StartTask(double cpu_seconds, std::function<void()> on_done,
                          double mem_bytes, std::string_view label,
                          obs::SpanId parent) {
  FF_CHECK(mem_bytes >= 0.0) << "negative task memory";
  resident_bytes_ += mem_bytes;
  TaskId id = res_.AddTraced(cpu_seconds, std::move(on_done), label, parent);
  if (mem_bytes > 0.0) task_mem_[id] = mem_bytes;
  UpdateCongestion();
  return id;
}

void Machine::ReleaseTask(TaskId id) {
  auto it = task_mem_.find(id);
  if (it != task_mem_.end()) {
    resident_bytes_ -= it->second;
    task_mem_.erase(it);
  }
  UpdateCongestion();
}

util::StatusOr<double> Machine::RemoveTask(TaskId id) {
  FF_ASSIGN_OR_RETURN(double remaining, res_.Remove(id));
  ReleaseTask(id);
  return remaining;
}

void Machine::SetUp(bool up) {
  up_ = up;
  res_.SetSpeedFactor(up ? speed_ : 0.0);
}

double Machine::AverageUtilization(sim::Time t0) const {
  double elapsed = sim_->now() - t0;
  if (elapsed <= 0.0) return 0.0;
  // busy_capacity_integral counts reference-speed work; normalize by the
  // machine's own deliverable capacity.
  double deliverable = speed_ * static_cast<double>(num_cpus_) * elapsed;
  double utilization = res_.busy_capacity_integral() / deliverable;
  // A value above 1 (beyond accumulated rounding) means the capacity
  // accounting delivered more work than the machine can physically serve —
  // a kernel bug that the former std::min(1.0, ...) clamp silently hid.
  FF_DCHECK(utilization <= 1.0 + kUtilizationSlack)
      << name() << ": utilization " << utilization
      << " exceeds deliverable capacity (integral="
      << res_.busy_capacity_integral() << " deliverable=" << deliverable
      << ")";
  return utilization;
}

}  // namespace cluster
}  // namespace ff

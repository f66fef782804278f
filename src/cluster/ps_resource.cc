#include "cluster/ps_resource.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace ff {
namespace cluster {

PsResource::PsResource(sim::Simulator* sim, std::string name,
                       double capacity, double max_per_job)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(capacity),
      max_per_job_(max_per_job),
      last_update_(sim->now()) {
  FF_CHECK(capacity > 0.0) << name_ << ": capacity must be positive";
  FF_CHECK(max_per_job > 0.0) << name_ << ": max_per_job must be positive";
}

double PsResource::CurrentRatePerJob() const {
  if (live_jobs_ == 0 || speed_factor_ <= 0.0 || congestion_ <= 0.0) {
    return 0.0;
  }
  double share = capacity_ / static_cast<double>(live_jobs_);
  return speed_factor_ * congestion_ * std::min(max_per_job_, share);
}

double PsResource::VirtualTimeNow() const {
  double dt = sim_->now() - last_update_;
  return virtual_time_ + CurrentRatePerJob() * dt;
}

void PsResource::Advance() {
  sim::Time now = sim_->now();
  double dt = now - last_update_;
  if (dt > 0.0) {
    double rate = CurrentRatePerJob();
    if (rate > 0.0) {
      double delivered = rate * static_cast<double>(live_jobs_) * dt;
      virtual_time_ += rate * dt;
      total_delivered_ += delivered;
      busy_integral_ += delivered;
    }
  }
  last_update_ = now;
}

PsResource::Job* PsResource::FindJob(JobId id) {
  if (id < first_id_ || id - first_id_ >= jobs_.size()) return nullptr;
  Job& job = jobs_[id - first_id_];
  return job.live ? &job : nullptr;
}

const PsResource::Job* PsResource::FindJob(JobId id) const {
  return const_cast<PsResource*>(this)->FindJob(id);
}

void PsResource::EraseJob(Job* job) {
  job->live = false;
  job->on_done = nullptr;
  if (--live_jobs_ == 0) {
    jobs_.clear();
    first_id_ = next_id_;
    head_ = 0;
    return;
  }
  while (!jobs_[head_].live) ++head_;
  if (head_ * 2 >= jobs_.size()) {
    jobs_.erase(jobs_.begin(), jobs_.begin() + static_cast<ptrdiff_t>(head_));
    first_id_ += head_;
    head_ = 0;
  }
}

void PsResource::PruneHeapTop() {
  while (!heap_.empty() && FindJob(heap_.front().id) == nullptr) {
    std::pop_heap(heap_.begin(), heap_.end(), CreditLater{});
    heap_.pop_back();
    --stale_entries_;
  }
}

void PsResource::MaybeCompactHeap() {
  if (stale_entries_ * 2 <= heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) {
                               return FindJob(e.id) == nullptr;
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), CreditLater{});
  stale_entries_ = 0;
}

void PsResource::Reschedule() {
  if (pending_.pending()) sim_->Cancel(pending_);
  if (live_jobs_ == 0) {
    // Idle: rebase the accumulator so credits never grow without bound
    // over a long simulation (precision hygiene).
    heap_.clear();
    stale_entries_ = 0;
    virtual_time_ = 0.0;
    return;
  }
  double rate = CurrentRatePerJob();
  if (rate <= 0.0) return;
  PruneHeapTop();
  FF_DCHECK(!heap_.empty()) << name_ << ": live jobs missing from heap";
  double min_remaining = heap_.front().credit - virtual_time_;
  double delay = std::max(0.0, min_remaining) / rate;
  pending_ = sim_->ScheduleAfter(delay, [this] { OnCompletionEvent(); });
}

void PsResource::OnCompletionEvent() {
  Advance();
  // Collect everything that is done at this instant. The threshold scales
  // with the service rate: below it, the residual work would complete in
  // less simulated time than a double can resolve, and leaving the job
  // active would re-fire this event at an identical timestamp forever.
  double threshold =
      std::max(kWorkEpsilon, CurrentRatePerJob() * kTimeEpsilon);
  // Borrow done_'s capacity; a member stays valid should a callback ever
  // re-enter this resource's completion path.
  std::vector<std::pair<JobId, std::function<void()>>> done;
  done.swap(done_);
  while (!heap_.empty()) {
    const JobId id = heap_.front().id;
    Job* job = FindJob(id);
    if (job == nullptr) {  // removed earlier; lazy deletion
      std::pop_heap(heap_.begin(), heap_.end(), CreditLater{});
      heap_.pop_back();
      --stale_entries_;
      continue;
    }
    if (heap_.front().credit - virtual_time_ > threshold) break;
    if (job->span != 0) {
      if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
        tr->EndSpan(job->span, sim_->now());
      }
    }
    done.emplace_back(id, std::move(job->on_done));
    EraseJob(job);
    std::pop_heap(heap_.begin(), heap_.end(), CreditLater{});
    heap_.pop_back();
  }
  // Fire in ascending job id, matching the historical completion order for
  // jobs finishing at the same instant (the map sweep this replaces).
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Reschedule();
  for (auto& [id, fn] : done) {
    if (completion_hook_) completion_hook_(id);
    if (fn) fn();
  }
  done.clear();
  done_.swap(done);
}

JobId PsResource::AddTraced(double work, std::function<void()> on_done,
                            std::string_view label, obs::SpanId parent) {
  Advance();
  JobId id = next_id_++;
  double credit = virtual_time_ + std::max(work, 0.0);
  obs::SpanId span = 0;
  if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
    uint64_t e = obs::ObsEpoch();
    if (e != trace_.epoch) {
      trace_.epoch = e;
      trace_.track = tr->Intern(name_);
      trace_.default_name = tr->Intern(obs::SpanCategoryName(trace_category_));
      trace_.work_key = tr->Intern("work");
    }
    obs::StrId span_name =
        label.empty() ? trace_.default_name : tr->Intern(label);
    span = tr->BeginSpan(sim_->now(), trace_category_, span_name,
                         trace_.track, parent, trace_.work_key, work);
  }
  jobs_.push_back(Job{credit, std::move(on_done), span, /*live=*/true});
  ++live_jobs_;
  heap_.push_back(HeapEntry{credit, id});
  std::push_heap(heap_.begin(), heap_.end(), CreditLater{});
  Reschedule();
  return id;
}

util::StatusOr<double> PsResource::Remove(JobId id) {
  Advance();
  Job* job = FindJob(id);
  if (job == nullptr) {
    return util::Status::NotFound(name_ + ": job " + std::to_string(id));
  }
  double remaining = std::max(0.0, job->finish_credit - virtual_time_);
  if (job->span != 0) {
    if (obs::TraceRecorder* tr = obs::ActiveTrace()) {
      tr->EndSpanRemoved(job->span, sim_->now());
    }
  }
  EraseJob(job);
  ++stale_entries_;
  MaybeCompactHeap();
  Reschedule();
  return remaining;
}

void PsResource::SetSpeedFactor(double factor) {
  FF_CHECK(factor >= 0.0) << name_ << ": negative speed factor";
  Advance();
  speed_factor_ = factor;
  Reschedule();
}

void PsResource::SetCongestionFactor(double factor) {
  FF_CHECK(factor > 0.0 && factor <= 1.0)
      << name_ << ": congestion factor must be in (0,1], got " << factor;
  Advance();
  congestion_ = factor;
  Reschedule();
}

obs::SpanId PsResource::span_of(JobId id) const {
  const Job* job = FindJob(id);
  return job == nullptr ? 0 : job->span;
}

util::StatusOr<double> PsResource::RemainingWork(JobId id) const {
  const Job* job = FindJob(id);
  if (job == nullptr) {
    return util::Status::NotFound(name_ + ": job " + std::to_string(id));
  }
  // Account for progress since last_update_ without mutating state.
  return std::max(0.0, job->finish_credit - VirtualTimeNow());
}

double PsResource::total_delivered() const {
  double dt = sim_->now() - last_update_;
  double rate = CurrentRatePerJob();
  return total_delivered_ + rate * static_cast<double>(live_jobs_) * dt;
}

double PsResource::busy_capacity_integral() const {
  double dt = sim_->now() - last_update_;
  double rate = CurrentRatePerJob();
  return busy_integral_ + rate * static_cast<double>(live_jobs_) * dt;
}

}  // namespace cluster
}  // namespace ff

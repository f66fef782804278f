#include "sim/simulator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace ff {
namespace sim {

namespace {
// Below this size a compaction pass costs more than skipping tombstones.
constexpr size_t kMinCompactSize = 64;
}  // namespace

void Simulator::RefreshMetricsCache(obs::MetricsRegistry* m) {
  metrics_.epoch = obs::ObsEpoch();
  metrics_.events = m->counter("sim.events_dispatched");
  metrics_.compactions = m->counter("sim.queue_compactions");
  metrics_.queue_depth = m->gauge("sim.queue_depth");
}

EventHandle Simulator::ScheduleAt(Time t, std::function<void()> fn,
                                  int priority) {
  FF_DCHECK(t >= now_) << "ScheduleAt in the past: t=" << t
                       << " now=" << now_;
  EventHandle handle;
  handle.sim_ = this;
  handle.seq_ = next_seq_++;
  if (free_slots_.empty()) {
    handle.slot_ = static_cast<uint32_t>(slots_.size());
    slots_.push_back(handle.seq_);
  } else {
    handle.slot_ = free_slots_.back();
    free_slots_.pop_back();
    slots_[handle.slot_] = handle.seq_;
  }
  queue_.push_back(
      QueuedEvent{t, priority, handle.slot_, handle.seq_, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return handle;
}

EventHandle Simulator::ScheduleAfter(Time delay, std::function<void()> fn,
                                     int priority) {
  FF_DCHECK(delay >= 0.0) << "negative delay " << delay;
  return ScheduleAt(now_ + delay, std::move(fn), priority);
}

bool Simulator::Cancel(EventHandle& handle) {
  if (!handle.pending()) return false;
  FF_DCHECK(handle.sim_ == this) << "handle of another simulator";
  FreeSlot(handle.slot_);
  ++cancelled_in_queue_;
  MaybeCompact();
  return true;
}

Simulator::QueuedEvent Simulator::PopTop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  QueuedEvent ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void Simulator::MaybeCompact() {
  if (queue_.size() < kMinCompactSize ||
      cancelled_in_queue_ * 2 <= queue_.size()) {
    return;
  }
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [this](const QueuedEvent& ev) {
                                return IsTombstone(ev);
                              }),
               queue_.end());
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  cancelled_in_queue_ = 0;
  if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
    if (obs::ObsEpoch() != metrics_.epoch) RefreshMetricsCache(m);
    metrics_.compactions->Increment();
  }
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    QueuedEvent ev = PopTop();
    if (IsTombstone(ev)) {
      --cancelled_in_queue_;
      continue;
    }
    FF_DCHECK(ev.time >= now_) << "event queue time went backwards";
    now_ = ev.time;
    FreeSlot(ev.slot);
    ++events_processed_;
    if (obs::MetricsRegistry* m = obs::ActiveMetrics()) {
      if (obs::ObsEpoch() != metrics_.epoch) RefreshMetricsCache(m);
      metrics_.events->Increment();
      metrics_.queue_depth->Set(static_cast<double>(queue_.size()));
    }
    ev.fn();
    return true;
  }
  return false;
}

void Simulator::Run() {
  stopped_ = false;
  while (!stopped_ && Step()) {
  }
}

void Simulator::RunUntil(Time t_end) {
  stopped_ = false;
  while (!stopped_) {
    // Peek past tombstones without dispatching.
    while (!queue_.empty() && IsTombstone(queue_.front())) {
      PopTop();
      --cancelled_in_queue_;
    }
    if (queue_.empty()) break;
    if (queue_.front().time > t_end) break;
    Step();
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace sim
}  // namespace ff

// Discrete-event simulation engine.
//
// Single-threaded virtual-time kernel with a total order on events
// (time, priority, insertion sequence), so a given seed and scenario always
// produce byte-identical traces. All higher layers (cluster machines,
// network links, data-flow processes, the factory campaign) are built as
// event callbacks on this kernel.
//
// The queue is an owned binary heap (std::vector + std::push_heap /
// std::pop_heap) rather than std::priority_queue: events are *moved* out at
// dispatch, so popping never copies the std::function payload. Cancelled
// events stay in the heap as tombstones and are skipped at dispatch; when
// tombstones outnumber live events the heap is compacted in one O(n) pass,
// keeping amortized per-event cost at O(log n) even under heavy
// cancellation (every PsResource reschedule cancels an event).
//
// Per-event state lives in storage the simulator owns: a handle is a slot
// index plus the event's sequence number, and the slot holds the sequence
// number of the live event using it. Firing or cancelling an event frees
// its slot, so a queued event whose slot no longer names it is a
// tombstone. Scheduling allocates nothing once the queue and the slot
// table have grown to the scenario's peak.

#ifndef FF_SIM_SIMULATOR_H_
#define FF_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "util/status.h"

namespace ff {
namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

namespace sim {

/// Simulated time in seconds since the scenario epoch.
using Time = double;

class Simulator;

/// Opaque handle for cancelling a scheduled event. A copy names the same
/// event. Valid only while its simulator lives.
class EventHandle {
 public:
  EventHandle() = default;

  /// True when the handle refers to an event that has neither fired nor
  /// been cancelled.
  bool pending() const;

 private:
  friend class Simulator;
  const Simulator* sim_ = nullptr;
  uint64_t seq_ = 0;
  uint32_t slot_ = 0;
};

/// The event-queue kernel.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). Events with
  /// equal time fire in ascending `priority`, then insertion order.
  EventHandle ScheduleAt(Time t, std::function<void()> fn, int priority = 0);

  /// Schedules `fn` after `delay` seconds (must be >= 0).
  EventHandle ScheduleAfter(Time delay, std::function<void()> fn,
                            int priority = 0);

  /// Cancels a pending event; returns false when it already fired or was
  /// already cancelled.
  bool Cancel(EventHandle& handle);

  /// Runs until the queue empties or Stop() is called.
  void Run();

  /// Runs until the queue empties, Stop() is called, or virtual time would
  /// pass `t_end`; afterwards now() == min(t_end, completion time).
  void RunUntil(Time t_end);

  /// Processes exactly one event if any is pending; returns false when the
  /// queue is empty.
  bool Step();

  /// Requests Run()/RunUntil() to return after the current event.
  void Stop() { stopped_ = true; }

  /// Number of events dispatched so far (diagnostics / determinism tests).
  uint64_t events_processed() const { return events_processed_; }

  /// Number of events currently queued, including cancelled tombstones not
  /// yet skipped or compacted away.
  size_t queue_size() const { return queue_.size(); }

 private:
  friend class EventHandle;

  struct QueuedEvent {
    Time time;
    int priority;
    uint32_t slot;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  // A slot holds kFreeSlot or the sequence number of its pending event.
  static constexpr uint64_t kFreeSlot = ~uint64_t{0};

  bool IsTombstone(const QueuedEvent& ev) const {
    return slots_[ev.slot] != ev.seq;
  }
  // Marks the event in `slot` fired or cancelled and recycles the slot.
  void FreeSlot(uint32_t slot) {
    slots_[slot] = kFreeSlot;
    free_slots_.push_back(slot);
  }
  // Pops the heap top (which must exist) into a movable value.
  QueuedEvent PopTop();
  // Rebuilds the heap without tombstones once they exceed half the queue.
  void MaybeCompact();

  // Kernel metrics (events dispatched, tombstone compactions, queue
  // depth), resolved once per observability install (epoch) and then one
  // integer compare per event; dead code entirely when no registry is
  // installed.
  struct MetricsCache {
    uint64_t epoch = 0;
    obs::Counter* events = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };
  void RefreshMetricsCache(obs::MetricsRegistry* m);

  std::vector<QueuedEvent> queue_;
  std::vector<uint64_t> slots_;
  std::vector<uint32_t> free_slots_;
  MetricsCache metrics_;
  size_t cancelled_in_queue_ = 0;
  Time now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
};

inline bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slots_[slot_] == seq_;
}

}  // namespace sim
}  // namespace ff

#endif  // FF_SIM_SIMULATOR_H_

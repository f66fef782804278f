// Work-stealing thread pool for campaign sweeps (parallel/sweep.h).
//
// Topology: one Chase–Lev deque per worker plus one bounded global
// submission queue. A worker services its own deque LIFO (PopBottom: hot
// caches, no contention), falls back to the global queue, then steals
// FIFO from other workers' deques (StealTop: the oldest — usually
// largest — piece of work moves, amortising the steal). External threads
// submit through the global queue and block when it is full
// (backpressure); tasks spawned *by* a worker go straight onto its own
// deque and are only visible to thieves, never to the bounded queue.
//
// The deque is the C11 formulation of Chase & Lev's dynamic circular
// work-stealing deque (Le et al., PPoPP'13): owner pushes/pops at the
// bottom with plain loads plus fences, thieves CAS the top index. The
// ring array grows geometrically; retired arrays stay alive until the
// deque dies because a thief may still hold a pointer into one.
//
// Scheduling is intentionally non-deterministic (whichever worker is
// idle steals); determinism of sweep *results* is the merge layer's job
// (obs/merge.h), which orders by replica index, never by completion.

#ifndef FF_PARALLEL_THREAD_POOL_H_
#define FF_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/runtime_stats.h"

namespace ff {
namespace parallel {

/// Growable single-owner / multi-thief deque of heap-allocated closures.
/// Owner: PushBottom / PopBottom. Any thread: StealTop.
class TaskDeque {
 public:
  using Task = std::function<void()>;

  TaskDeque();
  ~TaskDeque();

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner only. Takes ownership of `task`.
  void PushBottom(Task* task);
  /// Owner only. Null when empty (or lost the race for the last task).
  Task* PopBottom();
  /// Any thread. Null when empty or when a concurrent steal won the CAS.
  Task* StealTop();

  /// Approximate (racy) size; for tests and heuristics only.
  size_t ApproxSize() const;

 private:
  struct RingArray {
    explicit RingArray(size_t cap)
        : capacity(cap), mask(cap - 1),
          slots(std::make_unique<std::atomic<Task*>[]>(cap)) {}
    Task* Get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(
          std::memory_order_acquire);
    }
    void Put(int64_t i, Task* t) {
      slots[static_cast<size_t>(i) & mask].store(t,
                                                 std::memory_order_release);
    }
    const size_t capacity;
    const size_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;
  };

  RingArray* Grow(RingArray* array, int64_t top, int64_t bottom);

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<RingArray*> array_;
  // Arrays replaced by Grow; owner-only. Kept alive for the deque's
  // lifetime so a thief holding a stale array pointer reads valid memory.
  std::vector<std::unique_ptr<RingArray>> retired_;
};

/// Fixed-size pool of work-stealing workers.
///
/// Nested submission / wait contract
/// ---------------------------------
/// Pool-wide Wait() and ParallelFor() may only be called from OUTSIDE
/// the pool: a worker blocking on pending_ == 0 would wait for its own
/// unfinished task and deadlock. Code that runs *inside* a pool task and
/// needs to fan out (a sweep replica issuing a morsel-parallel statsdb
/// query, a query recursively parallelising a sub-plan) must use a
/// TaskGroup instead. TaskGroup::Wait() on a worker thread help-first
/// executes work spawned inside the pool — its own deque, then steals
/// from other workers' deques — until the group's outstanding count
/// reaches zero, parking only when no such work is findable. It never
/// pops the external submission queue ("work isolation", as TBB calls
/// it): a task submitted from outside the pool never starts nested
/// inside another task's wait, so a waiter holding a lock cannot pick up
/// unrelated work that needs the same lock. A group waited on from a
/// worker must therefore be fed from workers (nested Submit), which is
/// what TaskGroup::ParallelFor on a worker does.
class ThreadPool {
 public:
  struct Options {
    /// 0 = std::thread::hardware_concurrency() (min 1).
    size_t num_threads = 0;
    /// Bound on the external submission queue; Submit blocks when full.
    size_t max_queue = 1024;
  };

  ThreadPool();  // Options defaults: hardware threads, queue bound 1024
  explicit ThreadPool(Options options);
  explicit ThreadPool(size_t num_threads);
  /// Waits for pending tasks, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. From a pool worker: pushed onto that worker's own
  /// deque (never blocks). From outside: appended to the bounded global
  /// queue, blocking while it is full.
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished executing.
  void Wait();

  /// Runs fn(0..n-1) across the pool and waits for all of them. Safe to
  /// call from a non-worker thread only.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  size_t num_threads() const { return threads_.size(); }
  /// Total successful steals since construction. Shim over the
  /// per-worker runtime stats (the pre-profiler counter this grew from);
  /// live even with FF_PROFILING=OFF.
  uint64_t steals() const;

  /// Worker index of the calling thread, or SIZE_MAX if it is not a
  /// worker of this pool. Lets instrumented callers (sweep replicas)
  /// attribute work to the worker that ran it.
  size_t caller_worker_index() const { return CallerWorkerIndex(); }

  /// Snapshot of per-worker runtime counters since construction. Timing
  /// fields (run/idle ns, task histograms, depth gauges, steal-fails)
  /// are zero with FF_PROFILING=OFF; the successful-steal and task-run
  /// event counters are always live. Subtract two snapshots with
  /// PoolRuntimeProfile::Since to profile a window.
  obs::PoolRuntimeProfile RuntimeProfile() const;

  static size_t DefaultThreads();

 private:
  friend class TaskGroup;

  void WorkerLoop(size_t index);
  /// Parks worker `index` on work_cv_ until `wake()` holds; `lock` holds
  /// mu_. Counts the park and, with profiling compiled in, its idle time
  /// (park_start_ns_ marks an ongoing park for RuntimeProfile()).
  template <typename Wake>
  void Park(std::unique_lock<std::mutex>& lock, size_t index, Wake wake);
  /// One scan for work: own deque, global queue (unless `isolated`),
  /// then every other deque.
  std::function<void()>* FindWork(size_t index, bool isolated = false);
  /// Runs and frees `task`, accounting it to worker `index` (SIZE_MAX
  /// for the rare external helper with no worker identity).
  void RunTask(std::function<void()>* task, size_t index);
  /// Worker index of the calling thread, or npos if it is not a worker
  /// of this pool.
  size_t CallerWorkerIndex() const;

  Options options_;
  std::vector<std::unique_ptr<TaskDeque>> deques_;
  std::vector<std::thread> threads_;
  // One stats block per worker, heap-separated (alignas(64) + unique
  // ownership) so workers never false-share counters.
  std::vector<std::unique_ptr<obs::WorkerRuntimeStats>> worker_stats_;
  int64_t start_ns_ = 0;  // RuntimeNowNs() at construction (0 when off)
  // Per worker: RuntimeNowNs() when its ongoing park began, 0 when it is
  // not parked (under mu_).
  std::vector<int64_t> park_start_ns_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;      // workers park here
  std::condition_variable not_full_cv_;  // producers park here
  std::condition_variable idle_cv_;      // Wait() parks here
  std::deque<std::function<void()>*> global_;  // bounded by max_queue
  uint64_t work_signal_ = 0;  // bumped on every enqueue (missed-wake guard)
  // TaskGroup waiters parked on work_cv_. They may not take external
  // work, so an external Submit wakes everyone while any is parked.
  size_t isolated_parked_ = 0;
  size_t global_peak_ = 0;    // high-water mark of global_ (under mu_)
  bool stop_ = false;

  std::atomic<size_t> pending_{0};
};

/// A countable subset of a pool's tasks that can be waited on from
/// anywhere — including from inside another task of the same pool (see
/// the nested-submission/wait contract on ThreadPool). Unlike
/// ThreadPool::Wait(), which waits for *every* pending task, a TaskGroup
/// waits only for the tasks submitted through it, so independent groups
/// (e.g. concurrent sweep replicas each fanning out query morsels) do
/// not serialize on each other.
///
///   TaskGroup group(&pool);
///   for (...) group.Submit([&] { ... });
///   group.Wait();  // steals/helps if called from a pool worker
///
/// Not thread-safe for concurrent Submit/Wait from multiple threads on
/// the *same* group object beyond the obvious: Submit may race with
/// other Submits, but Wait must be called after all Submits that should
/// be covered have been issued (by the same thread or synchronized-with
/// it). The group must outlive its tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn` on the pool, counted against this group.
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted to this group has finished. From
  /// a worker of the owning pool this runs other worker-spawned tasks
  /// (help-first: own deque, then steal; never the external queue)
  /// instead of blocking, so nested waits cannot deadlock the pool.
  void Wait();

  /// Runs fn(0..n-1) via this group and waits. Unlike
  /// ThreadPool::ParallelFor this is safe from inside a pool task.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  ThreadPool* pool_;
  std::atomic<size_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable done_cv_;  // external (non-worker) waiters
};

}  // namespace parallel
}  // namespace ff

#endif  // FF_PARALLEL_THREAD_POOL_H_

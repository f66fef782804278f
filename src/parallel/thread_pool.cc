#include "parallel/thread_pool.h"

#include "util/logging.h"

namespace ff {
namespace parallel {

namespace {
// Which pool (if any) owns the current thread; lets Submit route a
// worker's own submissions onto its deque instead of the bounded queue.
thread_local ThreadPool* tl_pool = nullptr;
thread_local size_t tl_worker = 0;
}  // namespace

// ---------------------------------------------------------------------------
// TaskDeque — Chase & Lev's circular deque, C11 orderings per Le et al.

TaskDeque::TaskDeque() : array_(new RingArray(64)) {}

TaskDeque::~TaskDeque() {
  // By now no thief is running; drain anything never executed.
  RingArray* a = array_.load(std::memory_order_relaxed);
  int64_t t = top_.load(std::memory_order_relaxed);
  int64_t b = bottom_.load(std::memory_order_relaxed);
  for (int64_t i = t; i < b; ++i) delete a->Get(i);
  delete a;
}

void TaskDeque::PushBottom(Task* task) {
  int64_t b = bottom_.load(std::memory_order_relaxed);
  int64_t t = top_.load(std::memory_order_acquire);
  RingArray* a = array_.load(std::memory_order_relaxed);
  if (b - t > static_cast<int64_t>(a->capacity) - 1) {
    a = Grow(a, t, b);
  }
  a->Put(b, task);
  std::atomic_thread_fence(std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_relaxed);
}

TaskDeque::Task* TaskDeque::PopBottom() {
  int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  RingArray* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_relaxed);
  // The fence orders the bottom_ publication against the top_ read below;
  // this is the owner's half of the owner/thief race on the last element.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  int64_t t = top_.load(std::memory_order_relaxed);
  Task* task = nullptr;
  if (t <= b) {
    task = a->Get(b);
    if (t == b) {
      // One element left: race thieves for it via the top_ CAS.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;  // a thief got there first
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);  // was empty
  }
  return task;
}

TaskDeque::Task* TaskDeque::StealTop() {
  int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return nullptr;
  RingArray* a = array_.load(std::memory_order_acquire);
  Task* task = a->Get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // owner's pop or another thief won index t
  }
  return task;
}

size_t TaskDeque::ApproxSize() const {
  int64_t b = bottom_.load(std::memory_order_relaxed);
  int64_t t = top_.load(std::memory_order_relaxed);
  return b > t ? static_cast<size_t>(b - t) : 0;
}

TaskDeque::RingArray* TaskDeque::Grow(RingArray* array, int64_t top,
                                      int64_t bottom) {
  auto* bigger = new RingArray(array->capacity * 2);
  for (int64_t i = top; i < bottom; ++i) bigger->Put(i, array->Get(i));
  array_.store(bigger, std::memory_order_release);
  retired_.emplace_back(array);  // thieves may still hold a pointer
  return bigger;
}

// ---------------------------------------------------------------------------
// ThreadPool

size_t ThreadPool::DefaultThreads() {
  size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool() : ThreadPool(Options{}) {}

ThreadPool::ThreadPool(size_t num_threads)
    : ThreadPool(Options{num_threads, 1024}) {}

ThreadPool::ThreadPool(Options options) : options_(options) {
  size_t n = options_.num_threads == 0 ? DefaultThreads()
                                       : options_.num_threads;
  FF_CHECK(options_.max_queue > 0) << "thread pool needs a non-empty queue";
  deques_.reserve(n);
  worker_stats_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<TaskDeque>());
    worker_stats_.push_back(std::make_unique<obs::WorkerRuntimeStats>());
  }
  if constexpr (obs::kProfilingCompiledIn) {
    start_ns_ = obs::RuntimeNowNs();
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  not_full_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  auto* task = new std::function<void()>(std::move(fn));
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (tl_pool == this) {
    // Worker-spawned task: lock-free push onto the worker's own deque;
    // the bounded queue (and its backpressure) is for external producers.
    deques_[tl_worker]->PushBottom(task);
    if constexpr (obs::kProfilingCompiledIn) {
      // Owner is the only writer of its peak gauge; plain max is exact.
      auto& ws = *worker_stats_[tl_worker];
      const uint64_t depth = deques_[tl_worker]->ApproxSize();
      if (depth > ws.deque_peak.load(std::memory_order_relaxed)) {
        ws.deque_peak.store(depth, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++work_signal_;
    work_cv_.notify_one();
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  not_full_cv_.wait(lock, [&] {
    return global_.size() < options_.max_queue || stop_;
  });
  FF_CHECK(!stop_) << "Submit on a stopping ThreadPool";
  global_.push_back(task);
  if constexpr (obs::kProfilingCompiledIn) {
    if (global_.size() > global_peak_) global_peak_ = global_.size();
  }
  ++work_signal_;
  // notify_one could pick a parked TaskGroup waiter, which may not take
  // this task, and leave an idle worker asleep.
  if (isolated_parked_ > 0) {
    work_cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  FF_CHECK(tl_pool != this) << "ParallelFor from a pool worker would "
                               "deadlock in Wait";
  if (n == 0) return;
  // Fan out from inside a worker: a single root task submits the rest,
  // which lands them on that worker's own deque — the calling thread
  // would otherwise funnel everything through the bounded global queue
  // and the work-stealing deques would sit idle. The root runs index 0
  // itself while the other workers steal. References are safe to
  // capture: Wait() holds this frame alive until every task finished.
  Submit([this, n, &fn] {
    for (size_t i = 1; i < n; ++i) {
      Submit([&fn, i] { fn(i); });
    }
    fn(0);
  });
  Wait();
}

std::function<void()>* ThreadPool::FindWork(size_t index, bool isolated) {
  if (auto* task = deques_[index]->PopBottom()) return task;
  if (!isolated) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!global_.empty()) {
      auto* task = global_.front();
      global_.pop_front();
      not_full_cv_.notify_one();
      return task;
    }
  }
  size_t n = deques_.size();
  uint64_t fails = 0;  // empty/lost StealTop attempts this scan
  for (size_t k = 1; k < n; ++k) {
    if (auto* task = deques_[(index + k) % n]->StealTop()) {
      auto& ws = *worker_stats_[index];
      ws.steals.fetch_add(1, std::memory_order_relaxed);
      if constexpr (obs::kProfilingCompiledIn) {
        if (fails > 0) {
          ws.steal_fails.fetch_add(fails, std::memory_order_relaxed);
        }
      }
      return task;
    }
    ++fails;
  }
  if constexpr (obs::kProfilingCompiledIn) {
    if (fails > 0) {
      worker_stats_[index]->steal_fails.fetch_add(fails,
                                                  std::memory_order_relaxed);
    }
  }
  return nullptr;
}

void ThreadPool::RunTask(std::function<void()>* task, size_t index) {
  if (index != static_cast<size_t>(-1)) {
    // The task COUNT is an event counter like `steals` — one relaxed
    // fetch_add, live even with FF_PROFILING=OFF. Only the clock reads
    // and the histogram are profiling hooks.
    auto& ws = *worker_stats_[index];
    if constexpr (obs::kProfilingCompiledIn) {
      const int64_t t0 = obs::RuntimeNowNs();
      (*task)();
      const uint64_t dt = static_cast<uint64_t>(obs::RuntimeNowNs() - t0);
      ws.run_ns.fetch_add(dt, std::memory_order_relaxed);
      ws.task_ns.Record(dt);
    } else {
      (*task)();
    }
    ws.tasks_run.fetch_add(1, std::memory_order_relaxed);
  } else {
    (*task)();
  }
  delete task;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last pending task: wake Wait(). Lock so the notify cannot slip
    // between a waiter's predicate check and its wait.
    std::lock_guard<std::mutex> lock(mu_);
    idle_cv_.notify_all();
  }
}

size_t ThreadPool::CallerWorkerIndex() const {
  return tl_pool == this ? tl_worker : static_cast<size_t>(-1);
}

uint64_t ThreadPool::steals() const {
  uint64_t n = 0;
  for (const auto& w : worker_stats_) {
    n += w->steals.load(std::memory_order_relaxed);
  }
  return n;
}

obs::PoolRuntimeProfile ThreadPool::RuntimeProfile() const {
  obs::PoolRuntimeProfile p;
  p.num_threads = threads_.size();
  if constexpr (obs::kProfilingCompiledIn) {
    p.lifetime_ns = static_cast<uint64_t>(obs::RuntimeNowNs() - start_ns_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    p.global_queue_depth = global_.size();
    p.global_queue_peak = global_peak_;
  }
  p.workers.resize(worker_stats_.size());
  for (size_t i = 0; i < worker_stats_.size(); ++i) {
    const obs::WorkerRuntimeStats& ws = *worker_stats_[i];
    obs::WorkerRuntimeSnapshot& out = p.workers[i];
    out.tasks_run = ws.tasks_run.load(std::memory_order_relaxed);
    out.run_ns = ws.run_ns.load(std::memory_order_relaxed);
    out.idle_ns = ws.idle_ns.load(std::memory_order_relaxed);
    out.parks = ws.parks.load(std::memory_order_relaxed);
    out.steals = ws.steals.load(std::memory_order_relaxed);
    out.steal_fails = ws.steal_fails.load(std::memory_order_relaxed);
    out.deque_peak = ws.deque_peak.load(std::memory_order_relaxed);
    out.deque_depth = deques_[i]->ApproxSize();
    out.task_ns = ws.task_ns.Snap();
  }
  return p;
}

void ThreadPool::WorkerLoop(size_t index) {
  tl_pool = this;
  tl_worker = index;
  for (;;) {
    if (auto* task = FindWork(index)) {
      RunTask(task, index);
      continue;
    }
    uint64_t sig;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      sig = work_signal_;
    }
    // A task enqueued after the failed scan above bumps work_signal_, so
    // re-scanning once with the pre-scan signal in hand closes the
    // missed-wakeup window.
    if (auto* task = FindWork(index)) {
      RunTask(task, index);
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if constexpr (obs::kProfilingCompiledIn) {
      auto& ws = *worker_stats_[index];
      ws.parks.fetch_add(1, std::memory_order_relaxed);
      const int64_t t0 = obs::RuntimeNowNs();
      work_cv_.wait(lock, [&] { return stop_ || work_signal_ != sig; });
      ws.idle_ns.fetch_add(static_cast<uint64_t>(obs::RuntimeNowNs() - t0),
                           std::memory_order_relaxed);
    } else {
      work_cv_.wait(lock, [&] { return stop_ || work_signal_ != sig; });
    }
    if (stop_) return;
  }
}

// ---------------------------------------------------------------------------
// TaskGroup

void TaskGroup::Submit(std::function<void()> fn) {
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  // The wrapper must not read this->pool_ after the group-section below:
  // once outstanding_ hits zero a concurrent Wait() may return and the
  // group may be destroyed, so the pool pointer is captured by value.
  ThreadPool* pool = pool_;
  pool_->Submit([this, pool, fn = std::move(fn)] {
    fn();
    bool last;
    {
      // Decrement under mu_ so a waiter that observes zero and then
      // takes mu_ cannot destroy the group while this section runs.
      std::lock_guard<std::mutex> lock(mu_);
      last = outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1;
      if (last) done_cv_.notify_all();
    }
    if (last) {
      // Wake helpers parked on the pool's work signal (they wait for
      // "new work OR group done"; group completion enqueues nothing, so
      // bump the signal the same way an enqueue would).
      std::lock_guard<std::mutex> lock(pool->mu_);
      ++pool->work_signal_;
      pool->work_cv_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  auto done = [&] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  };
  // Handshake with the final task's decrement section: after observing
  // zero, take mu_ once so we cannot return (and let the group die)
  // while that task is still between its decrement and its notify.
  auto sync_and_return = [&] { std::lock_guard<std::mutex> lock(mu_); };
  size_t idx = pool_->CallerWorkerIndex();
  if (idx == static_cast<size_t>(-1)) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, done);
    return;
  }
  // Worker of the owning pool: help-first, isolated. Run worker-spawned
  // tasks (ours, other groups' — all drain the pool and so make progress
  // toward this group's completion) but never the external queue (see
  // the contract on ThreadPool), and only park when no such task is
  // runnable, using WorkerLoop's signal-snapshot pattern to close the
  // missed-wake window against both new enqueues and the
  // group-completion bump in Submit.
  for (;;) {
    if (done()) return sync_and_return();
    if (auto* task = pool_->FindWork(idx, /*isolated=*/true)) {
      pool_->RunTask(task, idx);
      continue;
    }
    uint64_t sig;
    {
      std::lock_guard<std::mutex> lock(pool_->mu_);
      sig = pool_->work_signal_;
    }
    if (done()) return sync_and_return();
    if (auto* task = pool_->FindWork(idx, /*isolated=*/true)) {
      pool_->RunTask(task, idx);
      continue;
    }
    std::unique_lock<std::mutex> lock(pool_->mu_);
    ++pool_->isolated_parked_;
    if constexpr (obs::kProfilingCompiledIn) {
      // A helping worker parked here is idle from the pool's point of
      // view, same as a WorkerLoop park.
      auto& ws = *pool_->worker_stats_[idx];
      ws.parks.fetch_add(1, std::memory_order_relaxed);
      const int64_t t0 = obs::RuntimeNowNs();
      pool_->work_cv_.wait(lock, [&] {
        return pool_->work_signal_ != sig || done();
      });
      ws.idle_ns.fetch_add(static_cast<uint64_t>(obs::RuntimeNowNs() - t0),
                           std::memory_order_relaxed);
    } else {
      pool_->work_cv_.wait(lock, [&] {
        return pool_->work_signal_ != sig || done();
      });
    }
    --pool_->isolated_parked_;
  }
}

void TaskGroup::ParallelFor(size_t n,
                            const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // References are safe to capture: Wait() holds this frame alive until
  // every task has finished.
  if (pool_->CallerWorkerIndex() != static_cast<size_t>(-1)) {
    // Already on a worker: submissions land lock-free on its own deque
    // and are visible to thieves; run index 0 inline.
    for (size_t i = 1; i < n; ++i) {
      Submit([&fn, i] { fn(i); });
    }
    fn(0);
    Wait();
    return;
  }
  // External thread: a single root task fans out from inside the pool
  // (same trick as ThreadPool::ParallelFor) so the per-worker deques see
  // the work instead of the bounded global queue.
  Submit([this, n, &fn] {
    for (size_t i = 1; i < n; ++i) {
      Submit([&fn, i] { fn(i); });
    }
    fn(0);
  });
  Wait();
}

}  // namespace parallel
}  // namespace ff

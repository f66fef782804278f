#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace ff {
namespace parallel {
namespace {

TEST(TaskDequeTest, OwnerPopsLifoThiefStealsFifo) {
  TaskDeque dq;
  std::vector<int> ran;
  for (int i = 0; i < 4; ++i) {
    dq.PushBottom(new TaskDeque::Task([&ran, i] { ran.push_back(i); }));
  }
  // A thief takes the oldest task...
  TaskDeque::Task* stolen = dq.StealTop();
  ASSERT_NE(stolen, nullptr);
  (*stolen)();
  delete stolen;
  EXPECT_EQ(ran, std::vector<int>({0}));
  // ...while the owner drains newest-first.
  while (TaskDeque::Task* t = dq.PopBottom()) {
    (*t)();
    delete t;
  }
  EXPECT_EQ(ran, std::vector<int>({0, 3, 2, 1}));
  EXPECT_EQ(dq.PopBottom(), nullptr);
  EXPECT_EQ(dq.StealTop(), nullptr);
}

TEST(TaskDequeTest, GrowsPastInitialCapacity) {
  TaskDeque dq;
  std::atomic<int> sum{0};
  constexpr int kTasks = 5000;  // far beyond the initial ring size
  for (int i = 0; i < kTasks; ++i) {
    dq.PushBottom(new TaskDeque::Task([&sum] { sum.fetch_add(1); }));
  }
  int popped = 0;
  while (TaskDeque::Task* t = dq.PopBottom()) {
    (*t)();
    delete t;
    ++popped;
  }
  EXPECT_EQ(popped, kTasks);
  EXPECT_EQ(sum.load(), kTasks);
}

// Owner pushes and occasionally pops while thieves hammer StealTop: every
// task must execute exactly once (the each-task-runs-once guarantee is
// exactly what the PopBottom/StealTop CAS race protects).
TEST(TaskDequeTest, ConcurrentStealFuzzRunsEachTaskOnce) {
  constexpr int kThieves = 3;
  constexpr int kTasks = 20000;
  TaskDeque dq;
  std::vector<std::atomic<int>> ran(kTasks);
  for (auto& r : ran) r.store(0);
  std::atomic<bool> done{false};
  std::atomic<int> executed{0};

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (TaskDeque::Task* task = dq.StealTop()) {
          (*task)();
          delete task;
          executed.fetch_add(1);
        }
      }
      // Final drain so nothing is stranded between done and empty.
      while (TaskDeque::Task* task = dq.StealTop()) {
        (*task)();
        delete task;
        executed.fetch_add(1);
      }
    });
  }

  util::Rng rng(7);
  for (int i = 0; i < kTasks; ++i) {
    dq.PushBottom(new TaskDeque::Task([&ran, &executed, i] {
      ran[static_cast<size_t>(i)].fetch_add(1);
    }));
    if (rng.UniformInt(0, 3) == 0) {
      if (TaskDeque::Task* task = dq.PopBottom()) {
        (*task)();
        delete task;
        executed.fetch_add(1);
      }
    }
  }
  while (TaskDeque::Task* task = dq.PopBottom()) {
    (*task)();
    delete task;
    executed.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(executed.load(), kTasks);
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
  pool.Wait();
}

TEST(ThreadPoolTest, WorkerSpawnedTasksRecurse) {
  // Tasks that spawn tasks land on the spawning worker's own deque; a
  // binary fan-out to 255 leaves checks that path (and Wait's pending
  // accounting) end to end.
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    pool.Submit([&spawn, depth] { spawn(depth - 1); });
    pool.Submit([&spawn, depth] { spawn(depth - 1); });
  };
  pool.Submit([&spawn] { spawn(7); });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 128);
}

TEST(ThreadPoolTest, BoundedQueueBackpressureStillRunsEverything) {
  ThreadPool::Options opt;
  opt.num_threads = 2;
  opt.max_queue = 4;  // external submits must block, not drop
  ThreadPool pool(opt);
  std::atomic<int> count{0};
  for (int i = 0; i < 300; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 300);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 50);
  }
}

// Shutdown fuzz: pools of varying width live for one randomly sized
// burst of recursively spawning tasks and are destroyed immediately
// after; the destructor must drain (Wait) then join without losing or
// double-running work.
TEST(ThreadPoolTest, StealShutdownFuzz) {
  util::Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    size_t width = static_cast<size_t>(rng.UniformInt(1, 4));
    int roots = static_cast<int>(rng.UniformInt(1, 40));
    int children = static_cast<int>(rng.UniformInt(0, 8));
    std::atomic<int> count{0};
    {
      ThreadPool pool(width);
      for (int i = 0; i < roots; ++i) {
        pool.Submit([&pool, &count, children] {
          count.fetch_add(1);
          for (int c = 0; c < children; ++c) {
            pool.Submit([&count] { count.fetch_add(1); });
          }
        });
      }
      // No explicit Wait: the destructor owns the drain.
    }
    EXPECT_EQ(count.load(), roots * (1 + children)) << "round " << round;
  }
}

TEST(ThreadPoolTest, StealsAreCountedWhenThievesDrainAnIdleOwner) {
  // Force steals deterministically: a root task parks its worker after
  // filling its own deque, so every enqueued task can only run via
  // another worker's StealTop.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<bool> release{false};
  pool.Submit([&] {
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (count.load(std::memory_order_acquire) < 64) {
    std::this_thread::yield();
  }
  release.store(true, std::memory_order_release);
  pool.Wait();
  EXPECT_EQ(count.load(), 64);
  EXPECT_GE(pool.steals(), 64u);
}

TEST(TaskGroupTest, WaitFromExternalThreadScopesToOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> grouped{0};
  std::atomic<bool> release{false};
  // An unrelated long-running pool task must not hold up the group wait.
  pool.Submit([&] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.Submit([&grouped] { grouped.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(grouped.load(), 32);
  release.store(true, std::memory_order_release);
  pool.Wait();
}

TEST(TaskGroupTest, NestedParallelForInsideAPoolTask) {
  // Pool-wide ParallelFor/Wait would deadlock (and FF_CHECK) on a worker
  // thread; TaskGroup::ParallelFor is the sanctioned nested form — this
  // is the shape of a morsel-parallel statsdb query issued from inside a
  // sweep replica. Fuzz a few rounds to shake out lost-wakeup races.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> inner_sum{0};
    TaskGroup outer(&pool);
    outer.ParallelFor(4, [&](size_t) {
      TaskGroup inner(&pool);
      inner.ParallelFor(16, [&](size_t j) {
        inner_sum.fetch_add(static_cast<int>(j) + 1);
      });
      // inner.Wait() ran inside ParallelFor; all 16 indices done here.
    });
    EXPECT_EQ(inner_sum.load(), 4 * (16 * 17 / 2)) << "round " << round;
  }
  pool.Wait();
}

// Work isolation: a worker waiting on its TaskGroup helps only with work
// spawned inside the pool (its own deque, steals). A task that arrives
// through the external submission queue meanwhile is left for a free
// worker. The served statsdb relies on this: a worker holding a
// session's read lock never starts another session's frame.
TEST(TaskGroupTest, WaitOnAWorkerNeverStartsAnExternallySubmittedTask) {
  ThreadPool pool(2);
  std::atomic<bool> morsel_started{false}, waiting{false};
  std::atomic<bool> external_ran{false}, ran_inside_wait{false};
  std::atomic<std::thread::id> waiter{};
  pool.Submit([&] {
    TaskGroup group(&pool);
    // Lands on this worker's deque; the idle worker steals it and keeps
    // the group open until the external task has run (or a grace period
    // passed), so this worker's Wait finds nothing of its own to do.
    group.Submit([&] {
      morsel_started = true;
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
      while (!external_ran && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (!morsel_started) std::this_thread::yield();
    waiter = std::this_thread::get_id();
    waiting = true;
    group.Wait();
    waiting = false;
  });
  while (!waiting) std::this_thread::yield();
  pool.Submit([&] {
    if (waiting && std::this_thread::get_id() == waiter.load()) {
      ran_inside_wait = true;
    }
    external_ran = true;
  });
  pool.Wait();
  EXPECT_TRUE(external_ran.load());
  EXPECT_FALSE(ran_inside_wait.load())
      << "a TaskGroup wait on a worker started an external task";
}

// The other half of isolation: a helper that may not take external work
// must not swallow the wakeup meant for an idle worker that can.
TEST(TaskGroupTest, ExternalTaskWakesAnIdleWorkerWhileAnotherHelps) {
  ThreadPool pool(3);
  std::atomic<bool> morsel_started{false}, waiting{false};
  std::atomic<bool> external_ran{false};
  pool.Submit([&] {
    TaskGroup group(&pool);
    group.Submit([&] {
      morsel_started = true;
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!external_ran && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    while (!morsel_started) std::this_thread::yield();
    waiting = true;
    group.Wait();
  });
  while (!waiting) std::this_thread::yield();
  // Let the helper park before the external task arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  pool.Submit([&] { external_ran = true; });
  while (!external_ran && std::chrono::steady_clock::now() - t0 <
                              std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  pool.Wait();
  EXPECT_LT(ms, 5000.0) << "the idle worker was never woken";
}

TEST(TaskGroupTest, DestructorWaitsAndGroupsAreReusableSequentially) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 8; ++batch) {
    TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Submit([&count] { count.fetch_add(1); });
    }
    // No explicit Wait: the destructor owns the barrier.
  }
  EXPECT_EQ(count.load(), 8 * 16);
}

}  // namespace
}  // namespace parallel
}  // namespace ff

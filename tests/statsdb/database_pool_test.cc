// A Database's parallelism is the pool its config names: no pool, or a
// pool of one thread, runs every query serially (a pool of more threads
// fans out: parallel_bits_test). A Database without a pool keeps no
// mutable state of its own, so const queries may run from several
// threads at once (the CI TSan job runs this suite).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/column_store.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/planner.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

constexpr size_t kChunks = 5;  // above the default min_chunks (4)

const char kGroupAgg[] =
    "SELECT node, COUNT(*) AS n, SUM(walltime) AS w FROM runs "
    "GROUP BY node";

class DatabasePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Sql("CREATE TABLE runs (node TEXT, walltime DOUBLE)")
                    .ok());
    auto table = db_.table("runs");
    ASSERT_TRUE(table.ok());
    Table::BulkAppender app(*table);
    for (size_t r = 0; r < kChunks * kChunkRows; ++r) {
      app.String(r % 3 == 0 ? "f1" : "f2")
          .Double(0.25 * static_cast<double>(r));
      ASSERT_TRUE(app.EndRow().ok());
    }
    ASSERT_TRUE(app.Finish().ok());
    db_.set_cache_config(CacheConfig{});  // every call runs the engine
    auto plan = PlanSql(kGroupAgg);
    ASSERT_TRUE(plan.ok()) << plan.status();
    plan_ = *plan;
  }

  /// The engine that ran `plan_` under the database's current config.
  std::string Engine() {
    obs::QueryProfile profile;
    auto rs = ExecutePlan(plan_, db_, &profile);
    EXPECT_TRUE(rs.ok()) << rs.status();
    return profile.engine;
  }

  Database db_;
  PlanPtr plan_;
};

TEST_F(DatabasePoolTest, NoPoolOrOneThreadPoolRunsSerially) {
  ASSERT_EQ(db_.parallel_config().pool, nullptr);
  EXPECT_EQ(Engine(), "serial");
  parallel::ThreadPool pool(1);
  ParallelConfig cfg;
  cfg.pool = &pool;
  db_.set_parallel_config(cfg);
  EXPECT_EQ(Engine(), "serial");
  db_.set_parallel_config(ParallelConfig{});
}

TEST_F(DatabasePoolTest, ConcurrentConstQueriesWithoutPool) {
  // The reference bypasses ExecutePlan, so the two threads below make
  // the database's first ExecutePlan calls.
  auto expected = ExecuteColumnar(*OptimizePlan(plan_, db_), db_);
  ASSERT_TRUE(expected.ok()) << expected.status();
  const std::string csv = expected->ToCsv();
  const Database& db = db_;
  constexpr int kThreads = 2;
  constexpr int kCalls = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        auto rs = ExecutePlan(plan_, db);
        if (!rs.ok() || rs->ToCsv() != csv) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

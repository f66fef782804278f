// Two-tier query cache (statsdb/cache.h): table epochs, plan tier,
// result tier, prepared statements, and concurrency.
//
// Every test pins the cache mode explicitly via set_cache_config — the
// FF_STATSDB_CACHE environment variable only seeds the Database
// constructor, and CI runs this binary under several values of it.
// The correctness contract under test: with caching on, every result
// (rows, row order, error text) is byte-identical to cache-off.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"
#include "util/rng.h"

namespace ff {
namespace statsdb {
namespace {

CacheConfig FullConfig() {
  CacheConfig cfg;
  cfg.mode = CacheConfig::Mode::kFull;
  return cfg;
}

CacheConfig PlanOnlyConfig() {
  CacheConfig cfg;
  cfg.mode = CacheConfig::Mode::kPlanOnly;
  return cfg;
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.Sql("CREATE TABLE runs (forecast TEXT, day INT, wall DOUBLE)")
            .ok());
    ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES ('till', 1, 10.0), "
                        "('dev', 2, 20.0), ('till', 3, 30.0)")
                    .ok());
    db_.set_cache_config(FullConfig());
  }

  ResultSet Run(const std::string& sql) {
    auto rs = db_.Sql(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? *rs : ResultSet{};
  }

  Table* runs() {
    auto t = db_.table("runs");
    EXPECT_TRUE(t.ok());
    return *t;
  }

  Database db_;
};

// ------------------------------------------------------------- epochs --

TEST_F(CacheTest, EveryWritePathBumpsTheDataEpoch) {
  Table* t = runs();
  uint64_t e = t->epoch();

  ASSERT_TRUE(t->Insert(Row{Value::String("x"), Value::Int64(4),
                            Value::Double(40.0)})
                  .ok());
  EXPECT_GT(t->epoch(), e) << "Insert must bump";
  e = t->epoch();

  ASSERT_TRUE(t->UpdateCell(0, 2, Value::Double(11.0)).ok());
  EXPECT_GT(t->epoch(), e) << "UpdateCell must bump";
  e = t->epoch();

  ASSERT_TRUE(t->DeleteRows({3}).ok());
  EXPECT_GT(t->epoch(), e) << "DeleteRows must bump";
  e = t->epoch();

  // Deleting nothing changes nothing and must not invalidate.
  ASSERT_TRUE(t->DeleteRows({}).ok());
  EXPECT_EQ(t->epoch(), e) << "empty DeleteRows must not bump";

  Table::BulkAppender app(t);
  app.String("y").Int64(5).Double(50.0);
  ASSERT_TRUE(app.EndRow().ok());
  EXPECT_GT(t->epoch(), e) << "BulkAppender::EndRow must bump";
  e = t->epoch();
  ASSERT_TRUE(app.Finish().ok());

  // SQL write statements ride the same paths.
  ASSERT_TRUE(db_.Sql("UPDATE runs SET wall = wall + 1 WHERE day = 5").ok());
  EXPECT_GT(t->epoch(), e);
  e = t->epoch();
  ASSERT_TRUE(db_.Sql("DELETE FROM runs WHERE day = 5").ok());
  EXPECT_GT(t->epoch(), e);
}

TEST_F(CacheTest, DdlEpochIsSeparateFromDataEpoch) {
  Table* t = runs();
  uint64_t data = t->epoch();
  uint64_t ddl = t->ddl_epoch();
  ASSERT_TRUE(t->CreateIndex("forecast").ok());
  EXPECT_GT(t->ddl_epoch(), ddl) << "CreateIndex must bump the ddl epoch";
  EXPECT_EQ(t->epoch(), data) << "CreateIndex must not bump the data epoch";
}

TEST_F(CacheTest, EpochsAreNeverReusedAcrossDropAndRecreate) {
  Table* t = runs();
  uint64_t old_epoch = t->epoch();
  ASSERT_TRUE(db_.DropTable("runs").ok());
  ASSERT_TRUE(db_.Sql("CREATE TABLE runs (forecast TEXT, day INT, "
                      "wall DOUBLE)")
                  .ok());
  // The global counter guarantees the recreated (empty!) table cannot
  // alias a result cached against the old incarnation.
  EXPECT_GT(runs()->epoch(), old_epoch);
}

// ---------------------------------------------------------- plan tier --

TEST_F(CacheTest, RepeatStatementHitsThePlanCache) {
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  ResultSet first = Run(kSql);
  ResultSet second = Run(kSql);
  EXPECT_EQ(first.ToCsv(), second.ToCsv());
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.plan_entries, 1u);
}

TEST_F(CacheTest, WhitespaceAndCommentsDoNotKeySeparatePlans) {
  Run("SELECT forecast FROM runs WHERE day = 1");
  Run("  SELECT   forecast\n FROM runs  -- same statement\n WHERE day = 1");
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
}

TEST_F(CacheTest, ExplainSharesThePlanEntryWithItsSelect) {
  Run("SELECT forecast FROM runs WHERE day = 1");
  Run("EXPLAIN SELECT forecast FROM runs WHERE day = 1");
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_misses, 1u);
  EXPECT_EQ(s.plan_hits, 1u);
}

TEST_F(CacheTest, DataWritesDoNotInvalidatePlans) {
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  Run(kSql);
  ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES ('z', 9, 90.0)").ok());
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.plan_invalidations, 0u);
}

TEST_F(CacheTest, DdlInvalidatesAffectedPlans) {
  const char kSql[] = "SELECT forecast FROM runs WHERE forecast = 'till'";
  Run(kSql);
  // CREATE INDEX changes what OptimizePlan would produce (index probe
  // annotation), so the cached plan must die.
  ASSERT_TRUE(runs()->CreateIndex("forecast").ok());
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_hits, 0u);
  EXPECT_EQ(s.plan_invalidations, 1u);
  EXPECT_EQ(s.plan_misses, 2u);
}

TEST_F(CacheTest, CatalogChangesInvalidateAllPlans) {
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  Run(kSql);
  ASSERT_TRUE(db_.Sql("CREATE TABLE other (a INT)").ok());
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_hits, 0u);
  EXPECT_EQ(s.plan_invalidations, 1u);
}

TEST_F(CacheTest, PlanEntryCapEvicts) {
  CacheConfig cfg = FullConfig();
  cfg.plan_entries = 2;
  db_.set_cache_config(cfg);
  Run("SELECT forecast FROM runs WHERE day = 1");
  Run("SELECT forecast FROM runs WHERE day = 2");
  Run("SELECT forecast FROM runs WHERE day = 3");
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_entries, 2u);
  EXPECT_EQ(s.plan_evictions, 1u);
}

// -------------------------------------------------------- result tier --

TEST_F(CacheTest, RepeatStatementHitsTheResultCache) {
  const char kSql[] = "SELECT forecast, wall FROM runs WHERE day = 1";
  ResultSet first = Run(kSql);
  ResultSet second = Run(kSql);
  EXPECT_EQ(first.ToCsv(), second.ToCsv());
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.result_misses, 1u);
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_entries, 1u);
  EXPECT_GT(s.result_bytes, 0u);
}

TEST_F(CacheTest, AnyWriteToAReferencedTableInvalidatesItsResults) {
  const char kSql[] = "SELECT COUNT(*) AS n FROM runs";
  ResultSet before = Run(kSql);
  EXPECT_EQ(before.rows[0][0].int64_value(), 3);
  ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES ('new', 7, 70.0)").ok());
  ResultSet after = Run(kSql);
  EXPECT_EQ(after.rows[0][0].int64_value(), 4)
      << "stale cached COUNT served after a write";
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.result_hits, 0u);
  EXPECT_EQ(s.result_invalidations, 1u);
  EXPECT_EQ(s.result_misses, 2u);
}

TEST_F(CacheTest, WritesToUnreferencedTablesDoNotInvalidate) {
  ASSERT_TRUE(db_.Sql("CREATE TABLE other (a INT)").ok());
  const char kSql[] = "SELECT COUNT(*) AS n FROM runs";
  Run(kSql);
  ASSERT_TRUE(db_.Sql("INSERT INTO other VALUES (1)").ok());
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_invalidations, 0u);
}

TEST_F(CacheTest, PlanOnlyModeBypassesTheResultTier) {
  db_.set_cache_config(PlanOnlyConfig());
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  Run(kSql);
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.result_hits, 0u);
  EXPECT_EQ(s.result_entries, 0u);
  EXPECT_EQ(s.result_bypasses, 2u);
}

TEST_F(CacheTest, OffModeBypassesBothTiers) {
  db_.set_cache_config(CacheConfig{});  // mode defaults to kOff
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  ResultSet first = Run(kSql);
  ResultSet second = Run(kSql);
  EXPECT_EQ(first.ToCsv(), second.ToCsv());
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_bypasses, 2u);
  EXPECT_EQ(s.result_bypasses, 2u);
  EXPECT_EQ(s.plan_entries, 0u);
  EXPECT_EQ(s.result_entries, 0u);
}

TEST_F(CacheTest, ErrorsAreNeverCached) {
  const char kBad[] = "SELECT nope FROM runs";
  auto first = db_.Sql(kBad);
  auto second = db_.Sql(kBad);
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().ToString(), second.status().ToString());
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.result_entries, 0u);
  EXPECT_EQ(s.result_hits, 0u);
}

TEST_F(CacheTest, ByteBudgetEvictsAndNeverStoresOversizedResults) {
  CacheConfig cfg = FullConfig();
  cfg.result_bytes = 2048;
  db_.set_cache_config(cfg);
  // Distinct statements -> distinct result entries; each result is a
  // handful of rows, so several fit but not all.
  for (int day = 0; day < 64; ++day) {
    Run("SELECT forecast, wall FROM runs WHERE day <= " +
        std::to_string(day));
  }
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_GT(s.result_evictions, 0u);
  EXPECT_LE(s.result_bytes, 2048u);

  // A result bigger than the whole budget is skipped, not stored.
  cfg.result_bytes = 1;
  db_.set_cache_config(cfg);
  db_.cache().Clear();
  Run("SELECT forecast FROM runs");
  EXPECT_EQ(db_.cache().Stats().result_entries, 0u);
}

TEST_F(CacheTest, ConfigSwapKeepsEntriesAndClearDropsThem) {
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  Run(kSql);
  db_.set_cache_config(CacheConfig{});  // off...
  db_.set_cache_config(FullConfig());   // ...and back on: still warm
  Run(kSql);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.plan_hits, 1u);
  EXPECT_EQ(s.result_hits, 1u);
  db_.cache().Clear();
  s = db_.cache().Stats();
  EXPECT_EQ(s.plan_entries, 0u);
  EXPECT_EQ(s.result_entries, 0u);
}

TEST_F(CacheTest, CachedResultsAreByteIdenticalToCacheOff) {
  const std::vector<std::string> kQueries = {
      "SELECT * FROM runs",
      "SELECT forecast, AVG(wall) AS w FROM runs GROUP BY forecast "
      "ORDER BY forecast",
      "SELECT DISTINCT forecast FROM runs ORDER BY forecast DESC",
      "SELECT wall FROM runs WHERE day BETWEEN 1 AND 2 ORDER BY wall",
  };
  // Warm the cache, then compare a hit against a cache-off run.
  for (const auto& q : kQueries) Run(q);
  for (const auto& q : kQueries) {
    ResultSet warm = Run(q);
    db_.set_cache_config(CacheConfig{});
    ResultSet off = Run(q);
    db_.set_cache_config(FullConfig());
    EXPECT_EQ(warm.ToCsv(), off.ToCsv()) << q;
  }
  EXPECT_GT(db_.cache().Stats().result_hits, 0u);
}

// ------------------------------------------------- prepared statements --

TEST_F(CacheTest, PreparedStatementBindsAndReuses)
{
  auto ps = db_.Prepare("SELECT wall FROM runs WHERE day = ? ORDER BY wall");
  ASSERT_TRUE(ps.ok()) << ps.status();
  EXPECT_EQ(ps->num_params(), 1u);

  auto r1 = ps->Execute({Value::Int64(1)});
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_EQ(r1->rows.size(), 1u);
  EXPECT_EQ(r1->rows[0][0].double_value(), 10.0);

  // Rebinding must not serve the previous binding's result.
  auto r2 = ps->Execute({Value::Int64(2)});
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r2->rows[0][0].double_value(), 20.0);

  // Re-executing the first binding hits its own result entry.
  auto r3 = ps->Execute({Value::Int64(1)});
  ASSERT_TRUE(r3.ok()) << r3.status();
  EXPECT_EQ(r3->ToCsv(), r1->ToCsv());
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_EQ(s.result_hits, 1u);
  EXPECT_EQ(s.result_misses, 2u);
}

TEST_F(CacheTest, PreparedStatementChecksParameterCount) {
  auto ps = db_.Prepare("SELECT wall FROM runs WHERE day = ?");
  ASSERT_TRUE(ps.ok());
  auto r = ps->Execute({});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("parameter"), std::string::npos);
  EXPECT_FALSE(ps->Execute({Value::Int64(1), Value::Int64(2)}).ok());
}

TEST_F(CacheTest, PreparedStatementInvalidatedByWritesLikeAnyResult) {
  auto ps = db_.Prepare("SELECT COUNT(*) AS n FROM runs WHERE day = ?");
  ASSERT_TRUE(ps.ok());
  auto before = ps->Execute({Value::Int64(7)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows[0][0].int64_value(), 0);
  ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES ('new', 7, 70.0)").ok());
  auto after = ps->Execute({Value::Int64(7)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].int64_value(), 1);
}

TEST_F(CacheTest, ParameterlessPrepareSharesThePlanTier) {
  const char kSql[] = "SELECT forecast FROM runs WHERE day = 1";
  Run(kSql);
  auto ps = db_.Prepare(kSql);
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps->num_params(), 0u);
  EXPECT_EQ(db_.cache().Stats().plan_hits, 1u);
  auto r = ps->Execute({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToCsv(), Run(kSql).ToCsv());
}

TEST_F(CacheTest, PlaceholdersOutsidePrepareAreParseErrors) {
  auto rs = db_.Sql("SELECT wall FROM runs WHERE day = ?");
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().ToString().find("prepared"), std::string::npos);
  EXPECT_FALSE(db_.Prepare("INSERT INTO runs VALUES ('x', 1, ?)").ok());
}

// ------------------------------------------------------ exact LRU --
//
// Eviction picks the entry with the oldest recency stamp in both tiers.
// These tests drive QueryCache directly with synthetic keys and compare
// the surviving fingerprints against exact least-recently-used order.

QueryCache::ResultKey SyntheticKey(uint64_t fp) {
  QueryCache::ResultKey key;
  key.cacheable = true;
  key.key = QueryCache::Key{fp, ~fp};
  key.epochs = {{"t", 1}};
  return key;
}

/// Reference LRU: fingerprints, least recently used first.
struct LruModel {
  size_t cap;
  std::vector<uint64_t> order;

  bool Has(uint64_t fp) const {
    return std::find(order.begin(), order.end(), fp) != order.end();
  }
  void Use(uint64_t fp) {
    order.erase(std::remove(order.begin(), order.end(), fp), order.end());
    order.push_back(fp);
  }
  void Put(uint64_t fp) {
    Use(fp);
    Shrink();
  }
  void Shrink() {
    while (order.size() > cap) order.erase(order.begin());
  }
};

TEST(CacheLruTest, ResultTierEvictsTheLeastRecentlyUsed) {
  CacheConfig cfg = FullConfig();
  cfg.result_entries = 4;
  QueryCache cache(cfg);
  ResultSet rs;
  auto put = [&](uint64_t fp) { cache.PutResult(SyntheticKey(fp), rs); };
  auto get = [&](uint64_t fp) {
    return cache.GetResult(SyntheticKey(fp)) != nullptr;
  };
  for (uint64_t fp = 1; fp <= 4; ++fp) put(fp);
  ASSERT_TRUE(get(1));
  ASSERT_TRUE(get(3));  // recency, oldest first: 2 4 1 3
  put(2);               // replaced in place:       4 1 3 2
  put(5);               // evicts 4
  put(6);               // evicts 1
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.result_entries, 4u);
  EXPECT_EQ(s.result_evictions, 2u);
  EXPECT_FALSE(get(1));
  EXPECT_FALSE(get(4));
  // Probing in this order leaves recency 2 3 5 6.
  for (uint64_t fp : {2, 3, 5, 6}) EXPECT_TRUE(get(fp)) << fp;

  cfg.result_entries = 2;
  cache.set_config(cfg);  // a smaller cap evicts 2 and 3
  EXPECT_EQ(cache.Stats().result_entries, 2u);
  EXPECT_FALSE(get(2));
  EXPECT_FALSE(get(3));
  EXPECT_TRUE(get(5));
  EXPECT_TRUE(get(6));

  cache.Clear();
  put(7);
  put(8);
  ASSERT_TRUE(get(7));
  put(9);  // evicts 8
  EXPECT_FALSE(get(8));
  EXPECT_TRUE(get(7));
  EXPECT_TRUE(get(9));
  EXPECT_FALSE(get(5));
}

TEST(CacheLruTest, PlanTierEvictsTheLeastRecentlyUsed) {
  Database db;
  ASSERT_TRUE(db.Sql("CREATE TABLE t (a INT)").ok());
  CacheConfig cfg = FullConfig();
  cfg.plan_entries = 2;
  QueryCache cache(cfg);
  PlanPtr plan = MakeScan("t");
  auto put = [&](uint64_t fp) {
    cache.PutPlan(QueryCache::Key{fp, ~fp}, db, plan);
  };
  auto get = [&](uint64_t fp) {
    return cache.GetPlan(QueryCache::Key{fp, ~fp}, db) != nullptr;
  };
  put(1);
  put(2);
  ASSERT_TRUE(get(1));
  put(3);  // evicts 2
  put(1);  // replaced in place: recency 3 1
  put(4);  // evicts 3
  EXPECT_EQ(cache.Stats().plan_evictions, 2u);
  EXPECT_FALSE(get(2));
  EXPECT_FALSE(get(3));
  EXPECT_TRUE(get(1));
  EXPECT_TRUE(get(4));
}

// A long random mix of stores (new and in place), hits, misses, cap
// changes and clears: every lookup hits exactly when the reference LRU
// still holds the fingerprint.
TEST(CacheLruTest, RandomTrafficMatchesAReferenceLru) {
  CacheConfig cfg = FullConfig();
  cfg.result_entries = 8;
  QueryCache cache(cfg);
  LruModel model{8, {}};
  ResultSet rs;
  util::Rng rng(0x1e5);
  for (int i = 0; i < 5000; ++i) {
    const auto fp = static_cast<uint64_t>(rng.UniformInt(1, 24));
    const int64_t op = rng.UniformInt(0, 99);
    if (op < 45) {
      const bool hit = cache.GetResult(SyntheticKey(fp)) != nullptr;
      ASSERT_EQ(hit, model.Has(fp)) << "op " << i << " fp " << fp;
      if (hit) {
        model.Use(fp);
      } else {
        cache.PutResult(SyntheticKey(fp), rs);
        model.Put(fp);
      }
    } else if (op < 95) {
      cache.PutResult(SyntheticKey(fp), rs);
      model.Put(fp);
    } else if (op < 99) {
      cfg.result_entries = static_cast<size_t>(rng.UniformInt(1, 12));
      cache.set_config(cfg);
      model.cap = cfg.result_entries;
      model.Shrink();
    } else {
      cache.Clear();
      model.order.clear();
    }
    ASSERT_EQ(cache.Stats().result_entries, model.order.size()) << i;
  }
}

// ----------------------------------------------------------- FromEnv --

struct EnvGuard {
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("FF_STATSDB_CACHE");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("FF_STATSDB_CACHE", value, 1);
    } else {
      ::unsetenv("FF_STATSDB_CACHE");
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv("FF_STATSDB_CACHE", saved_.c_str(), 1);
    } else {
      ::unsetenv("FF_STATSDB_CACHE");
    }
  }
  std::string saved_;
  bool had_ = false;
};

TEST(CacheConfigTest, FromEnvParsesModesAndBudgets) {
  {
    EnvGuard g(nullptr);
    EXPECT_EQ(CacheConfig::FromEnv().mode, CacheConfig::Mode::kOff);
  }
  {
    EnvGuard g("off");
    EXPECT_EQ(CacheConfig::FromEnv().mode, CacheConfig::Mode::kOff);
  }
  {
    EnvGuard g("plan");
    EXPECT_EQ(CacheConfig::FromEnv().mode, CacheConfig::Mode::kPlanOnly);
  }
  {
    EnvGuard g("full");
    CacheConfig cfg = CacheConfig::FromEnv();
    EXPECT_EQ(cfg.mode, CacheConfig::Mode::kFull);
    EXPECT_EQ(cfg.result_entries, CacheConfig{}.result_entries);
  }
  {
    EnvGuard g("full:16");
    CacheConfig cfg = CacheConfig::FromEnv();
    EXPECT_EQ(cfg.mode, CacheConfig::Mode::kFull);
    EXPECT_EQ(cfg.result_entries, 16u);
  }
  {
    EnvGuard g("full:16:4096");
    CacheConfig cfg = CacheConfig::FromEnv();
    EXPECT_EQ(cfg.result_entries, 16u);
    EXPECT_EQ(cfg.result_bytes, 4096u);
  }
  {
    EnvGuard g("on");
    EXPECT_EQ(CacheConfig::FromEnv().mode, CacheConfig::Mode::kFull);
  }
  {
    EnvGuard g("nonsense");
    EXPECT_EQ(CacheConfig::FromEnv().mode, CacheConfig::Mode::kOff);
  }
}

// -------------------------------------------------------- concurrency --

// Hammers one QueryCache from many threads: concurrent result Get/Put,
// plan Get/Put, Stats, and eviction pressure (small entry caps force
// constant Put-side eviction scans). Run under the CI TSan lane; the
// assertions are secondary to the data-race check. The cache is
// exercised directly rather than through Database::Sql because the
// Database object itself is documented single-threaded.
TEST(CacheConcurrencyTest, ParallelGetPutStatsIsClean) {
  CacheConfig cfg;
  cfg.mode = CacheConfig::Mode::kFull;
  cfg.plan_entries = 8;
  cfg.result_entries = 8;
  QueryCache cache(cfg);

  Database db;
  ASSERT_TRUE(db.Sql("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Sql("INSERT INTO t VALUES (1), (2), (3)").ok());
  ResultSet canonical = *db.Sql("SELECT a FROM t ORDER BY a");

  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kIters; ++i) {
        // 32 distinct keys against 8 slots: every thread both hits
        // warm entries and forces evictions.
        uint64_t which = static_cast<uint64_t>((i + tid) % 32);
        QueryCache::ResultKey key;
        key.cacheable = true;
        key.key = QueryCache::Key{which + 1, ~which};
        key.epochs = {{"t", 1}};
        auto hit = cache.GetResult(key);
        if (hit) {
          // Concurrent readers may share the stored ResultSet.
          EXPECT_EQ(hit->rows.size(), canonical.rows.size());
        } else {
          cache.PutResult(key, canonical);
        }
        if (i % 16 == 0) (void)cache.Stats();
      }
    });
  }
  for (auto& t : threads) t.join();

  QueryCacheStats s = cache.Stats();
  EXPECT_LE(s.result_entries, 8u);
  EXPECT_GT(s.result_hits + s.result_misses, 0u);
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

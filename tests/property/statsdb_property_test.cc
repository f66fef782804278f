// Property test: randomized SQL SELECTs run through three engines — the
// vectorized engine (planner + exec.h, what production uses), the
// test-only row-at-a-time oracle (tests/oracle), and the same engine
// morsel-parallel (exec.h) at pool sizes 1, 4 and 16.
//
// Vectorized-vs-reference comparison is ordering-insensitive (rendered
// rows are sorted) unless the query has an ORDER BY, in which case row
// order must match too. The parallel engine is held to the stricter
// contract it documents: its CSV output (and any error string) must be
// BYTE-identical to the serial vectorized engine at every pool size.
// The generator only compares columns against literals of a comparable
// type and never divides in predicates: the zone-map/index fast paths
// legitimately skip evaluating rows a full scan would visit, so a
// predicate that errors on skipped rows is a documented divergence
// between access paths, not a bug this test should trip over. A
// prepared statement takes its literal form's access path, so the
// prepared lane holds the two to byte identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "oracle/row_engine.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/plan.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"
#include "util/rng.h"
#include "util/strings.h"

#include "sqlgen.h"

namespace ff {
namespace statsdb {
namespace {

constexpr int kQueries = 300;

class StatsDbPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_NO_FATAL_FAILURE(property::BuildPropertyTables(&db_));
    // Engine-agreement tests must exercise the engines, not the result
    // cache, whatever FF_STATSDB_CACHE says; the cache lane opts in.
    db_.set_cache_config(CacheConfig{});
  }

  // Runs `plan` through the parallel executor at pool sizes 1/4/16 and
  // asserts the result — success CSV or error string — is byte-identical
  // to the serial vectorized engine. min_chunks drops to 2 because the
  // test table is only two chunks (5000 rows); the explicit 4- and
  // 16-thread pools fan out even on a 1-core host, and pool size 1 (no
  // pool) is the serial lane. Shared fixture pools avoid rebuilding
  // threads for each of the 360 statements.
  void ExpectParallelByteIdentical(const PlanPtr& plan,
                                   const std::string& sql) {
    const ParallelConfig serial;  // no pool
    db_.set_parallel_config(serial);
    auto base = ExecutePlan(plan, db_);
    struct Variant {
      size_t threads;
      parallel::ThreadPool* pool;
    };
    const Variant variants[] = {{1, nullptr}, {4, &pool4_}, {16, &pool16_}};
    for (const Variant& v : variants) {
      ParallelConfig cfg;
      cfg.min_chunks = 2;
      cfg.pool = v.pool;
      db_.set_parallel_config(cfg);
      auto par = ExecutePlan(plan, db_);
      ASSERT_EQ(base.ok(), par.ok())
          << sql << "\nthreads=" << v.threads
          << "\nserial: " << base.status().ToString()
          << "\nparallel: " << par.status().ToString();
      if (!base.ok()) {
        ASSERT_EQ(base.status().ToString(), par.status().ToString())
            << sql << "\nthreads=" << v.threads;
        continue;
      }
      ASSERT_EQ(base->ToCsv(), par->ToCsv())
          << sql << "\nthreads=" << v.threads;
    }
    db_.set_parallel_config(serial);
  }

  Database db_;
  parallel::ThreadPool pool4_{4};
  parallel::ThreadPool pool16_{16};
};

TEST_F(StatsDbPropertyTest, EnginesAgreeOnRandomQueries) {
  property::SqlGen gen(0x5eed);
  int executed = 0;
  for (int q = 0; q < kQueries; ++q) {
    bool ordered = false;
    std::string sql = gen.Next(&ordered);
    auto plan = PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    auto ref = ExecuteRowOracle(**plan, db_);
    auto vec = ExecutePlan(*plan, db_);
    ASSERT_EQ(ref.ok(), vec.ok())
        << sql << "\nref: " << ref.status().ToString()
        << "\nvec: " << vec.status().ToString();
    ASSERT_NO_FATAL_FAILURE(ExpectParallelByteIdentical(*plan, sql));
    if (!ref.ok()) continue;  // both failed: loose error agreement
    ++executed;
    ASSERT_EQ(property::Canonical(*ref, ordered), property::Canonical(*vec, ordered)) << sql;
  }
  // The generator should produce overwhelmingly valid queries.
  EXPECT_GT(executed, kQueries * 9 / 10);
}

TEST_F(StatsDbPropertyTest, EnginesAgreeAfterMutations) {
  // Interleave DML with checks: update/delete dirty the zone maps, and
  // subsequent scans must still agree.
  property::SqlGen gen(0xbadc0de);
  ASSERT_TRUE(
      db_.Sql("UPDATE runs SET walltime = 12345.0 WHERE day = 100").ok());
  ASSERT_TRUE(db_.Sql("DELETE FROM runs WHERE day > 350").ok());
  ASSERT_TRUE(
      db_.Sql("INSERT INTO runs VALUES ('till', 400, 'f9', 77.0)").ok());
  for (int q = 0; q < 60; ++q) {
    bool ordered = false;
    std::string sql = gen.Next(&ordered);
    auto plan = PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << sql;
    auto ref = ExecuteRowOracle(**plan, db_);
    auto vec = ExecutePlan(*plan, db_);
    ASSERT_EQ(ref.ok(), vec.ok()) << sql;
    ASSERT_NO_FATAL_FAILURE(ExpectParallelByteIdentical(*plan, sql));
    if (!ref.ok()) continue;
    ASSERT_EQ(property::Canonical(*ref, ordered), property::Canonical(*vec, ordered)) << sql;
  }
}

// Cache lane: every statement the two engine tests draw (300 + 60 =
// 360), re-run with the two-tier cache in full mode at pool sizes
// 1/4/16, with random DML interleaved so epoch invalidation is under
// constant attack. Contract (cache.h): a cache-on run — cold, warm, or
// freshly invalidated — is BYTE-identical to cache-off, rows and error
// text alike. The result cache deliberately survives pool-size changes
// (a serially-computed result may serve a parallel session), so warm
// hits at pool 4/16 often serve bytes first computed at pool 1 — that
// cross-engine serving is exactly what the comparison pins down.
TEST_F(StatsDbPropertyTest, CacheOnMatchesCacheOffAcrossWritesAndPools) {
  CacheConfig off;  // kOff
  CacheConfig full;
  full.mode = CacheConfig::Mode::kFull;

  util::Rng writes(0xcac4e);
  property::SqlGen gen(0x5eed);        // statement stream of EnginesAgree...
  property::SqlGen gen2(0xbadc0de);    // ...and of EnginesAgreeAfterMutations
  uint64_t checked = 0;

  for (int q = 0; q < kQueries + 60; ++q) {
    bool ordered = false;
    std::string sql =
        q < kQueries ? gen.Next(&ordered) : gen2.Next(&ordered);

    struct Variant {
      size_t threads;
      parallel::ThreadPool* pool;
    };
    const Variant variants[] = {{1, nullptr}, {4, &pool4_}, {16, &pool16_}};
    for (const Variant& v : variants) {
      ParallelConfig cfg;
      cfg.min_chunks = 2;
      cfg.pool = v.pool;
      db_.set_parallel_config(cfg);

      db_.set_cache_config(off);
      auto base = db_.Sql(sql);
      db_.set_cache_config(full);
      auto cold = db_.Sql(sql);  // miss (or invalidated): executes
      auto warm = db_.Sql(sql);  // typically a hit: served bytes
      for (const auto* run : {&cold, &warm}) {
        ASSERT_EQ(base.ok(), run->ok())
            << sql << "\nthreads=" << v.threads
            << "\noff: " << base.status().ToString()
            << "\non:  " << run->status().ToString();
        if (base.ok()) {
          ASSERT_EQ(base->ToCsv(), (*run)->ToCsv())
              << sql << "\nthreads=" << v.threads;
        } else {
          ASSERT_EQ(base.status().ToString(), run->status().ToString())
              << sql << "\nthreads=" << v.threads;
        }
      }
      ++checked;
    }

    // Random write interleaving: the next statements must observe the
    // mutation through the cache (epoch mismatch), never stale bytes.
    if (writes.Bernoulli(0.2)) {
      db_.set_cache_config(full);  // write while caching is live
      int day = static_cast<int>(writes.UniformInt(0, 364));
      switch (writes.UniformInt(0, 2)) {
        case 0:
          ASSERT_TRUE(db_.Sql("UPDATE runs SET walltime = " +
                              std::to_string(day) + ".5 WHERE day = " +
                              std::to_string(day))
                          .ok());
          break;
        case 1:
          ASSERT_TRUE(db_.Sql("DELETE FROM runs WHERE day = " +
                              std::to_string(day))
                          .ok());
          break;
        default:
          ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES ('till', " +
                              std::to_string(day) + ", 'f2', 42.0)")
                          .ok());
          break;
      }
    }
  }

  EXPECT_EQ(checked, static_cast<uint64_t>(kQueries + 60) * 3);
  QueryCacheStats s = db_.cache().Stats();
  EXPECT_GT(s.result_hits, 0u) << "lane never exercised a warm hit";
  EXPECT_GT(s.result_invalidations, 0u)
      << "lane never caught an epoch invalidation";
}

// Prepared lane: every statement of the two engine streams with its
// first `forecast|node = '<lit>'` or `day = <int>` conjunct — or, when
// it has none, its first other `column op literal` comparison —
// rewritten to `?`, prepared once and bound to that literal, must return
// the literal statement's CSV or error text byte for byte, at pool sizes
// 1/4/16, with the cache off and full (cold and warm). On the indexed
// columns the rewritten equality is the conjunct the planner serves from
// the hash index, so the lane pins that a prepared statement takes the
// access path of its literal form; the other comparisons drive zone-map
// pruning. The second stream runs after the DML of
// EnginesAgreeAfterMutations, as there.
TEST_F(StatsDbPropertyTest, PreparedMatchesLiteralAcrossPoolsAndCache) {
  CacheConfig off;  // kOff
  CacheConfig full;
  full.mode = CacheConfig::Mode::kFull;
  const std::regex equality(
      "\\b(forecast|node) = ('[^']*')|\\b(day) = (-?[0-9]+)");
  const std::regex comparison(
      "\\b(forecast|node|day|walltime) (=|<>|<=|>=|<|>) "
      "('[^']*'|-?[0-9]+(\\.[0-9]+)?)");

  property::SqlGen gen(0x5eed);
  property::SqlGen gen2(0xbadc0de);
  int equalities = 0, comparisons = 0;
  for (int q = 0; q < kQueries + 60; ++q) {
    if (q == kQueries) {
      db_.set_cache_config(off);
      ASSERT_TRUE(
          db_.Sql("UPDATE runs SET walltime = 12345.0 WHERE day = 100").ok());
      ASSERT_TRUE(db_.Sql("DELETE FROM runs WHERE day > 350").ok());
      ASSERT_TRUE(
          db_.Sql("INSERT INTO runs VALUES ('till', 400, 'f9', 77.0)").ok());
    }
    bool ordered = false;
    const std::string sql =
        q < kQueries ? gen.Next(&ordered) : gen2.Next(&ordered);
    std::smatch m;
    std::string column, op, literal_text;
    if (std::regex_search(sql, m, equality)) {
      const bool is_day = m[3].matched;
      column = is_day ? "day" : m[1].str();
      op = "=";
      literal_text = is_day ? m[4].str() : m[2].str();
      ++equalities;
    } else if (std::regex_search(sql, m, comparison)) {
      column = m[1].str();
      op = m[2].str();
      literal_text = m[3].str();
      ++comparisons;
    } else {
      continue;
    }
    const Value param =
        literal_text[0] == '\''
            ? Value::String(literal_text.substr(1, literal_text.size() - 2))
        : literal_text.find('.') != std::string::npos
            ? Value::Double(std::stod(literal_text))
            : Value::Int64(std::stoll(literal_text));
    const std::string prepared_sql =
        m.prefix().str() + column + " " + op + " ?" + m.suffix().str();
    auto ps = db_.Prepare(prepared_sql);
    ASSERT_TRUE(ps.ok()) << prepared_sql << "\n" << ps.status().ToString();
    ASSERT_EQ(ps->num_params(), 1u) << prepared_sql;

      struct Variant {
      size_t threads;
      parallel::ThreadPool* pool;
    };
    const Variant variants[] = {{1, nullptr}, {4, &pool4_}, {16, &pool16_}};
    for (const Variant& v : variants) {
      ParallelConfig cfg;
      cfg.min_chunks = 2;
      cfg.pool = v.pool;
      db_.set_parallel_config(cfg);
      db_.set_cache_config(off);
      auto literal = db_.Sql(sql);
      auto off_run = ps->Execute({param});
      db_.set_cache_config(full);
      auto cold = ps->Execute({param});
      auto warm = ps->Execute({param});
      for (const auto* run : {&off_run, &cold, &warm}) {
        ASSERT_EQ(literal.ok(), run->ok())
            << sql << "\nprepared: " << prepared_sql
            << "\nthreads=" << v.threads
            << "\nliteral:  " << literal.status().ToString()
            << "\nprepared: " << run->status().ToString();
        if (literal.ok()) {
          ASSERT_EQ(literal->ToCsv(), (*run)->ToCsv())
              << sql << "\nprepared: " << prepared_sql
              << "\nthreads=" << v.threads;
        } else {
          ASSERT_EQ(literal.status().ToString(), run->status().ToString())
              << sql << "\nprepared: " << prepared_sql
              << "\nthreads=" << v.threads;
        }
      }
    }
  }
  std::printf("prepared lane: %d equalities, %d other comparisons\n",
              equalities, comparisons);
  EXPECT_GT(equalities, 30);
  EXPECT_GT(comparisons, 150);
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

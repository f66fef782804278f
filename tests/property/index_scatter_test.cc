// Scattered index scans: one key's rows found through the hash index
// and spread over many chunks, as a forecast's rows are in a day-major
// runs table. The index path reads them in blocks of up to kChunkRows
// matches, each block one batch (and one morsel) however many chunks it
// spans, so the lane sits on block edges: 4095, 4096, 4097 and 8193
// matches, i.e. one block, one full block, a block plus one row, and two
// full blocks plus one row.
//
// Every query runs serially and at pools 4/16 (bit-identical, doubles
// compared by their raw bits) and through the row-at-a-time oracle
// (ExecuteRowOracle). The shapes: an extra conjunct, GROUP BY with AVG
// of doubles, both DISTINCT paths, top-k with few distinct keys so ties
// cross block and morsel edges (also with a limit larger than a block),
// NULL and string sort keys, and top-k over aggregate output. An UPDATE
// that moves rows between keys and a DELETE, both finding their rows
// through the index, must change what a full scan would change.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/runtime_stats.h"
#include "oracle/row_engine.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/column_store.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"
#include "util/rng.h"

#include "sqlgen.h"

namespace ff {
namespace statsdb {
namespace {

const size_t kMatches[] = {4095, 4096, 4097, 8193};

/// Table `s<m>`: m rows of key 'hot', one row in five at random among
/// rows of other keys, so the matches spread over several chunks and
/// neither blocks nor morsels line up with chunks. id is the row id; grp has
/// groups first seen in different chunks; v is a NULL-heavy double; n a
/// NULL-heavy int; tie takes three values; s is a NULL-heavy string.
/// `indexed` builds the hash index on k.
void BuildScatterTable(Database* db, size_t matches, bool indexed) {
  Schema schema({{"id", DataType::kInt64},
                 {"k", DataType::kString},
                 {"grp", DataType::kString},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64},
                 {"tie", DataType::kInt64},
                 {"s", DataType::kString}});
  Table* t = *db->CreateTable("s" + std::to_string(matches), schema);
  util::Rng rng(0x5ca7 + matches);
  const char* words[] = {"coos", "dev", "till", "umpqua", "yaquina"};
  Table::BulkAppender app(t);
  size_t hot = 0;
  for (size_t i = 0; hot < matches; ++i) {
    const bool is_hot = rng.UniformInt(0, 4) == 0;
    hot += is_hot;
    app.Int64(static_cast<int64_t>(i));
    app.String(is_hot ? std::string("hot")
                      : "cold" + std::to_string(rng.UniformInt(0, 3)));
    app.String("g" + std::to_string(i / kChunkRows % 3 + i % 2));
    if (rng.Bernoulli(0.3)) {
      app.Null();
    } else {
      app.Double(rng.Uniform(1.0, 100.0));
    }
    if (rng.Bernoulli(0.4)) {
      app.Null();
    } else {
      app.Int64(rng.UniformInt(-50, 50));
    }
    app.Int64(rng.UniformInt(0, 2));
    if (rng.Bernoulli(0.2)) {
      app.Null();
    } else {
      app.String(words[rng.UniformInt(0, 4)]);
    }
    ASSERT_TRUE(app.EndRow().ok());
  }
  ASSERT_TRUE(app.Finish().ok());
  if (indexed) {
    ASSERT_TRUE(t->CreateIndex("k").ok());
  }
}

struct Shape {
  std::string sql;
  bool ordered;  // rows come in a defined order
};

std::vector<Shape> ScatterQueries(const std::string& t) {
  const std::string hot = " FROM " + t + " WHERE k = 'hot'";
  return {
      {"SELECT id, v" + hot + " AND v > 50", true},
      {"SELECT grp, COUNT(*) AS c, AVG(v) AS av, SUM(v) AS sv" + hot +
           " AND id % 3 <> 1 GROUP BY grp",
       false},
      {"SELECT COUNT(*) AS c, AVG(v) AS av, MIN(s) AS lo, MAX(n) AS hi" +
           hot,
       true},
      {"SELECT DISTINCT grp" + hot + " AND n IS NOT NULL", false},
      {"SELECT DISTINCT tie, s" + hot, false},
      {"SELECT id, tie" + hot + " ORDER BY tie LIMIT 7", true},
      {"SELECT id, tie, v" + hot + " ORDER BY tie DESC, v LIMIT 9", true},
      {"SELECT id, tie" + hot + " AND id % 2 = 0 ORDER BY tie LIMIT 4100",
       true},
      {"SELECT id, n" + hot + " ORDER BY n LIMIT 12", true},
      {"SELECT id, n" + hot + " ORDER BY n DESC LIMIT 12", true},
      {"SELECT id, s" + hot + " ORDER BY s LIMIT 10", true},
      {"SELECT id, s, v" + hot + " ORDER BY s DESC, v LIMIT 11", true},
      {"SELECT grp, COUNT(*) AS c, AVG(v) AS av" + hot +
           " GROUP BY grp ORDER BY av DESC LIMIT 2",
       true},
      {"SELECT tie, COUNT(*) AS c" + hot + " GROUP BY tie ORDER BY c LIMIT 2",
       true},
  };
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

class StatsDbIndexScatterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t m : kMatches) {
      ASSERT_NO_FATAL_FAILURE(BuildScatterTable(&db_, m, /*indexed=*/true));
    }
    db_.set_cache_config(CacheConfig{});  // exercise the engines
  }

  void UsePool(parallel::ThreadPool* pool) {
    ParallelConfig cfg;
    cfg.pool = pool;  // null: serial
    cfg.min_chunks = 2;
    db_.set_parallel_config(cfg);
  }

  /// `shape` serially, at pools 4/16 and through the oracle. An index
  /// scan of more than one block must fan out at pools 4/16; one block
  /// must not.
  void ExpectAgreement(const Shape& shape, size_t matches) {
    SCOPED_TRACE(shape.sql);
    UsePool(nullptr);
    auto plan = PlanSql(shape.sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    auto base = ExecutePlan(*plan, db_);
    ASSERT_TRUE(base.ok()) << base.status();
    ASSERT_FALSE(base->rows.empty());
    auto ref = ExecuteRowOracle(**plan, db_);
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_EQ(property::Canonical(*ref, shape.ordered),
              property::Canonical(*base, shape.ordered));

    for (parallel::ThreadPool* pool : {&pool4_, &pool16_}) {
      SCOPED_TRACE("threads=" + std::to_string(pool->num_threads()));
      UsePool(pool);
      obs::QueryProfile profile;
      auto par = ExecutePlan(*plan, db_, &profile);
      ASSERT_TRUE(par.ok()) << par.status();
      EXPECT_EQ(profile.engine, matches > kChunkRows ? "parallel" : "serial");
      ASSERT_EQ(base->rows.size(), par->rows.size());
      for (size_t r = 0; r < base->rows.size(); ++r) {
        for (size_t c = 0; c < base->rows[r].size(); ++c) {
          const Value& a = base->rows[r][c];
          const Value& b = par->rows[r][c];
          ASSERT_EQ(a.type(), b.type()) << "row " << r << " col " << c;
          if (a.type() == DataType::kDouble) {
            ASSERT_EQ(Bits(a.double_value()), Bits(b.double_value()))
                << "row " << r << " col " << c;
          } else {
            ASSERT_EQ(a.ToString(), b.ToString())
                << "row " << r << " col " << c;
          }
        }
      }
    }
    UsePool(nullptr);
  }

  Database db_;
  parallel::ThreadPool pool4_{4};
  parallel::ThreadPool pool16_{16};
};

TEST_F(StatsDbIndexScatterTest, ScatteredKeysAgreeAcrossPoolsAndOracle) {
  for (size_t m : kMatches) {
    const std::string t = "s" + std::to_string(m);
    // The key really is scattered: its rows span several chunks.
    auto rows = (*db_.table(t))->Lookup("k", Value::String("hot"));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), m);
    EXPECT_GE(rows->back() / kChunkRows - rows->front() / kChunkRows, 3u);
    for (const Shape& shape : ScatterQueries(t)) {
      ASSERT_NO_FATAL_FAILURE(ExpectAgreement(shape, m));
    }
  }
}

TEST_F(StatsDbIndexScatterTest, ScanReadsOneBatchPerBlock) {
  if constexpr (!obs::kProfilingCompiledIn) GTEST_SKIP();
  for (size_t m : kMatches) {
    SCOPED_TRACE(m);
    auto plan = PlanSql("SELECT COUNT(*) AS c FROM s" + std::to_string(m) +
                        " WHERE k = 'hot'");
    ASSERT_TRUE(plan.ok());
    obs::QueryProfile profile;
    ASSERT_TRUE(ExecutePlan(*plan, db_, &profile).ok());
    const obs::OperatorProfile* scan = profile.root.get();
    while (!scan->is_scan && !scan->children.empty()) {
      scan = scan->children[0].get();
    }
    ASSERT_TRUE(scan->is_scan) << profile.Render();
    EXPECT_EQ(scan->batches, (m + kChunkRows - 1) / kChunkRows)
        << profile.Render();
    EXPECT_EQ(scan->index_rows, m) << profile.Render();
  }
}

TEST_F(StatsDbIndexScatterTest, IndexedDmlMatchesAFullScan) {
  // A twin without the index finds the same rows by scanning.
  Database twin;
  twin.set_cache_config(CacheConfig{});
  for (size_t m : kMatches) {
    ASSERT_NO_FATAL_FAILURE(BuildScatterTable(&twin, m, /*indexed=*/false));
  }
  for (size_t m : kMatches) {
    const std::string t = "s" + std::to_string(m);
    SCOPED_TRACE(t);
    const std::string statements[] = {
        // Moves rows between keys: 'hot' loses them, 'cold1' gains them
        // in the middle of its bucket.
        "UPDATE " + t + " SET k = 'cold1', v = v + 1 WHERE k = 'hot' AND "
        "tie = 1",
        "UPDATE " + t + " SET k = 'hot' WHERE k = 'cold1' AND id % 7 = 0",
        "DELETE FROM " + t + " WHERE k = 'hot' AND id % 4 = 0",
    };
    for (const std::string& sql : statements) {
      SCOPED_TRACE(sql);
      // The oracle's count of the rows the WHERE selects.
      const std::string where = sql.substr(sql.find(" WHERE "));
      auto sel = PlanSql("SELECT id FROM " + t + where);
      ASSERT_TRUE(sel.ok());
      auto want = ExecuteRowOracle(**sel, db_);
      ASSERT_TRUE(want.ok()) << want.status();
      auto got = db_.Sql(sql);
      auto scanned = twin.Sql(sql);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(scanned.ok()) << scanned.status();
      EXPECT_EQ(got->ToCsv(), scanned->ToCsv());
      EXPECT_EQ(got->rows[0][0].int64_value(),
                static_cast<int64_t>(want->rows.size()));
      auto all = "SELECT * FROM " + t;
      ASSERT_EQ(db_.Sql(all)->ToCsv(), twin.Sql(all)->ToCsv());
    }
    // The rewritten buckets serve every shape as before.
    const size_t hot =
        (*db_.table(t))->Lookup("k", Value::String("hot"))->size();
    for (const Shape& shape : ScatterQueries(t)) {
      ASSERT_NO_FATAL_FAILURE(ExpectAgreement(shape, hot));
    }
  }
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

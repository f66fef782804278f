// Bit-level determinism lane: the morsel-parallel executor must return
// the serial vectorized engine's result bit for bit — every double
// compared by its raw 64 bits, not by CSV text, whose %.10g rendering
// hides last-bit differences. Runs at pool sizes 1/4/16 with
// min_chunks = 2 over tables that sit on chunk boundaries (4095, 4096,
// 4097 and 8193 rows) and over shapes chosen to expose fold order:
// FP cancellation across chunks (also under a join), NaN-producing
// MIN/MAX, groups first seen in different chunks, DISTINCT on both of
// its code paths, and top-k ties that cross morsels.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/column_store.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"
#include "util/rng.h"

namespace ff {
namespace statsdb {
namespace {

const size_t kSizes[] = {4095, 4096, 4097, 8193};

/// Table `t<rows>`: id; grp, whose groups first appear in different
/// chunks; tag, a 5-value dictionary string; v, a NULL-heavy double; n, a
/// NULL-heavy int; tie, a top-k key with ties in every chunk; w, a double
/// that turns into NaN or 0 under `w * 1e308 * 10 - w * 1e308 * 10`.
void BuildSizedTable(Database* db, size_t rows) {
  Schema schema({{"id", DataType::kInt64},
                 {"grp", DataType::kString},
                 {"tag", DataType::kString},
                 {"v", DataType::kDouble},
                 {"n", DataType::kInt64},
                 {"tie", DataType::kInt64},
                 {"w", DataType::kDouble}});
  Table* t = *db->CreateTable("t" + std::to_string(rows), schema);
  util::Rng rng(0xb175 + rows);
  const char* tags[] = {"till", "dev", "coos", "umpqua", "yaquina"};
  Table::BulkAppender app(t);
  app.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    app.Int64(static_cast<int64_t>(i));
    size_t chunk = i / kChunkRows;
    app.String(i % 7 == 0 ? std::string("shared")
                          : "g" + std::to_string(chunk * 2 + i % 2));
    app.String(tags[rng.UniformInt(0, 4)]);
    if (rng.Bernoulli(0.7)) {
      app.Null();
    } else {
      app.Double(rng.Uniform(-1000.0, 1000.0));
    }
    if (rng.Bernoulli(0.3)) {
      app.Null();
    } else {
      app.Int64(rng.UniformInt(-1000, 1000));
    }
    app.Int64(static_cast<int64_t>(i % 5));
    app.Double(rng.Bernoulli(0.5) ? 1e-300 : rng.Uniform(1.0, 100.0));
    ASSERT_TRUE(app.EndRow().ok());
  }
  ASSERT_TRUE(app.Finish().ok());
}

/// Table `cancel`, three chunks: c holds 1e16 in chunk 0, 1.0 twice in
/// chunk 1 and -1e16 in chunk 2 (NULL elsewhere), all in group g = 0. A
/// row-order sum loses both 1.0s to rounding and ends at 0; per-chunk
/// partial sums keep them and end at 2. Only one fold order is right for
/// both engines. Table `parity` (k, label) names g for the join lane.
void BuildCancelTable(Database* db) {
  Schema schema({{"g", DataType::kInt64}, {"c", DataType::kDouble}});
  Table* t = *db->CreateTable("cancel", schema);
  Table::BulkAppender app(t);
  app.Reserve(3 * kChunkRows);
  for (size_t i = 0; i < 3 * kChunkRows; ++i) {
    app.Int64(static_cast<int64_t>(i % 2));
    if (i == 0) {
      app.Double(1e16);
    } else if (i == kChunkRows || i == kChunkRows + 2) {
      app.Double(1.0);
    } else if (i == 2 * kChunkRows) {
      app.Double(-1e16);
    } else {
      app.Null();
    }
    ASSERT_TRUE(app.EndRow().ok());
  }
  ASSERT_TRUE(app.Finish().ok());
  ASSERT_TRUE(db->Sql("CREATE TABLE parity (k INT, label TEXT)").ok());
  ASSERT_TRUE(
      db->Sql("INSERT INTO parity VALUES (0, 'even'), (1, 'odd')").ok());
}

std::vector<std::string> SizedQueries(const std::string& t) {
  const std::string nan = "w * 1e308 * 10 - w * 1e308 * 10";
  return {
      "SELECT COUNT(*) AS c, COUNT(v) AS cv, SUM(v) AS sv, AVG(v) AS av, "
      "MIN(v) AS lo, MAX(v) AS hi, P95(v) AS p, SUM(n) AS sn, AVG(n) AS an "
      "FROM " + t,
      "SELECT grp, COUNT(*) AS c, SUM(v) AS sv, AVG(v) AS av, MIN(n) AS lo, "
      "MAX(n) AS hi, P95(v) AS p FROM " + t + " GROUP BY grp",
      "SELECT tag, SUM(v) AS sv, AVG(v) AS av FROM " + t +
          " WHERE v IS NOT NULL GROUP BY tag",
      "SELECT MIN(" + nan + ") AS lo, MAX(" + nan + ") AS hi, SUM(" + nan +
          ") AS s FROM " + t,
      "SELECT grp, MIN(" + nan + ") AS lo, MAX(" + nan + ") AS hi FROM " +
          t + " GROUP BY grp",
      "SELECT DISTINCT tag FROM " + t,
      "SELECT DISTINCT tag, grp FROM " + t,
      // From id 4091 on, the winning tie value appears in the first chunk
      // once and in every later chunk many times: ties cross morsels.
      "SELECT id, tie, v FROM " + t + " WHERE id > 4090 ORDER BY tie LIMIT 7",
      "SELECT id, tie, v FROM " + t +
          " WHERE id > 4090 ORDER BY tie DESC LIMIT 9",
      "SELECT id, tag, v FROM " + t + " ORDER BY tag, v DESC LIMIT 11",
  };
}

const char* const kCancelQueries[] = {
    "SELECT SUM(c) AS s, AVG(c) AS a, COUNT(c) AS n FROM cancel",
    "SELECT g, SUM(c) AS s, AVG(c) AS a FROM cancel GROUP BY g",
    // The probe side is collected in parallel and joined serially; the
    // aggregate above the join must still see one batch per chunk. The
    // always-true `g >= 0` lands in the probe scan: a bare Scan is never
    // fanned out.
    "SELECT SUM(c) AS s, AVG(c) AS a FROM cancel JOIN parity ON g = k "
    "WHERE g >= 0",
    "SELECT label, SUM(c) AS s, AVG(c) AS a FROM cancel JOIN parity "
    "ON g = k WHERE g >= 0 GROUP BY label",
};

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// The first node named `name` in `op`'s tree, depth first; null if none.
const obs::OperatorProfile* FindOperator(const obs::OperatorProfile& op,
                                         const std::string& name) {
  if (op.name == name) return &op;
  for (const auto& c : op.children) {
    if (const obs::OperatorProfile* found = FindOperator(*c, name)) {
      return found;
    }
  }
  return nullptr;
}

class StatsDbParallelBitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (size_t rows : kSizes) {
      ASSERT_NO_FATAL_FAILURE(BuildSizedTable(&db_, rows));
    }
    ASSERT_NO_FATAL_FAILURE(BuildCancelTable(&db_));
    db_.set_cache_config(CacheConfig{});  // exercise the engines
  }

  /// Runs `sql` serially, then in parallel at pools 1/4/16, and requires
  /// the same schema, row order and cell bits. With `fans_out` (the scan
  /// keeps two or more chunks) the 4- and 16-thread runs must really run
  /// morsels: their profiled run reports the parallel engine.
  void ExpectBitIdentical(const std::string& sql, bool fans_out = true) {
    const ParallelConfig serial;  // no pool
    db_.set_parallel_config(serial);
    auto base = db_.Sql(sql);
    ASSERT_TRUE(base.ok()) << sql << "\n" << base.status().ToString();
    ASSERT_FALSE(base->rows.empty()) << sql;

    struct Variant {
      size_t threads;
      parallel::ThreadPool* pool;
    };
    const Variant variants[] = {{1, nullptr}, {4, &pool4_}, {16, &pool16_}};
    for (const Variant& var : variants) {
      SCOPED_TRACE(sql + "\nthreads=" + std::to_string(var.threads));
      ParallelConfig cfg;
      cfg.min_chunks = 2;
      cfg.pool = var.pool;
      db_.set_parallel_config(cfg);
      auto par = db_.Sql(sql);
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      if (fans_out && var.threads > 1) {
        auto plan = PlanSql(sql);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        obs::QueryProfile profile;
        ASSERT_TRUE(ExecutePlan(*plan, db_, &profile).ok());
        EXPECT_EQ(profile.engine, "parallel");
      }

      ASSERT_EQ(base->schema.num_columns(), par->schema.num_columns());
      for (size_t c = 0; c < base->schema.num_columns(); ++c) {
        EXPECT_EQ(base->schema.column(c).name, par->schema.column(c).name);
      }
      ASSERT_EQ(base->rows.size(), par->rows.size());
      for (size_t r = 0; r < base->rows.size(); ++r) {
        for (size_t c = 0; c < base->rows[r].size(); ++c) {
          const Value& a = base->rows[r][c];
          const Value& b = par->rows[r][c];
          ASSERT_EQ(a.type(), b.type()) << "row " << r << " col " << c;
          if (a.type() == DataType::kDouble) {
            ASSERT_EQ(Bits(a.double_value()), Bits(b.double_value()))
                << "row " << r << " col " << c << ": " << a.double_value()
                << " vs " << b.double_value();
          } else {
            ASSERT_EQ(a.ToString(), b.ToString())
                << "row " << r << " col " << c;
          }
        }
      }
    }
    db_.set_parallel_config(serial);
  }

  Database db_;
  parallel::ThreadPool pool4_{4};
  parallel::ThreadPool pool16_{16};
};

TEST_F(StatsDbParallelBitsTest, ChunkBoundaryTablesAreBitIdentical) {
  for (size_t rows : kSizes) {
    for (const std::string& sql : SizedQueries("t" + std::to_string(rows))) {
      // 4095 and 4096 rows are one chunk: nothing to fan out, but the
      // serial and single-thread paths must still agree.
      ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(sql, rows > kChunkRows));
    }
  }
}

TEST_F(StatsDbParallelBitsTest, CancellationAcrossChunksIsBitIdentical) {
  for (const char* sql : kCancelQueries) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(sql));
  }
  // Both engines add per-chunk partial sums: 1e16 + 2 - 1e16, over the
  // table and over its join alike.
  for (const char* sql : {kCancelQueries[0], kCancelQueries[2]}) {
    auto rs = db_.Sql(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows[0][0].double_value(), 2.0) << sql;
  }
}

TEST_F(StatsDbParallelBitsTest, MorselRowsCountChainRowsForEveryOp) {
  // The chain under each Parallel[<op>] node counts what the morsels'
  // chains emitted, whatever the op does with it: over a scan that keeps
  // every row that adds up to the table.
  const std::pair<const char*, const char*> cases[] = {
      {"aggregate", "SELECT grp, COUNT(*) AS c FROM t8193 GROUP BY grp"},
      {"distinct", "SELECT DISTINCT tag FROM t8193"},
      {"topk", "SELECT id FROM t8193 ORDER BY tie LIMIT 3"},
      {"collect", "SELECT label, COUNT(*) AS c FROM cancel JOIN parity "
                  "ON g = k WHERE g >= 0 GROUP BY label"},
  };
  const size_t table_rows[] = {8193, 8193, 8193, 3 * kChunkRows};
  for (size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE(cases[i].second);
    ParallelConfig cfg;
    cfg.min_chunks = 2;
    cfg.pool = &pool4_;
    db_.set_parallel_config(cfg);
    auto plan = PlanSql(cases[i].second);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    obs::QueryProfile profile;
    ASSERT_TRUE(ExecutePlan(*plan, db_, &profile).ok());
    ASSERT_NE(profile.root, nullptr);
    const obs::OperatorProfile* unit = FindOperator(
        *profile.root, std::string("Parallel[") + cases[i].first + "]");
    ASSERT_NE(unit, nullptr) << profile.Render();
    ASSERT_EQ(unit->children.size(), 1u) << profile.Render();
    if constexpr (obs::kProfilingCompiledIn) {
      EXPECT_EQ(unit->children[0]->rows_out, table_rows[i])
          << profile.Render();
    }
  }
}

TEST_F(StatsDbParallelBitsTest, MorselsRunOnlyWhenTheOperatorAbovePulls) {
  // LIMIT 0 never pulls its input, so the serial engine never meets the
  // division by zero below it, and neither may the parallel engine: each
  // chain here is drained in full (under an aggregate, a full sort, a
  // DISTINCT, a join's build side) and fans out, but only when pulled.
  const char* const queries[] = {
      "SELECT SUM(id / 0) AS s FROM t8193 LIMIT 0",
      "SELECT id / 0 AS x FROM t8193 ORDER BY x LIMIT 0",
      "SELECT DISTINCT id / 0 AS x FROM t8193 LIMIT 0",
      "SELECT label FROM parity JOIN cancel ON k = g WHERE g / 0 > 1 "
      "LIMIT 0",
  };
  struct Variant {
    size_t threads;
    parallel::ThreadPool* pool;
  };
  const Variant variants[] = {{1, nullptr}, {4, &pool4_}, {16, &pool16_}};
  for (const char* sql : queries) {
    for (const Variant& var : variants) {
      SCOPED_TRACE(std::string(sql) +
                   "\nthreads=" + std::to_string(var.threads));
      ParallelConfig cfg;
      cfg.min_chunks = 2;
      cfg.pool = var.pool;
      db_.set_parallel_config(cfg);
      auto rs = db_.Sql(sql);
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_TRUE(rs->rows.empty());
    }
  }
}

TEST_F(StatsDbParallelBitsTest, NanLaneFoldsNanNextToZero) {
  // The NaN queries only pin the Merge sequence if the fold sees both
  // values: under Value::Compare, whether NaN or 0 wins MIN/MAX depends
  // on fold order. Small w yields 0, large w yields inf - inf = NaN.
  const std::string nan = "w * 1e308 * 10 - w * 1e308 * 10";
  auto zero = db_.Sql("SELECT SUM(" + nan + ") AS s FROM t8193 WHERE w < 1");
  auto nans = db_.Sql("SELECT SUM(" + nan + ") AS s FROM t8193 WHERE w > 1");
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  ASSERT_TRUE(nans.ok()) << nans.status().ToString();
  EXPECT_EQ(zero->rows[0][0].double_value(), 0.0);
  EXPECT_TRUE(std::isnan(nans->rows[0][0].double_value()));
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

// Tests for the DML extensions (UPDATE / DELETE) and predicate sugar
// (IN / BETWEEN), motivated by the paper's §4.3.2 database maintenance:
// patching the incomplete statistics of in-flight forecasts.

#include <gtest/gtest.h>

#include "statsdb/database.h"
#include "statsdb/sql.h"

namespace ff {
namespace statsdb {
namespace {

class SqlDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Sql("CREATE TABLE runs (forecast TEXT, day INT, "
                        "walltime DOUBLE, status TEXT)")
                    .ok());
    ASSERT_TRUE(db_.Sql("INSERT INTO runs VALUES "
                        "('till', 1, 40000.0, 'completed'), "
                        "('till', 2, 41000.0, 'completed'), "
                        "('till', 3, NULL, 'running'), "
                        "('dev', 1, 60000.0, 'completed'), "
                        "('dev', 2, NULL, 'running'), "
                        "('coos', 5, 20000.0, 'completed')")
                    .ok());
  }

  int64_t Count(const std::string& where) {
    auto rs = db_.Sql("SELECT COUNT(*) AS n FROM runs WHERE " + where);
    EXPECT_TRUE(rs.ok()) << rs.status();
    return rs.ok() ? rs->Scalar()->int64_value() : -1;
  }

  Database db_;
};

TEST_F(SqlDmlTest, UpdatePatchesInFlightRun) {
  // The §4.3.2 maintenance path: the run script completes and patches
  // its own row.
  auto rs = db_.Sql(
      "UPDATE runs SET walltime = 42500.0, status = 'completed' "
      "WHERE forecast = 'till' AND day = 3");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 1);  // rows_updated
  EXPECT_EQ(Count("status = 'running'"), 1);   // only dev day 2 left
  auto check = db_.Sql(
      "SELECT walltime FROM runs WHERE forecast = 'till' AND day = 3");
  ASSERT_TRUE(check.ok());
  EXPECT_DOUBLE_EQ(check->rows[0][0].double_value(), 42500.0);
}

TEST_F(SqlDmlTest, UpdateWithComputedExpression) {
  // Walltimes rescaled in place (e.g. correcting a node-speed error).
  auto rs = db_.Sql(
      "UPDATE runs SET walltime = walltime * 2 WHERE forecast = 'till' "
      "AND walltime IS NOT NULL");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 2);
  auto check = db_.Sql(
      "SELECT SUM(walltime) AS s FROM runs WHERE forecast = 'till'");
  ASSERT_TRUE(check.ok());
  EXPECT_DOUBLE_EQ(check->rows[0][0].double_value(), 162000.0);
}

TEST_F(SqlDmlTest, UpdateWithoutWhereTouchesAllRows) {
  auto rs = db_.Sql("UPDATE runs SET status = 'archived'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 6);
  EXPECT_EQ(Count("status = 'archived'"), 6);
}

TEST_F(SqlDmlTest, UpdateUnknownColumnFails) {
  EXPECT_FALSE(db_.Sql("UPDATE runs SET ghost = 1").ok());
  EXPECT_FALSE(db_.Sql("UPDATE runs SET walltime = 'text'").ok());
}

// A statement that fails part-way must leave no trace: every assignment
// is evaluated and type-checked before the first cell is written, so the
// table and its epoch (which keys cached results) stay as they were.
TEST(SqlDmlAtomicity, FailingUpdateWritesNothing) {
  Database db;
  ASSERT_TRUE(db.Sql("CREATE TABLE t (day INT64, x DOUBLE)").ok());
  for (int day = 1; day <= 10; ++day) {
    ASSERT_TRUE(
        db.Sql("INSERT INTO t VALUES (" + std::to_string(day) + ", 0)").ok());
  }
  Table* t = *db.table("t");
  auto before = db.Sql("SELECT * FROM t");
  ASSERT_TRUE(before.ok());
  uint64_t epoch = t->epoch();

  // Row day=2 evaluates to 100 % -3 = 1 before day=5 divides by zero.
  auto rs = db.Sql("UPDATE t SET x = 100 % (day - 5)");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().ToString(), "InvalidArgument: modulo by zero");
  EXPECT_EQ(t->epoch(), epoch);
  auto after = db.Sql("SELECT * FROM t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ToCsv(), before->ToCsv());
}

TEST_F(SqlDmlTest, TypeMismatchUpdateWritesNothing) {
  Table* t = *db_.table("runs");
  auto before = db_.Sql("SELECT * FROM runs");
  ASSERT_TRUE(before.ok());
  uint64_t epoch = t->epoch();
  // The first assignment is valid; the second fails its type check.
  auto rs = db_.Sql("UPDATE runs SET status = 'done', walltime = 'text'");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().ToString(),
            "InvalidArgument: type mismatch updating column walltime");
  EXPECT_EQ(t->epoch(), epoch);
  auto after = db_.Sql("SELECT * FROM runs");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ToCsv(), before->ToCsv());
}

// UPDATE and DELETE match rows with SELECT's scan, so they fail exactly
// when `SELECT * FROM runs WHERE p` fails, with its error — also on an
// empty table, where no row is ever evaluated.
TEST_F(SqlDmlTest, BadWhereFailsLikeSelect) {
  const char* wheres[] = {"day + 1", "ghost = 1", "forecast > 3"};
  for (bool empty : {false, true}) {
    if (empty) {
      ASSERT_TRUE(db_.Sql("DELETE FROM runs").ok());
    }
    for (const char* where : wheres) {
      std::string w = where;
      auto select = db_.Sql("SELECT * FROM runs WHERE " + w);
      if (!empty) {
        EXPECT_FALSE(select.ok()) << w;
      }
      auto update = db_.Sql("UPDATE runs SET day = 0 WHERE " + w);
      auto del = db_.Sql("DELETE FROM runs WHERE " + w);
      EXPECT_EQ(update.status().ToString(), select.status().ToString())
          << w << (empty ? " (empty table)" : "");
      EXPECT_EQ(del.status().ToString(), select.status().ToString())
          << w << (empty ? " (empty table)" : "");
    }
    if (!empty) {
      EXPECT_EQ(Count("day > 0"), 6);
    }
  }
}

TEST_F(SqlDmlTest, DeleteWithPredicate) {
  auto rs = db_.Sql("DELETE FROM runs WHERE status = 'running'");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 2);  // rows_deleted
  EXPECT_EQ(Count("day > 0"), 4);
}

TEST_F(SqlDmlTest, DeleteAllRows) {
  auto rs = db_.Sql("DELETE FROM runs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 6);
  auto all = db_.Sql("SELECT * FROM runs");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->rows.empty());
}

TEST_F(SqlDmlTest, DeleteMaintainsIndexes) {
  auto table = db_.table("runs");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->CreateIndex("forecast").ok());
  ASSERT_TRUE(db_.Sql("DELETE FROM runs WHERE day = 1").ok());
  auto rows = (*table)->Lookup("forecast", Value::String("till"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // days 2 and 3 remain
  for (size_t i : *rows) {
    EXPECT_EQ((*table)->row(i)[0].string_value(), "till");
  }
}

TEST_F(SqlDmlTest, InPredicate) {
  EXPECT_EQ(Count("forecast IN ('till', 'coos')"), 4);
  EXPECT_EQ(Count("day IN (1, 5)"), 3);
  EXPECT_EQ(Count("forecast NOT IN ('till', 'coos')"), 2);
}

TEST_F(SqlDmlTest, BetweenPredicate) {
  EXPECT_EQ(Count("day BETWEEN 1 AND 2"), 4);
  EXPECT_EQ(Count("day NOT BETWEEN 1 AND 2"), 2);
  EXPECT_EQ(Count("walltime BETWEEN 30000 AND 50000"), 2);
}

TEST_F(SqlDmlTest, BetweenBindsTighterThanAnd) {
  // day BETWEEN 1 AND 2 AND forecast = 'till' must parse as
  // (day BETWEEN 1 AND 2) AND (forecast = 'till').
  EXPECT_EQ(Count("day BETWEEN 1 AND 2 AND forecast = 'till'"), 2);
}

TEST_F(SqlDmlTest, InWithExpressionCandidates) {
  EXPECT_EQ(Count("day IN (1 + 1, 10 / 2)"), 3);  // days 2 and 5
}

TEST_F(SqlDmlTest, DeleteWithInAndBetween) {
  auto rs = db_.Sql(
      "DELETE FROM runs WHERE forecast IN ('dev') AND day BETWEEN 1 AND "
      "1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].int64_value(), 1);
  EXPECT_EQ(Count("forecast = 'dev'"), 1);
}

TEST_F(SqlDmlTest, ParseErrors) {
  EXPECT_FALSE(db_.Sql("UPDATE runs").ok());
  EXPECT_FALSE(db_.Sql("UPDATE runs SET").ok());
  EXPECT_FALSE(db_.Sql("DELETE runs").ok());
  EXPECT_FALSE(db_.Sql("SELECT * FROM runs WHERE day NOT 3").ok());
  EXPECT_FALSE(db_.Sql("SELECT * FROM runs WHERE day IN ()").ok());
  EXPECT_FALSE(
      db_.Sql("SELECT * FROM runs WHERE day BETWEEN 1").ok());
}

TEST_F(SqlDmlTest, ParseWriteThenExecuteWriteMatchesSql) {
  // A statement parsed ahead (as the server parses writes before taking
  // its exclusive lock) fails with ExecuteSql's status and, once
  // executed, has ExecuteSql's effect.
  for (const char* bad :
       {"UPDATE runs", "UPDATE runs SET", "DELETE runs", "DROP TABLE runs",
        "INSERT INTO runs VALUES ('x'", "", "CREATE TABLE t (a BLOB)"}) {
    auto parsed = ParseWrite(bad);
    auto direct = db_.Sql(bad);
    ASSERT_FALSE(direct.ok()) << bad;
    auto via = parsed.ok() ? ExecuteWrite(&db_, *parsed)
                           : util::StatusOr<ResultSet>(parsed.status());
    ASSERT_FALSE(via.ok()) << bad;
    EXPECT_EQ(via.status().ToString(), direct.status().ToString()) << bad;
  }
  EXPECT_FALSE(ParseWrite("SELECT * FROM runs").ok());
  EXPECT_FALSE(ParseWrite("EXPLAIN SELECT * FROM runs").ok());

  auto insert =
      ParseWrite("INSERT INTO runs VALUES ('yak', 9, NULL, 'running')");
  auto update = ParseWrite(
      "UPDATE runs SET walltime = 5.0, status = 'completed' WHERE day = 9");
  auto del = ParseWrite("DELETE FROM runs WHERE forecast = 'coos'");
  ASSERT_TRUE(insert.ok() && update.ok() && del.ok());
  auto rs = ExecuteWrite(&db_, *insert);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].int64_value(), 1);
  rs = ExecuteWrite(&db_, *update);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].int64_value(), 1);
  rs = ExecuteWrite(&db_, *del);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->rows[0][0].int64_value(), 1);
  EXPECT_EQ(Count("status = 'completed' AND walltime = 5.0"), 1);
  EXPECT_EQ(Count("forecast = 'coos'"), 0);
}

TEST_F(SqlDmlTest, UpdateUnknownTableNotFound) {
  EXPECT_TRUE(db_.Sql("UPDATE ghost SET x = 1").status().IsNotFound());
  EXPECT_TRUE(db_.Sql("DELETE FROM ghost").status().IsNotFound());
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

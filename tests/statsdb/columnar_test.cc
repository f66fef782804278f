// Vectorized-engine tests: every plan also runs through the row-at-a-time
// oracle (tests/oracle) and results must match exactly, including row
// order (scans, filters and projections preserve input order; pipeline
// breakers emit first-seen / stable-sort order in both engines) and, for
// failing plans, the error message.

#include "statsdb/exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "oracle/row_engine.h"
#include "parallel/thread_pool.h"
#include "statsdb/batch.h"
#include "statsdb/column_store.h"
#include "statsdb/database.h"
#include "statsdb/plan.h"
#include "statsdb/planner.h"
#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

// Rows that span several column chunks so zone maps, bitmap word
// boundaries and chunk slicing all get exercised.
constexpr size_t kRows = 3 * kChunkRows + 137;

class ColumnarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema runs({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"walltime", DataType::kDouble},
                 {"ok", DataType::kBool}});
    Table* t = *db_.CreateTable("runs", runs);
    Table::BulkAppender app(t);
    app.Reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      // "day" ascends, so chunk zone maps partition its range; forecast
      // cycles through a small dictionary.
      app.String(i % 7 == 0 ? "till" : (i % 7 == 1 ? "dev" : "coos"))
          .Int64(static_cast<int64_t>(i));
      if (i % 11 == 3) {
        app.Null();
      } else {
        app.Double(100.0 + static_cast<double>(i % 97));
      }
      app.Bool(i % 3 == 0);
      ASSERT_TRUE(app.EndRow().ok());
    }
    ASSERT_TRUE(app.Finish().ok());
    ASSERT_TRUE(t->CreateIndex("forecast").ok());
  }

  // Like ExpectSameOutcome, for a plan that must succeed.
  void ExpectEngineAgreement(const PlanPtr& plan) {
    auto ref = ExecuteRowOracle(*plan, db_);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ExpectSameOutcome(plan);
  }

  // Runs `plan` through the oracle, the vectorized engine (raw and
  // optimized) and the parallel executor at 4 threads. Each must return
  // the oracle's rows, or fail with the oracle's error message.
  void ExpectSameOutcome(const PlanPtr& plan) {
    auto ref = ExecuteRowOracle(*plan, db_);
    ParallelConfig par;
    par.min_chunks = 2;
    par.pool = &pool_;
    const PlanPtr optimized = OptimizePlan(plan, db_);
    const char* names[] = {"columnar", "optimized", "parallel"};
    util::StatusOr<ResultSet> runs[] = {
        ExecuteColumnar(*plan, db_), ExecutePlan(plan, db_),
        ExecuteColumnar(*optimized, db_, nullptr, &par)};
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE(names[i]);
      const auto& got = runs[i];
      ASSERT_EQ(ref.ok(), got.ok())
          << "oracle: " << ref.status().ToString()
          << "\nengine: " << got.status().ToString();
      if (ref.ok()) {
        EXPECT_EQ(ref->ToCsv(), got->ToCsv());
      } else {
        EXPECT_EQ(ref.status().message(), got.status().message());
      }
    }
  }

  Database db_;
  parallel::ThreadPool pool_{4};
};

ExprPtr Mod(ExprPtr a, ExprPtr b) {
  return Binary(BinaryOp::kMod, std::move(a), std::move(b));
}

TEST_F(ColumnarTest, ScanMatchesReference) {
  ExpectEngineAgreement(MakeScan("runs"));
}

TEST_F(ColumnarTest, FilterAcrossChunks) {
  // Selects a band of days crossing a chunk boundary.
  ExpectEngineAgreement(MakeFilter(
      MakeScan("runs"),
      And(Ge(Col("day"), LitInt(static_cast<int64_t>(kChunkRows) - 10)),
          Lt(Col("day"), LitInt(static_cast<int64_t>(kChunkRows) + 10)))));
}

TEST_F(ColumnarTest, ZonePrunedFilterMatchesReference) {
  // day < 5 lives entirely in chunk 0; chunks 1..3 are zone-pruned.
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"), Lt(Col("day"), LitInt(5))), db_);
  EXPECT_NE(plan->ToString().find("prune=[day]"), std::string::npos);
  auto rs = ExecuteColumnar(*plan, db_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 5u);
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Lt(Col("day"), LitInt(5))));
}

TEST_F(ColumnarTest, ZonePruningNeverPrunesMatches) {
  // Equality probes at chunk edges: first/last row of each chunk.
  for (size_t day : {size_t{0}, kChunkRows - 1, kChunkRows,
                     2 * kChunkRows - 1, kRows - 1}) {
    ExpectEngineAgreement(MakeFilter(
        MakeScan("runs"), Eq(Col("day"), LitInt(static_cast<int64_t>(day)))));
  }
}

TEST_F(ColumnarTest, IndexedEqualityScan) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"), Eq(Col("forecast"), LitString("till"))),
      db_);
  EXPECT_NE(plan->ToString().find("index=forecast"), std::string::npos);
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Eq(Col("forecast"), LitString("till"))));
}

TEST_F(ColumnarTest, IndexWithResidualConjunct) {
  ExpectEngineAgreement(MakeFilter(
      MakeScan("runs"), And(Eq(Col("forecast"), LitString("dev")),
                            Gt(Col("walltime"), LitDouble(150.0)))));
}

TEST_F(ColumnarTest, NullBitmapsAcrossChunks) {
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), IsNull(Col("walltime"))));
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), IsNotNull(Col("walltime"))));
  // NULL predicate rows (walltime NULL) must be dropped, matching WHERE
  // semantics in both engines.
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Gt(Col("walltime"), LitDouble(120.0))));
}

TEST_F(ColumnarTest, StringDictionaryFastPaths) {
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Ne(Col("forecast"), LitString("coos"))));
  // A literal absent from the dictionary matches nothing.
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Eq(Col("forecast"), LitString("ghost"))));
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Like(Col("forecast"), LitString("%o%"))));
}

TEST_F(ColumnarTest, BooleanColumnFilter) {
  ExpectEngineAgreement(MakeFilter(MakeScan("runs"), Col("ok")));
  ExpectEngineAgreement(MakeFilter(MakeScan("runs"), Not(Col("ok"))));
}

TEST_F(ColumnarTest, ProjectComputedAndBareColumns) {
  ExpectEngineAgreement(MakeProject(
      MakeScan("runs"),
      {{Col("forecast"), "f"},
       {Div(Col("walltime"), LitDouble(3600.0)), "hours"},
       {Add(Col("day"), LitInt(1)), "next_day"}}));
}

TEST_F(ColumnarTest, AggregateGlobalAndGrouped) {
  ExpectEngineAgreement(MakeAggregate(
      MakeScan("runs"), {},
      {{AggFunc::kCountStar, nullptr, "n"},
       {AggFunc::kCount, Col("walltime"), "n_done"},
       {AggFunc::kSum, Col("day"), "days"},
       {AggFunc::kAvg, Col("walltime"), "avg_w"},
       {AggFunc::kMin, Col("walltime"), "min_w"},
       {AggFunc::kMax, Col("walltime"), "max_w"}}));
  ExpectEngineAgreement(MakeAggregate(
      MakeScan("runs"), {"forecast"},
      {{AggFunc::kCountStar, nullptr, "n"},
       {AggFunc::kAvg, Col("walltime"), "avg_w"}}));
}

TEST_F(ColumnarTest, AggregateOverEmptyInput) {
  ExpectEngineAgreement(MakeAggregate(
      MakeFilter(MakeScan("runs"), Lt(Col("day"), LitInt(0))), {},
      {{AggFunc::kCountStar, nullptr, "n"},
       {AggFunc::kAvg, Col("walltime"), "a"}}));
}

TEST_F(ColumnarTest, SortFullMatchesReference) {
  ExpectEngineAgreement(MakeSort(
      MakeScan("runs"), {{"forecast", true}, {"walltime", false}}));
}

TEST_F(ColumnarTest, TopKMatchesFullSortThenLimit) {
  // Many ties on walltime: the top-k heap must reproduce the stable
  // sort's tie order exactly.
  PlanPtr plan = MakeLimit(
      MakeSort(MakeScan("runs"), {{"walltime", true}}), 25, 10);
  PlanPtr optimized = OptimizePlan(plan, db_);
  EXPECT_NE(optimized->ToString().find("top=35"), std::string::npos);
  ExpectEngineAgreement(plan);
}

TEST_F(ColumnarTest, TopKLargerThanInput) {
  ExpectEngineAgreement(MakeLimit(
      MakeSort(MakeScan("runs"), {{"day", false}}), kRows + 50, 0));
}

TEST_F(ColumnarTest, LimitOffsetBeyondEnd) {
  ExpectEngineAgreement(MakeLimit(MakeScan("runs"), 10, kRows + 5));
  ExpectEngineAgreement(MakeLimit(MakeScan("runs"), 0, 0));
}

TEST_F(ColumnarTest, DistinctSingleStringColumnFastPath) {
  ExpectEngineAgreement(
      MakeDistinct(MakeProject(MakeScan("runs"), {{Col("forecast"), ""}})));
}

TEST_F(ColumnarTest, DistinctMultiColumn) {
  ExpectEngineAgreement(MakeDistinct(MakeProject(
      MakeScan("runs"), {{Col("forecast"), ""}, {Col("ok"), ""}})));
}

TEST_F(ColumnarTest, HashJoinMatchesReference) {
  Schema nodes({{"forecast", DataType::kString},
                {"prio", DataType::kInt64}});
  Table* n = *db_.CreateTable("prios", nodes);
  ASSERT_TRUE(n->Insert({Value::String("till"), Value::Int64(1)}).ok());
  ASSERT_TRUE(n->Insert({Value::String("dev"), Value::Int64(2)}).ok());
  ExpectEngineAgreement(MakeHashJoin(MakeScan("runs"), MakeScan("prios"),
                                     "forecast", "forecast"));
  // Filter above the join: pushdown splits it across the sides.
  ExpectEngineAgreement(MakeFilter(
      MakeHashJoin(MakeScan("runs"), MakeScan("prios"), "forecast",
                   "forecast"),
      And(Gt(Col("prio"), LitInt(1)), Lt(Col("day"), LitInt(100)))));
}

TEST_F(ColumnarTest, ErrorsMatchReference) {
  // Non-boolean WHERE predicate.
  PlanPtr bad = MakeFilter(MakeScan("runs"), Add(Col("day"), LitInt(1)));
  auto ref = ExecuteRowOracle(*bad, db_);
  auto vec = ExecuteColumnar(*bad, db_);
  auto opt = ExecutePlan(bad, db_);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(vec.ok());
  ASSERT_FALSE(opt.ok());
  EXPECT_EQ(ref.status().message(), vec.status().message());
  EXPECT_EQ(ref.status().message(), opt.status().message());

  // Unknown table surfaces identically.
  EXPECT_TRUE(ExecutePlan(MakeScan("ghost"), db_).status().IsNotFound());
}

TEST_F(ColumnarTest, DivisionByZeroSurfaces) {
  PlanPtr bad = MakeProject(MakeScan("runs"),
                            {{Div(LitInt(1), Sub(Col("day"), Col("day"))),
                              "boom"}});
  auto ref = ExecuteRowOracle(*bad, db_);
  auto vec = ExecuteColumnar(*bad, db_);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(vec.ok());
  EXPECT_EQ(ref.status().message(), vec.status().message());
}

// Pipeline breakers emit exact Values; the expressions above them run
// the same kernels as every other operator. Groups arrive in first-seen
// order: till (1775 rows, days from 0), dev (1775, from 1), coos (8875,
// from 2).
TEST_F(ColumnarTest, ExpressionsOverAggregatesMatchTheOracle) {
  PlanPtr agg = MakeAggregate(MakeScan("runs"), {"forecast"},
                              {{AggFunc::kCountStar, nullptr, "n"},
                               {AggFunc::kSum, Col("day"), "s"},
                               {AggFunc::kMax, Col("walltime"), "hi"}});
  ExpectSameOutcome(MakeProject(
      MakeFilter(agg, Gt(Col("n"), LitInt(1775))),
      {{Col("forecast"), ""},
       {Mod(Col("s"), Sub(Col("n"), LitInt(1))), "r"},
       {Div(Col("hi"), Col("n")), "x"}}));
  // One projection whose two halves fail on different groups: the
  // division fails on till (first), the modulo on coos (last).
  ExpectSameOutcome(MakeProject(
      agg, {{Add(Mod(Col("n"), Sub(Col("n"), LitInt(8875))),
                 Div(Col("n"), Sub(Col("n"), LitInt(1775)))),
             "m"}}));
  // HAVING fails on coos, the projection above it on till: HAVING runs
  // over every group first.
  ExpectSameOutcome(MakeProject(
      MakeFilter(agg, Gt(Mod(Col("s"), Sub(Col("n"), LitInt(8875))),
                         LitInt(0))),
      {{Div(Col("n"), Sub(Col("n"), LitInt(1775))), "m"}}));
}

TEST_F(ColumnarTest, MinMaxRuntimeTypesFeedArithmeticAboveTheAggregate) {
  // lo is int64 and hi double; MIN(NULL) is declared string but every
  // value is NULL, and MAX over the NULL walltimes is NULL.
  auto agg = [](PlanPtr in) {
    return MakeAggregate(std::move(in), {"forecast"},
                         {{AggFunc::kMin, Col("day"), "lo"},
                          {AggFunc::kMax, Col("walltime"), "hi"},
                          {AggFunc::kMin, LitNull(), "none"}});
  };
  PlanPtr all = agg(MakeScan("runs"));
  PlanPtr nulls = agg(MakeFilter(MakeScan("runs"), IsNull(Col("walltime"))));
  for (const PlanPtr& in : {all, nulls}) {
    ExpectSameOutcome(MakeProject(
        in, {{Add(Col("lo"), Col("hi")), "sum"},
             {Mul(Col("lo"), LitInt(2)), "twice"},
             {Sub(Col("hi"), Col("lo")), "span"},
             {IsNull(Col("none")), "none_null"},
             {Eq(Col("none"), LitString("x")), "none_eq"}}));
    // Division by lo fails on till; the modulo fails on coos.
    ExpectSameOutcome(MakeProject(
        in, {{Add(Mod(Col("lo"), Sub(Col("lo"), LitInt(2))),
                  Div(Col("hi"), Col("lo"))),
              "m"}}));
  }
  // Declared types still decide what type-checks.
  ExpectSameOutcome(MakeProject(all, {{Add(Col("none"), LitInt(1)), "x"}}));
}

TEST_F(ColumnarTest, FilterAboveAJoinMatchesTheOracle) {
  Schema nodes({{"forecast", DataType::kString},
                {"prio", DataType::kInt64}});
  Table* n = *db_.CreateTable("prios", nodes);
  ASSERT_TRUE(n->Insert({Value::String("till"), Value::Int64(1)}).ok());
  ASSERT_TRUE(n->Insert({Value::String("dev"), Value::Int64(2)}).ok());
  PlanPtr join = MakeHashJoin(MakeScan("runs"), MakeScan("prios"),
                              "forecast", "forecast");
  // Cross-side conjuncts stay above the join.
  PlanPtr kept = MakeFilter(join, Gt(Add(Col("prio"), Col("day")),
                                     Mul(Col("prio"), LitInt(900))));
  ASSERT_EQ(OptimizePlan(kept, db_)->kind(), PlanKind::kFilter);
  ExpectSameOutcome(kept);
  // The division fails on the first (till) row, the modulo on the
  // second (dev).
  ExpectSameOutcome(MakeFilter(
      join, Gt(Add(Mod(Col("day"), Sub(Col("prio"), LitInt(2))),
                   Div(Col("day"), Sub(Col("prio"), LitInt(1)))),
               LitInt(0))));
}

TEST_F(ColumnarTest, ExpressionsOverDistinctAndSortedOutput) {
  // d = day % 5; the modulo fails where d = 4, the division where d = 2.
  PlanPtr pairs = MakeProject(
      MakeScan("runs"),
      {{Col("forecast"), ""}, {Mod(Col("day"), LitInt(5)), "d"}});
  ExprPtr fails = Add(Mod(Col("d"), Sub(Col("d"), LitInt(4))),
                      Div(Col("d"), Sub(Col("d"), LitInt(2))));
  for (const PlanPtr& in :
       {MakeDistinct(pairs), MakeSort(pairs, {{"d", true}}),
        MakeLimit(MakeSort(pairs, {{"d", true}, {"forecast", false}}), 40,
                  3000)}) {
    ExpectSameOutcome(MakeProject(
        in, {{Col("forecast"), ""},
             {Mul(Col("d"), LitInt(2)), "d2"},
             {Like(Col("forecast"), LitString("c%")), "c"}}));
    ExpectSameOutcome(MakeFilter(in, Gt(Col("d"), LitInt(1))));
    ExpectSameOutcome(MakeProject(in, {{fails, "m"}}));
  }
}

TEST_F(ColumnarTest, UpdatedAndDeletedRowsVisible) {
  // Mutations after the bulk load: zone maps go dirty and must be
  // recomputed before the next scan.
  Table* t = *db_.table("runs");
  ASSERT_TRUE(t->UpdateCell(0, 1, Value::Int64(999999)).ok());
  std::vector<size_t> doomed;
  for (size_t i = 1; i < 64; i += 2) doomed.push_back(i);
  ASSERT_TRUE(t->DeleteRows(std::move(doomed)).ok());
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Gt(Col("day"), LitInt(500000))));
  ExpectEngineAgreement(
      MakeFilter(MakeScan("runs"), Lt(Col("day"), LitInt(64))));
}

TEST_F(ColumnarTest, UpdatedZoneMapsMatchAFoldOverTheCells) {
  // Updates recompute the touched chunks' zones; each must equal a
  // Value::Compare fold over the chunk's cells, NULLs, NaN and strings
  // included. The zones are read straight from the columns right after
  // the writes: the store is taken before them, and no const call
  // refreshes anything.
  Table* t = *db_.table("runs");
  const ColumnStore& store = t->store();
  const double nan = std::nan("");
  struct Edit {
    size_t row, col;
    Value v;
  };
  const std::vector<Edit> edits = {
      {5, 0, Value::String("zzz")},     {6, 0, Value::String("aaa")},
      {kChunkRows, 0, Value::Null()},   {7, 1, Value::Int64(-5)},
      {8, 1, Value::Null()},            {9, 2, Value::Double(nan)},
      {10, 2, Value::Double(-1.5)},     {kChunkRows + 1, 2, Value::Null()},
      {3, 2, Value::Double(2.5)},       {11, 3, Value::Null()},
      {kRows - 1, 3, Value::Bool(true)}, {kRows - 2, 2, Value::Double(nan)}};
  for (const Edit& e : edits) {
    ASSERT_TRUE(t->UpdateCell(e.row, e.col, e.v).ok());
  }
  // A set-oriented UPDATE across chunk boundaries, NULLs written too.
  ASSERT_TRUE(db_.Sql("UPDATE runs SET walltime = NULL, day = day - 7 "
                      "WHERE day >= 4090 AND day < 4100")
                  .ok());
  ASSERT_TRUE(
      db_.Sql("UPDATE runs SET ok = NULL, forecast = 'mid' WHERE day = 9000")
          .ok());
  for (size_t col = 0; col < t->schema().num_columns(); ++col) {
    EXPECT_EQ(store.column(col).null_words.size(), (kRows + 63) / 64)
        << "the null bitmap covers every row";
    for (size_t chunk = 0; chunk < store.num_chunks(); ++chunk) {
      Value lo, hi;
      size_t nulls = 0;
      const size_t end = std::min((chunk + 1) * kChunkRows, kRows);
      for (size_t r = chunk * kChunkRows; r < end; ++r) {
        Value v = store.GetValue(r, col);
        if (v.is_null()) {
          ++nulls;
          continue;
        }
        if (lo.is_null() || v.Compare(lo) < 0) lo = v;
        if (hi.is_null() || v.Compare(hi) > 0) hi = v;
      }
      const ZoneMap& z = store.column(col).zones[chunk];
      SCOPED_TRACE("col " + std::to_string(col) + " chunk " +
                   std::to_string(chunk));
      EXPECT_EQ(z.null_count, nulls);
      EXPECT_EQ(z.min_v.ToString(), lo.ToString());
      EXPECT_EQ(z.max_v.ToString(), hi.ToString());
      EXPECT_EQ(z.min_v.type(), lo.type());
    }
  }
}

TEST_F(ColumnarTest, BatchIteratorStreamsAllRows) {
  PlanPtr plan = MakeScan("runs");
  auto it = BuildIterator(*plan, db_);
  ASSERT_TRUE(it.ok());
  size_t total = 0;
  size_t batches = 0;
  while (true) {
    auto b = (*it)->Next();
    ASSERT_TRUE(b.ok());
    if (*b == nullptr) break;
    total += (*b)->ActiveRows();
    ++batches;
  }
  EXPECT_EQ(total, kRows);
  EXPECT_GE(batches, 4u);  // one per chunk
}

TEST(BulkAppenderTest, TypeMismatchFails) {
  Database db;
  Table* t = *db.CreateTable(
      "t", Schema({{"x", DataType::kInt64}, {"s", DataType::kString}}));
  Table::BulkAppender app(t);
  app.Int64(1).String("a");
  EXPECT_TRUE(app.EndRow().ok());
  app.String("oops").String("b");  // wrong type for column 0
  EXPECT_FALSE(app.EndRow().ok());
  EXPECT_FALSE(app.Finish().ok());  // error is sticky
}

TEST(BulkAppenderTest, ShortRowFails) {
  Database db;
  Table* t = *db.CreateTable(
      "t", Schema({{"x", DataType::kInt64}, {"s", DataType::kString}}));
  Table::BulkAppender app(t);
  app.Int64(1);
  EXPECT_FALSE(app.EndRow().ok());
}

TEST(BulkAppenderTest, NullsAndRowViewRoundTrip) {
  Database db;
  Table* t = *db.CreateTable(
      "t", Schema({{"x", DataType::kInt64}, {"s", DataType::kString}}));
  Table::BulkAppender app(t);
  app.Reserve(2);
  app.Null().String("a");
  ASSERT_TRUE(app.EndRow().ok());
  app.Int64(7).Null();
  ASSERT_TRUE(app.EndRow().ok());
  ASSERT_TRUE(app.Finish().ok());
  ASSERT_EQ(t->rows().size(), 2u);
  EXPECT_TRUE(t->row(0)[0].is_null());
  EXPECT_EQ(t->row(0)[1].string_value(), "a");
  EXPECT_EQ(t->row(1)[0].int64_value(), 7);
  EXPECT_TRUE(t->row(1)[1].is_null());
}

TEST(EvalBatchTest, ConstantFoldAndGather) {
  ColumnVector c = ColumnVector::Constant(Value::Int64(42), 5);
  EXPECT_TRUE(c.is_const);
  EXPECT_EQ(c.length, 5u);
  EXPECT_EQ(c.GetValue(3).int64_value(), 42);

  ColumnVector v;
  v.type = DataType::kInt64;
  v.length = 4;
  v.own_i64 = {10, 20, 30, 40};
  v.SetNull(2);
  v.Seal();
  uint32_t sel[] = {1, 2, 3};
  ColumnVector g = ColumnVector::Gather(v, sel, 3);
  EXPECT_EQ(g.length, 3u);
  EXPECT_EQ(g.GetValue(0).int64_value(), 20);
  EXPECT_TRUE(g.IsNull(1));
  EXPECT_EQ(g.GetValue(2).int64_value(), 40);
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

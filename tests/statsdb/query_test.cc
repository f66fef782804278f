#include "statsdb/query.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "statsdb/database.h"
#include "statsdb/plan.h"
#include "util/rng.h"

namespace ff {
namespace statsdb {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema runs({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"node", DataType::kString},
                 {"walltime", DataType::kDouble}});
    Table* t = *db_.CreateTable("runs", runs);
    struct R {
      const char* f;
      int d;
      const char* n;
      double w;
    };
    for (const R& r : std::initializer_list<R>{
             {"till", 1, "f1", 40000},
             {"till", 2, "f1", 41000},
             {"till", 3, "f2", 39000},
             {"dev", 1, "f2", 60000},
             {"dev", 2, "f2", 62000},
             {"coos", 1, "f3", 20000},
         }) {
      ASSERT_TRUE(t->Insert({Value::String(r.f), Value::Int64(r.d),
                             Value::String(r.n), Value::Double(r.w)})
                      .ok());
    }
    // In-flight run with NULL walltime.
    ASSERT_TRUE(t->Insert({Value::String("coos"), Value::Int64(2),
                           Value::String("f3"), Value::Null()})
                    .ok());

    Schema nodes({{"node", DataType::kString},
                  {"speed", DataType::kDouble}});
    Table* n = *db_.CreateTable("nodes", nodes);
    ASSERT_TRUE(
        n->Insert({Value::String("f1"), Value::Double(1.0)}).ok());
    ASSERT_TRUE(
        n->Insert({Value::String("f2"), Value::Double(1.2)}).ok());
  }

  Database db_;
};

TEST_F(QueryTest, ScanReturnsAllRows) {
  auto rs = Query(&db_, "runs").Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 7u);
  EXPECT_EQ(rs->schema.num_columns(), 4u);
}

TEST_F(QueryTest, ScanUnknownTableFails) {
  EXPECT_TRUE(Query(&db_, "ghost").Run().status().IsNotFound());
}

TEST_F(QueryTest, FilterByEquality) {
  auto rs = Query(&db_, "runs")
                .Filter(Eq(Col("forecast"), LitString("till")))
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(QueryTest, FilterDropsNullPredicateRows) {
  // walltime > 0 is NULL for the in-flight row; it must be excluded.
  auto rs = Query(&db_, "runs")
                .Filter(Gt(Col("walltime"), LitDouble(0.0)))
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 6u);
}

TEST_F(QueryTest, FilterRequiresBooleanPredicate) {
  auto rs = Query(&db_, "runs").Filter(Add(Col("day"), LitInt(1))).Run();
  EXPECT_FALSE(rs.ok());
}

TEST_F(QueryTest, ProjectComputedColumns) {
  auto rs = Query(&db_, "runs")
                .Project({{Col("forecast"), "f"},
                          {Div(Col("walltime"), LitDouble(3600.0)),
                           "hours"}})
                .Filter(Gt(Col("hours"), LitDouble(12.0)))
                .Run();
  ASSERT_TRUE(rs.ok());
  // dev runs: 60000/3600=16.7 and 62000/3600=17.2.
  EXPECT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->schema.column(1).name, "hours");
}

TEST_F(QueryTest, SelectByName) {
  auto rs = Query(&db_, "runs").Select({"node", "day"}).Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->schema.num_columns(), 2u);
  EXPECT_EQ(rs->schema.column(0).name, "node");
}

TEST_F(QueryTest, GlobalAggregate) {
  auto rs = Query(&db_, "runs")
                .Aggregate({}, {{AggFunc::kCountStar, nullptr, "n"},
                                {AggFunc::kAvg, Col("walltime"), "avg_w"},
                                {AggFunc::kMin, Col("walltime"), "min_w"},
                                {AggFunc::kMax, Col("walltime"), "max_w"},
                                {AggFunc::kSum, Col("day"), "days"}})
                .Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].int64_value(), 7);
  // AVG ignores the NULL walltime: (40+41+39+60+62+20)k/6.
  EXPECT_NEAR(rs->rows[0][1].double_value(), 262000.0 / 6, 1e-9);
  EXPECT_DOUBLE_EQ(rs->rows[0][2].double_value(), 20000.0);
  EXPECT_DOUBLE_EQ(rs->rows[0][3].double_value(), 62000.0);
  EXPECT_EQ(rs->rows[0][4].int64_value(), 12);
}

TEST_F(QueryTest, GroupByAggregate) {
  auto rs = Query(&db_, "runs")
                .Aggregate({"forecast"},
                           {{AggFunc::kCount, Col("walltime"), "n"},
                            {AggFunc::kAvg, Col("walltime"), "avg_w"}})
                .OrderBy({{"forecast", true}})
                .Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "coos");
  EXPECT_EQ(rs->rows[0][1].int64_value(), 1);  // NULL not counted
  EXPECT_EQ(rs->rows[2][0].string_value(), "till");
  EXPECT_NEAR(rs->rows[2][2].double_value(), 40000.0, 1.0);
}

TEST_F(QueryTest, AggregateOverEmptyInputYieldsOneRow) {
  auto rs = Query(&db_, "runs")
                .Filter(Eq(Col("forecast"), LitString("ghost")))
                .Aggregate({}, {{AggFunc::kCountStar, nullptr, "n"},
                                {AggFunc::kAvg, Col("walltime"), "a"}})
                .Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].int64_value(), 0);
  EXPECT_TRUE(rs->rows[0][1].is_null());
}

TEST_F(QueryTest, OrderByMultipleKeys) {
  auto rs = Query(&db_, "runs")
                .OrderBy({{"node", true}, {"walltime", false}})
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][2].string_value(), "f1");
  EXPECT_DOUBLE_EQ(rs->rows[0][3].double_value(), 41000.0);
  EXPECT_DOUBLE_EQ(rs->rows[1][3].double_value(), 40000.0);
}

TEST_F(QueryTest, OrderPutsNullFirstAscending) {
  auto rs = Query(&db_, "runs").OrderBy({{"walltime", true}}).Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(rs->rows[0][3].is_null());
}

TEST_F(QueryTest, LimitAndOffset) {
  auto rs = Query(&db_, "runs")
                .OrderBy({{"walltime", false}})
                .Limit(2, 1)
                .Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rs->rows[0][3].double_value(), 60000.0);
}

TEST_F(QueryTest, DistinctRemovesDuplicates) {
  auto rs = Query(&db_, "runs").Select({"node"}).Distinct().Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 3u);
}

TEST_F(QueryTest, HashJoin) {
  auto rs = Query(&db_, "runs")
                .Join("nodes", "node", "node")
                .Filter(Eq(Col("forecast"), LitString("dev")))
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
  // Joined schema: runs columns + nodes columns (node clash -> node_r).
  EXPECT_TRUE(rs->schema.Has("speed"));
  EXPECT_TRUE(rs->schema.Has("node_r"));
  auto speeds = rs->ColumnValues("speed");
  ASSERT_TRUE(speeds.ok());
  EXPECT_DOUBLE_EQ((*speeds)[0].double_value(), 1.2);
}

TEST_F(QueryTest, JoinDropsUnmatchedRows) {
  // f3 has no entry in nodes.
  auto rs = Query(&db_, "runs").Join("nodes", "node", "node").Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 5u);
}

TEST_F(QueryTest, ScalarConvenience) {
  auto rs = Query(&db_, "runs")
                .Filter(Eq(Col("forecast"), LitString("till")))
                .Aggregate({}, {{AggFunc::kCountStar, nullptr, "n"}})
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->Scalar()->int64_value(), 3);
}

TEST_F(QueryTest, ToCsvAndPretty) {
  auto rs = Query(&db_, "runs")
                .Select({"forecast"})
                .Distinct()
                .OrderBy({{"forecast", true}})
                .Run();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->ToCsv(), "forecast\ncoos\ndev\ntill\n");
  std::string pretty = rs->ToPrettyString();
  EXPECT_NE(pretty.find("| coos"), std::string::npos);
}

// Finalized COUNT, SUM, AVG, MIN, MAX and P95 of one state, compared by
// type and raw bits.
void ExpectSameAggregates(const AggState& got, const AggState& want) {
  const std::vector<AggSpec> specs = {
      {AggFunc::kCount, nullptr, "n"}, {AggFunc::kSum, nullptr, "s"},
      {AggFunc::kAvg, nullptr, "a"},   {AggFunc::kMin, nullptr, "lo"},
      {AggFunc::kMax, nullptr, "hi"},  {AggFunc::kP95, nullptr, "p"}};
  const Schema schema({{"n", DataType::kInt64},
                       {"s", DataType::kDouble},
                       {"a", DataType::kDouble},
                       {"lo", DataType::kDouble},
                       {"hi", DataType::kDouble},
                       {"p", DataType::kDouble}});
  std::vector<AggState> g(specs.size(), got);
  std::vector<AggState> w(specs.size(), want);
  Row a = FinalizeAggRow({}, g, specs, schema);
  Row b = FinalizeAggRow({}, w, specs, schema);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].type(), b[i].type()) << specs[i].alias;
    if (a[i].type() == DataType::kDouble) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a[i].double_value()),
                std::bit_cast<uint64_t>(b[i].double_value()))
          << specs[i].alias << ": " << a[i].double_value() << " vs "
          << b[i].double_value();
    } else {
      EXPECT_EQ(a[i].ToString(), b[i].ToString()) << specs[i].alias;
    }
  }
}

// AggState::Merge is how both engines combine partial states (per batch
// serially, per morsel in parallel). Random int, double and NULL streams
// are split at random points into partials folded with Add; merging the
// partials one after another into a running state must equal an
// independent fold: counts add, sums add per partial, MIN/MAX keep the
// first extreme value, and P95 sees every value in stream order.
TEST(AggStateMergeTest, MergingSplitPartialsEqualsFoldingThemInOrder) {
  util::Rng rng(0xa99);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Value> stream(static_cast<size_t>(rng.UniformInt(0, 40)));
    for (Value& v : stream) {
      switch (rng.UniformInt(0, 3)) {
        case 0:
          v = Value::Null();
          break;
        case 1:
          v = Value::Int64(rng.UniformInt(-20, 20));
          break;
        case 2:  // integral doubles tie with ints under Value::Compare
          v = Value::Double(static_cast<double>(rng.UniformInt(-20, 20)));
          break;
        default:
          v = Value::Double(rng.Uniform(-1e6, 1e6));
          break;
      }
    }
    std::vector<size_t> cuts = {0};
    for (size_t i = 1; i < stream.size(); ++i) {
      if (rng.Bernoulli(0.2)) cuts.push_back(i);
    }
    cuts.push_back(stream.size());

    AggState fresh;
    fresh.keep_values = true;
    AggState merged = fresh;
    AggState want = fresh;
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      AggState part = fresh;
      double part_sum = 0.0;
      for (size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
        const Value& v = stream[i];
        part.Add(v);
        if (v.is_null()) continue;
        ++want.count;
        part_sum += *v.AsDouble();
        want.sum_is_double |= v.type() == DataType::kDouble;
        want.values.push_back(*v.AsDouble());
        if (want.min_v.is_null() || v.Compare(want.min_v) < 0) want.min_v = v;
        if (want.max_v.is_null() || v.Compare(want.max_v) > 0) want.max_v = v;
      }
      want.sum += part_sum;

      // Merging into a fresh state copies the partial exactly.
      AggState copy = fresh;
      copy.Merge(part);
      ASSERT_NO_FATAL_FAILURE(ExpectSameAggregates(copy, part));
      merged.Merge(part);
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_NO_FATAL_FAILURE(ExpectSameAggregates(merged, want));
    EXPECT_EQ(merged.sum_is_double, want.sum_is_double);
    if (!want.min_v.is_null()) {
      // First-wins ties: an Int64 minimum seen first stays Int64.
      EXPECT_EQ(merged.min_v.type(), want.min_v.type());
      EXPECT_EQ(merged.max_v.type(), want.max_v.type());
    }
  }
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

// Plan-rewrite tests: predicate pushdown, index selection and top-k
// annotation. Shapes are checked structurally (PlanKind casts) and via
// ToString(), which must reflect pushed predicates, prunable columns and
// index annotations.

#include "statsdb/planner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "obs/runtime_stats.h"
#include "oracle/row_engine.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/plan.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema runs({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"node", DataType::kString},
                 {"walltime", DataType::kDouble}});
    Table* t = *db_.CreateTable("runs", runs);
    ASSERT_TRUE(t->Insert({Value::String("till"), Value::Int64(1),
                           Value::String("f1"), Value::Double(10.0)})
                    .ok());
    ASSERT_TRUE(t->CreateIndex("forecast").ok());

    Schema nodes({{"node", DataType::kString},
                  {"speed", DataType::kDouble}});
    Table* n = *db_.CreateTable("nodes", nodes);
    ASSERT_TRUE(n->Insert({Value::String("f1"), Value::Double(1.0)}).ok());
  }

  Database db_;
};

TEST_F(PlannerTest, FilterMergesIntoScan) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"), Gt(Col("day"), LitInt(3))), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kScan);
  const auto& scan = static_cast<const ScanNode&>(*plan);
  EXPECT_NE(scan.predicate, nullptr);
  EXPECT_NE(plan->ToString().find("pred="), std::string::npos);
  EXPECT_NE(plan->ToString().find("prune=[day]"), std::string::npos);
}

TEST_F(PlannerTest, StackedFiltersKeepEvaluationOrder) {
  // Inner (deeper) filter evaluates first in the row oracle, so it
  // must come first in the folded conjunction.
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeFilter(MakeScan("runs"), Gt(Col("day"), LitInt(1))),
                 Lt(Col("day"), LitInt(9))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kScan);
  const auto& scan = static_cast<const ScanNode&>(*plan);
  std::string pred = scan.predicate->ToString();
  EXPECT_LT(pred.find("> 1"), pred.find("< 9")) << pred;
}

TEST_F(PlannerTest, IndexSelectedForEqualityOnIndexedColumn) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"), Eq(Col("forecast"), LitString("till"))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kScan);
  const auto& scan = static_cast<const ScanNode&>(*plan);
  ASSERT_EQ(scan.index_keys.size(), 1u);
  EXPECT_EQ(scan.index_keys[0].column, "forecast");
  EXPECT_NE(plan->ToString().find("index=forecast"), std::string::npos);
  // The conjunct stays in the predicate as a residual check.
  EXPECT_NE(scan.predicate, nullptr);
}

TEST_F(PlannerTest, NoIndexForNonEqualityOrUnindexedColumn) {
  PlanPtr p1 = OptimizePlan(
      MakeFilter(MakeScan("runs"), Gt(Col("forecast"), LitString("a"))),
      db_);
  EXPECT_TRUE(static_cast<const ScanNode&>(*p1).index_keys.empty());
  PlanPtr p2 = OptimizePlan(
      MakeFilter(MakeScan("runs"), Eq(Col("node"), LitString("f1"))), db_);
  EXPECT_TRUE(static_cast<const ScanNode&>(*p2).index_keys.empty());
}

TEST_F(PlannerTest, NoIndexForIncomparableLiteral) {
  // forecast = 5 errors on every row, so the filter fails type analysis
  // and is left intact above an unannotated scan — the index path may
  // not skip the erroring rows.
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"), Eq(Col("forecast"), LitInt(5))), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
  const auto& f = static_cast<const FilterNode&>(*plan);
  ASSERT_EQ(f.input->kind(), PlanKind::kScan);
  EXPECT_TRUE(static_cast<const ScanNode&>(*f.input).index_keys.empty());
}

TEST_F(PlannerTest, PlaceholderKeysPrecedeTheFirstUsableLiteral) {
  // A `?` key is checked at bind time, so later keys stay listed as
  // fallbacks up to the first usable literal.
  ASSERT_TRUE((*db_.table("runs"))->CreateIndex("node").ok());
  auto slot = std::make_shared<ParamSlot>();
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("runs"),
                 And(And(Eq(Param(0, slot), Col("forecast")),
                         Eq(Col("node"), LitString("f1"))),
                     Eq(Col("forecast"), LitString("till")))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kScan);
  const auto& scan = static_cast<const ScanNode&>(*plan);
  ASSERT_EQ(scan.index_keys.size(), 2u);
  EXPECT_EQ(scan.index_keys[0].column, "forecast");
  EXPECT_EQ(scan.index_keys[0].key->kind(), Expr::Kind::kParam);
  EXPECT_EQ(scan.index_keys[1].column, "node");
  EXPECT_NE(plan->ToString().find("index=forecast|node"), std::string::npos)
      << plan->ToString();
}

TEST_F(PlannerTest, PushesThroughSortAndDistinct) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeDistinct(MakeSort(MakeScan("runs"), {{"day", true}})),
                 Gt(Col("day"), LitInt(0))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kDistinct);
  const auto& d = static_cast<const DistinctNode&>(*plan);
  ASSERT_EQ(d.input->kind(), PlanKind::kSort);
  const auto& s = static_cast<const SortNode&>(*d.input);
  ASSERT_EQ(s.input->kind(), PlanKind::kScan);
  EXPECT_NE(static_cast<const ScanNode&>(*s.input).predicate, nullptr);
}

TEST_F(PlannerTest, PushesThroughPassThroughProject) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeProject(MakeScan("runs"), {{Col("forecast"), "f"},
                                                {Col("day"), "d"}}),
                 Gt(Col("d"), LitInt(2))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kProject);
  const auto& p = static_cast<const ProjectNode&>(*plan);
  ASSERT_EQ(p.input->kind(), PlanKind::kScan);
  // Pushed conjunct is rewritten to the input column name.
  EXPECT_NE(static_cast<const ScanNode&>(*p.input)
                .predicate->ToString()
                .find("day"),
            std::string::npos);
}

TEST_F(PlannerTest, DoesNotPushThroughComputedProjectColumn) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeProject(MakeScan("runs"),
                             {{Div(Col("walltime"), LitDouble(3600.0)),
                               "hours"}}),
                 Gt(Col("hours"), LitDouble(1.0))),
      db_);
  // Filter must stay above the project.
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
  EXPECT_EQ(static_cast<const FilterNode&>(*plan).input->kind(),
            PlanKind::kProject);
}

TEST_F(PlannerTest, PushesGroupKeyPredicateBelowAggregate) {
  PlanPtr agg = MakeAggregate(MakeScan("runs"), {"forecast"},
                              {{AggFunc::kAvg, Col("walltime"), "avg_w"}});
  PlanPtr plan = OptimizePlan(
      MakeFilter(agg, Eq(Col("forecast"), LitString("till"))), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kAggregate);
  const auto& a = static_cast<const AggregateNode&>(*plan);
  ASSERT_EQ(a.input->kind(), PlanKind::kScan);
  const auto& scan = static_cast<const ScanNode&>(*a.input);
  ASSERT_EQ(scan.index_keys.size(), 1u);
  EXPECT_EQ(scan.index_keys[0].column, "forecast");
}

TEST_F(PlannerTest, KeepsAggregateOutputPredicateAbove) {
  PlanPtr agg = MakeAggregate(MakeScan("runs"), {"forecast"},
                              {{AggFunc::kAvg, Col("walltime"), "avg_w"}});
  PlanPtr plan = OptimizePlan(
      MakeFilter(agg, Gt(Col("avg_w"), LitDouble(5.0))), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
}

TEST_F(PlannerTest, SplitsConjunctsAcrossJoinSides) {
  PlanPtr join = MakeHashJoin(MakeScan("runs"), MakeScan("nodes"), "node",
                              "node");
  PlanPtr plan = OptimizePlan(
      MakeFilter(join, And(And(Gt(Col("day"), LitInt(0)),
                               Gt(Col("speed"), LitDouble(0.5))),
                           Eq(Col("node_r"), LitString("f1")))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kHashJoin);
  const auto& j = static_cast<const HashJoinNode&>(*plan);
  ASSERT_EQ(j.left->kind(), PlanKind::kScan);
  ASSERT_EQ(j.right->kind(), PlanKind::kScan);
  const auto& l = static_cast<const ScanNode&>(*j.left);
  const auto& r = static_cast<const ScanNode&>(*j.right);
  EXPECT_NE(l.predicate->ToString().find("day"), std::string::npos);
  // Right-side conjuncts get the "_r" clash rename undone.
  EXPECT_NE(r.predicate->ToString().find("speed"), std::string::npos);
  EXPECT_NE(r.predicate->ToString().find("node"), std::string::npos);
  EXPECT_EQ(r.predicate->ToString().find("node_r"), std::string::npos);
}

TEST_F(PlannerTest, KeepsCrossSideConjunctAboveJoin) {
  PlanPtr join = MakeHashJoin(MakeScan("runs"), MakeScan("nodes"), "node",
                              "node");
  PlanPtr plan = OptimizePlan(
      MakeFilter(join, Gt(Col("walltime"), Col("speed"))), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
  EXPECT_EQ(static_cast<const FilterNode&>(*plan).input->kind(),
            PlanKind::kHashJoin);
}

TEST_F(PlannerTest, NeverPushesThroughLimit) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeLimit(MakeScan("runs"), 5, 0),
                 Gt(Col("day"), LitInt(0))),
      db_);
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
  EXPECT_EQ(static_cast<const FilterNode&>(*plan).input->kind(),
            PlanKind::kLimit);
}

TEST_F(PlannerTest, TopKAnnotation) {
  PlanPtr plan = OptimizePlan(
      MakeLimit(MakeSort(MakeScan("runs"), {{"day", true}}), 7, 3), db_);
  ASSERT_EQ(plan->kind(), PlanKind::kLimit);
  const auto& lim = static_cast<const LimitNode&>(*plan);
  ASSERT_EQ(lim.input->kind(), PlanKind::kSort);
  EXPECT_EQ(static_cast<const SortNode&>(*lim.input).limit_hint, 10u);
  EXPECT_NE(plan->ToString().find("top=10"), std::string::npos);
}

TEST_F(PlannerTest, TopKHintKeepsTheFullSortPrefix) {
  // The executor honours the top-k hint with a bounded heap; the result
  // must be exactly the oracle's stable_sort prefix — same rows, same
  // order, ties resolved by insertion order.
  Table* t = *db_.table("runs");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(t->Insert({Value::String("f" + std::to_string(i)),
                           Value::Int64(i % 7),  // many duplicate keys
                           Value::String("n"), Value::Double(1.0 * i)})
                    .ok());
  }
  PlanPtr naive =
      MakeLimit(MakeSort(MakeScan("runs"), {{"day", true}}), 6, 2);
  PlanPtr optimized = OptimizePlan(naive, db_);
  ASSERT_EQ(optimized->kind(), PlanKind::kLimit);
  EXPECT_EQ(static_cast<const SortNode&>(
                *static_cast<const LimitNode&>(*optimized).input)
                .limit_hint,
            8u);

  auto want = ExecuteRowOracle(*naive, db_);  // full sort
  auto vec = ExecuteColumnar(*optimized, db_);  // bounded heap
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(vec.ok());
  ASSERT_EQ(vec->rows.size(), want->rows.size());
  for (size_t r = 0; r < want->rows.size(); ++r) {
    for (size_t c = 0; c < want->rows[r].size(); ++c) {
      EXPECT_EQ(vec->rows[r][c].Compare(want->rows[r][c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(PlannerTest, TopKReachesSortThroughProject) {
  PlanPtr plan = OptimizePlan(
      MakeLimit(MakeProject(MakeSort(MakeScan("runs"), {{"day", true}}),
                            {{Col("day"), "d"}}),
                4, 0),
      db_);
  const auto& lim = static_cast<const LimitNode&>(*plan);
  const auto& proj = static_cast<const ProjectNode&>(*lim.input);
  EXPECT_EQ(static_cast<const SortNode&>(*proj.input).limit_hint, 4u);
}

TEST_F(PlannerTest, TopKDoesNotCrossDistinct) {
  // Distinct consumes rows, so truncating the sort below it would be
  // wrong.
  PlanPtr plan = OptimizePlan(
      MakeLimit(MakeDistinct(MakeSort(MakeScan("runs"), {{"day", true}})),
                4, 0),
      db_);
  const auto& lim = static_cast<const LimitNode&>(*plan);
  const auto& d = static_cast<const DistinctNode&>(*lim.input);
  EXPECT_EQ(static_cast<const SortNode&>(*d.input).limit_hint, 0u);
}

TEST_F(PlannerTest, IllTypedFilterLeftIntact) {
  // A non-boolean predicate must not be dismantled: execution has to
  // report the oracle's error.
  PlanPtr bad = MakeFilter(MakeScan("runs"), Add(Col("day"), LitInt(1)));
  PlanPtr plan = OptimizePlan(bad, db_);
  ASSERT_EQ(plan->kind(), PlanKind::kFilter);
  auto ref = ExecuteRowOracle(*bad, db_);
  auto opt = ExecutePlan(bad, db_);
  ASSERT_FALSE(ref.ok());
  ASSERT_FALSE(opt.ok());
  EXPECT_EQ(ref.status().message(), opt.status().message());
}

TEST_F(PlannerTest, UnknownTableDegradesGracefully) {
  PlanPtr plan = OptimizePlan(
      MakeFilter(MakeScan("ghost"), Gt(Col("day"), LitInt(0))), db_);
  EXPECT_TRUE(ExecutePlan(plan, db_).status().IsNotFound());
}

TEST_F(PlannerTest, OptimizedPlanStillExecutesOnReferenceEngine) {
  // Annotations (index, top-k) are hints: the row oracle ignores them
  // and must still produce correct results.
  PlanPtr plan = OptimizePlan(
      MakeLimit(
          MakeSort(MakeFilter(MakeScan("runs"),
                              Eq(Col("forecast"), LitString("till"))),
                   {{"day", true}}),
          3, 0),
      db_);
  auto rs = ExecuteRowOracle(*plan, db_);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
}

// A prepared statement takes the access path of its literal form: the
// planner marks `forecast = ?` for the hash index and the scan reads the
// bound key. On this table the index path for 'a' never evaluates row
// ('b', 5), where `10 / (day - 5)` divides by zero, so a prepared form
// that scanned every row would fail where the literal succeeds.
class PreparedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema runs({{"forecast", DataType::kString}, {"day", DataType::kInt64}});
    Table* t = *db_.CreateTable("runs", runs);
    for (auto [forecast, day] :
         {std::pair<const char*, int64_t>{"a", 1}, {"a", 2}, {"b", 5}}) {
      ASSERT_TRUE(
          t->Insert({Value::String(forecast), Value::Int64(day)}).ok());
    }
    ASSERT_TRUE(t->CreateIndex("forecast").ok());
    db_.set_cache_config(CacheConfig{});  // run the engine every time
  }

  /// `sql` with its one `?` replaced by `literal`, run as plain SQL.
  util::StatusOr<ResultSet> Literal(const std::string& sql,
                                    const std::string& literal) {
    std::string text = sql;
    text.replace(text.find('?'), 1, literal);
    return db_.Sql(text);
  }

  /// Requires the prepared `sql` bound to `param` to return the literal
  /// form's CSV or error text, byte for byte.
  void ExpectPreparedMatchesLiteral(const std::string& sql,
                                    const std::string& literal,
                                    const Value& param) {
    auto lit = Literal(sql, literal);
    auto ps = db_.Prepare(sql);
    ASSERT_TRUE(ps.ok()) << ps.status();
    auto prep = ps->Execute({param});
    ASSERT_EQ(lit.ok(), prep.ok())
        << sql << "\nliteral: " << lit.status().ToString()
        << "\nprepared: " << prep.status().ToString();
    if (lit.ok()) {
      EXPECT_EQ(lit->ToCsv(), prep->ToCsv()) << sql;
    } else {
      EXPECT_EQ(lit.status().ToString(), prep.status().ToString()) << sql;
    }
  }

  Database db_;
};

constexpr char kDivideSql[] =
    "SELECT day FROM runs WHERE forecast = ? AND 10 / (day - 5) < 0";

TEST_F(PreparedIndexTest, BoundKeySkipsTheRowsTheLiteralIndexSkips) {
  auto lit = Literal(kDivideSql, "'a'");
  ASSERT_TRUE(lit.ok()) << lit.status();
  EXPECT_EQ(lit->ToCsv(), "day\n1\n2\n");
  ExpectPreparedMatchesLiteral(kDivideSql, "'a'", Value::String("a"));
}

TEST_F(PreparedIndexTest, NullKeyScansEveryRowLikeTheLiteral) {
  // `forecast = NULL` cannot use the index, so both forms scan ('b', 5).
  ExpectPreparedMatchesLiteral(kDivideSql, "NULL", Value::Null());
}

TEST_F(PreparedIndexTest, IncomparableKeyFailsLikeTheLiteral) {
  ExpectPreparedMatchesLiteral(kDivideSql, "3", Value::Int64(3));
}

TEST_F(PreparedIndexTest, NullKeyFallsBackToTheNextIndexKeyLikeTheLiteral) {
  // The literal form skips `forecast = NULL` and looks up day = 1, so
  // neither form may scan ('b', 5).
  ASSERT_TRUE((*db_.table("runs"))->CreateIndex("day").ok());
  ExpectPreparedMatchesLiteral(
      "SELECT day FROM runs WHERE forecast = ? AND day = 1 AND "
      "10 / (day - 5) < 0",
      "NULL", Value::Null());
}

TEST_F(PreparedIndexTest, ProfiledExecutionReadsOnlyTheIndexRows) {
  auto ps = db_.Prepare("SELECT day FROM runs WHERE forecast = ?");
  ASSERT_TRUE(ps.ok()) << ps.status();
  obs::QueryProfile profile;
  auto rs = ps->Execute({Value::String("a")}, &profile);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->ToCsv(), "day\n1\n2\n");
  if constexpr (!obs::kProfilingCompiledIn) return;
  ASSERT_NE(profile.root, nullptr);
  const obs::OperatorProfile* scan = profile.root.get();
  while (!scan->is_scan && !scan->children.empty()) {
    scan = scan->children[0].get();
  }
  ASSERT_TRUE(scan->is_scan) << profile.Render();
  EXPECT_EQ(scan->index_rows, 2u) << profile.Render();
  EXPECT_NE(scan->name.find("index=forecast"), std::string::npos)
      << scan->name;
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

// Differential DML lane: UPDATE and DELETE find their target rows with
// the vectorized scan (exec.h MatchRows: pushdown, index path, zone-map
// pruning, batch filter) and write only after every assignment has been
// evaluated and type-checked. The oracle here is the row-at-a-time loop
// they replaced — Expr::Eval of the WHERE over every row, then of the
// assignments, writing row by row — applied to an identical twin
// database. Statements are drawn from sqlgen.h over runs-shaped tables
// of 4095, 4096 and 4097 rows (the chunk boundary) and a NULL-heavy one.
//
// Compared, bit for bit: the affected count, every cell afterwards
// (doubles by their raw 64 bits) and the error string. Where the oracle
// failed after writing part of a statement, the new path must instead
// have left the table untouched. After every statement each index must
// answer Lookup with exactly the rows holding the value.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "statsdb/cache.h"
#include "statsdb/column_store.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"
#include "statsdb/planner.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"
#include "util/strings.h"

#include "sqlgen.h"

namespace ff {
namespace statsdb {
namespace {

using Assignments = std::vector<std::pair<std::string, std::string>>;

// ------------------------------------------------------------- the oracle

/// The expression trees of `SELECT <items> FROM <table> [WHERE <where>]`,
/// parsed by the SQL front end: the WHERE predicate and the select items.
struct Parsed {
  ExprPtr where;
  std::vector<ExprPtr> items;
};

Parsed ParseExprs(const std::string& table,
                  const std::vector<std::string>& items,
                  const std::string& where) {
  std::string sql = "SELECT " +
                    (items.empty() ? "*" : util::Join(items, ", ")) +
                    " FROM " + table;
  if (!where.empty()) sql += " WHERE " + where;
  auto plan = PlanSql(sql);
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
  Parsed out;
  if (!plan.ok()) return out;
  for (PlanPtr n = *plan; n != nullptr;) {
    if (n->kind() == PlanKind::kFilter) {
      out.where = static_cast<const FilterNode&>(*n).predicate;
    } else if (n->kind() == PlanKind::kProject && !items.empty()) {
      for (const auto& item : static_cast<const ProjectNode&>(*n).items) {
        out.items.push_back(item.expr);
      }
    }
    std::vector<PlanPtr> in = PlanInputs(*n);
    n = in.empty() ? nullptr : in[0];
  }
  return out;
}

/// The row-at-a-time UPDATE loop UPDATE ran before it was set-oriented.
/// Its cell writes are applied together when the loop ends or fails —
/// on failure exactly the cells the loop had written by then (earlier
/// rows, and the failing row's cells before the failing one), as a
/// failing statement used to leave them. Deferring is sound because a
/// row's assignments and WHERE read only that row; it spares the
/// per-cell zone recompute a write would otherwise pay.
util::StatusOr<int64_t> OracleUpdate(
    Table* t, const std::vector<std::pair<std::string, ExprPtr>>& assignments,
    const ExprPtr& where) {
  const Schema& schema = t->schema();
  std::vector<size_t> target_cols;
  for (const auto& [col, expr] : assignments) {
    FF_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    target_cols.push_back(idx);
  }
  std::vector<size_t> rows;
  std::vector<Value> written;  // row-major: rows.size() x target_cols
  auto fail = [&](const util::Status& st, size_t row, std::vector<Value> part) {
    EXPECT_TRUE(t->UpdateCells(rows, target_cols, std::move(written)).ok());
    for (size_t a = 0; a < part.size(); ++a) {
      EXPECT_TRUE(t->UpdateCell(row, target_cols[a], std::move(part[a])).ok());
    }
    return st;
  };
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (where) {
      auto match = where->Eval(t->row(i), schema);
      if (!match.ok()) return fail(match.status(), i, {});
      if (match->is_null() || !match->bool_value()) continue;
    }
    std::vector<Value> new_values;
    for (const auto& [col, expr] : assignments) {
      auto v = expr->Eval(t->row(i), schema);
      if (!v.ok()) return fail(v.status(), i, {});
      new_values.push_back(std::move(*v));
    }
    for (size_t a = 0; a < target_cols.size(); ++a) {
      auto v = t->CoerceCell(target_cols[a], new_values[a]);
      if (!v.ok()) {
        new_values.resize(a);
        return fail(v.status(), i, std::move(new_values));
      }
    }
    rows.push_back(i);
    for (Value& v : new_values) written.push_back(std::move(v));
  }
  FF_RETURN_IF_ERROR(t->UpdateCells(rows, target_cols, std::move(written)));
  return static_cast<int64_t>(rows.size());
}

/// The row-at-a-time DELETE loop DELETE ran before it was set-oriented.
util::StatusOr<int64_t> OracleDelete(Table* t, const ExprPtr& where) {
  const Schema& schema = t->schema();
  std::vector<size_t> victims;
  for (size_t i = 0; i < t->num_rows(); ++i) {
    if (where) {
      FF_ASSIGN_OR_RETURN(Value match, where->Eval(t->row(i), schema));
      if (match.is_null() || !match.bool_value()) continue;
    }
    victims.push_back(i);
  }
  FF_RETURN_IF_ERROR(t->DeleteRows(victims));
  return static_cast<int64_t>(victims.size());
}

// ------------------------------------------------------------ comparison

/// Every cell of `t`, doubles as raw bits, so equal dumps mean equal bits.
std::string Dump(const Table& t) {
  std::string out;
  for (const Row& row : t.rows()) {
    for (const Value& v : row) {
      if (v.is_null()) {
        out += "N|";
        continue;
      }
      switch (v.type()) {
        case DataType::kInt64:
          out += "i" + std::to_string(v.int64_value()) + "|";
          break;
        case DataType::kDouble:
          out += "d" +
                 std::to_string(std::bit_cast<uint64_t>(v.double_value())) +
                 "|";
          break;
        default:
          out += "s" + v.ToString() + "|";
          break;
      }
    }
    out += "\n";
  }
  return out;
}

/// Each index answers Lookup with exactly the rows holding the value.
void ExpectIndexesExact(const Table& t) {
  const std::pair<const char*, std::vector<const char*>> probes[] = {
      {"forecast", {"till", "dev", "coos", "umpqua", "ghost", "f1"}},
      {"node", {"f1", "f2", "f3", "f4", "f5", "f9", "till"}},
  };
  const ColumnStore& store = t.store();
  for (const auto& [column, values] : probes) {
    size_t col = *t.schema().IndexOf(column);
    std::map<std::string, std::vector<size_t>> holding;  // NULLs left out
    for (size_t i = 0; i < t.num_rows(); ++i) {
      Value v = store.GetValue(i, col);
      if (!v.is_null()) holding[v.string_value()].push_back(i);
    }
    for (const char* s : values) {
      auto got = t.Lookup(column, Value::String(s));
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, holding[s]) << column << " = '" << s << "'";
    }
  }
}

// ------------------------------------------------------------- the lanes

/// Twin databases holding identical bytes: `db` runs statements through
/// the SQL entry point, `oracle` through the row-at-a-time loops.
class DmlTwin {
 public:
  DmlTwin(size_t rows, double null_frac, uint64_t seed)
      : rows_(rows), null_frac_(null_frac), seed_(seed) {
    db_.set_cache_config(CacheConfig{});
    property::BuildRunsTable(&db_, "runs", rows, null_frac, seed);
    property::BuildRunsTable(&oracle_, "runs", rows, null_frac, seed);
  }

  Table* table() { return *db_.table("runs"); }
  Database& db() { return db_; }
  /// Failing statements the oracle had already partly written.
  int partial_writes() const { return partial_writes_; }

  /// Runs one UPDATE (`where` empty: no WHERE) on both twins and checks
  /// the contract; returns the affected count (-1 on failure).
  int64_t Update(const Assignments& set, const std::string& where) {
    std::vector<std::string> sets, exprs;
    for (const auto& [col, expr] : set) {
      sets.push_back(col + " = " + expr);
      exprs.push_back(expr);
    }
    std::string sql = "UPDATE runs SET " + util::Join(sets, ", ");
    if (!where.empty()) sql += " WHERE " + where;
    Parsed p = ParseExprs("runs", exprs, where);
    std::vector<std::pair<std::string, ExprPtr>> assignments;
    for (size_t a = 0; a < set.size(); ++a) {
      assignments.emplace_back(set[a].first, p.items[a]);
    }
    return Check(sql, [&](Table* t) {
      return OracleUpdate(t, assignments, p.where);
    });
  }

  int64_t Delete(const std::string& where) {
    std::string sql = "DELETE FROM runs";
    if (!where.empty()) sql += " WHERE " + where;
    Parsed p = ParseExprs("runs", {}, where);
    return Check(sql, [&](Table* t) { return OracleDelete(t, p.where); });
  }

  /// Appends the same `n` rows to both twins: a launch slice of day
  /// `day`, walltime NULL (in flight), as a run script inserts it.
  void AppendSlice(int64_t day, size_t n) {
    const char* forecasts[] = {"till", "dev", "coos", "umpqua"};
    for (Database* d : {&db_, &oracle_}) {
      Table* t = *d->table("runs");
      for (size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(t->Insert({Value::String(forecasts[i % 4]),
                               Value::Int64(day),
                               Value::String("f" + std::to_string(i % 5 + 1)),
                               Value::Null()})
                        .ok());
      }
    }
  }

  /// Grows both twins back to their starting size with fresh rows, so a
  /// lane keeps straddling the chunk boundary after deletes.
  void Refill() {
    size_t have = table()->num_rows();
    if (have >= rows_) return;
    Database fresh;
    property::BuildRunsTable(&fresh, "runs", rows_ - have, null_frac_,
                             seed_ + ++refills_);
    for (Database* d : {&db_, &oracle_}) {
      Table* t = *d->table("runs");
      for (const Row& row : (*fresh.table("runs"))->rows()) {
        ASSERT_TRUE(t->Insert(row).ok());
      }
    }
  }

 private:
  template <typename Oracle>
  int64_t Check(const std::string& sql, Oracle oracle) {
    Table* mine = table();
    Table* theirs = *oracle_.table("runs");
    std::string before = Dump(*mine);
    EXPECT_EQ(before, Dump(*theirs)) << "twins diverged before: " << sql;
    uint64_t mine_epoch = mine->epoch();
    uint64_t their_epoch = theirs->epoch();

    auto got = db_.Sql(sql);
    util::StatusOr<int64_t> want = oracle(theirs);
    bool oracle_wrote = theirs->epoch() != their_epoch;

    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << sql;
    std::string after = Dump(*mine);
    if (!want.ok()) {
      // The new path is atomic: a failing statement changes nothing.
      EXPECT_EQ(after, before) << sql;
      EXPECT_EQ(mine->epoch(), mine_epoch) << sql;
      if (oracle_wrote) {
        ++partial_writes_;
        Resync();
      }
      EXPECT_EQ(Dump(**oracle_.table("runs")), after) << sql;
      ExpectIndexesExact(*mine);
      return -1;
    }
    if (!got.ok()) return -1;
    EXPECT_EQ(got->rows[0][0].int64_value(), *want) << sql;
    EXPECT_EQ(after, Dump(*theirs)) << sql;
    ExpectIndexesExact(*mine);
    ExpectIndexesExact(*theirs);
    return *want;
  }

  /// Rewinds the oracle twin to the new twin's (untouched) contents after
  /// the oracle wrote part of a failing statement.
  void Resync() {
    ASSERT_TRUE(oracle_.DropTable("runs").ok());
    Table* t = *oracle_.CreateTable("runs", table()->schema());
    for (const Row& row : table()->rows()) ASSERT_TRUE(t->Insert(row).ok());
    ASSERT_TRUE(t->CreateIndex("forecast").ok());
    ASSERT_TRUE(t->CreateIndex("node").ok());
  }

  size_t rows_;
  double null_frac_;
  uint64_t seed_;
  uint64_t refills_ = 0;
  int partial_writes_ = 0;
  Database db_;
  Database oracle_;
};

/// `statements` random UPDATE/DELETE statements on a `rows`-row table.
void RunRandomLane(size_t rows, double null_frac, uint64_t seed,
                   int statements) {
  DmlTwin twin(rows, null_frac, seed);
  property::SqlGen gen(seed * 31 + 7);
  int failed = 0;
  for (int i = 0; i < statements; ++i) {
    std::string where;
    int shape = gen.Pick(10);
    if (shape == 0) {
      where = "";  // whole table
    } else if (shape <= 2) {
      // Index path (forecast is indexed), plus a residual conjunct.
      where = "forecast = " + gen.StringLit() + " AND " +
              gen.Comparison(false);
    } else {
      where = gen.Where(false);
    }
    if (gen.Pick(6) == 0) {
      twin.Delete(where.empty() && gen.Pick(3) != 0 ? "day < 40" : where);
      twin.Refill();
    } else {
      Assignments set = gen.Assignments();
      if (twin.Update(set, where) < 0) ++failed;
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping lane at statement " << i;
      return;
    }
  }
  // The generator must reach the failing shapes, including statements
  // the row-at-a-time loop would have left half written.
  EXPECT_GT(failed, 0);
  EXPECT_GT(twin.partial_writes(), 0);
}

class DmlDiffSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(DmlDiffSizes, MatchesRowAtATimeOracle) {
  RunRandomLane(GetParam(), 0.08, 0xd31 + GetParam(), 160);
}

INSTANTIATE_TEST_SUITE_P(ChunkBoundary, DmlDiffSizes,
                         ::testing::Values(4095, 4096, 4097),
                         [](const auto& info) {
                           return "rows" + std::to_string(info.param);
                         });

TEST(DmlDiff, NullHeavyColumns) { RunRandomLane(4097, 0.6, 0x6011, 160); }

TEST(DmlDiff, IndexedColumnUpdateKeepsLookupExact) {
  DmlTwin twin(4097, 0.08, 0x1d8);
  std::vector<size_t> till = *twin.table()->Lookup("forecast",
                                                   Value::String("till"));
  std::vector<size_t> dev = *twin.table()->Lookup("forecast",
                                                  Value::String("dev"));
  ASSERT_FALSE(till.empty());
  // Index path: the WHERE is served by Lookup, the SET rewrites the key.
  EXPECT_EQ(twin.Update({{"forecast", "'dev'"}}, "forecast = 'till'"),
            static_cast<int64_t>(till.size()));
  std::vector<size_t> want = dev;
  want.insert(want.end(), till.begin(), till.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(*twin.table()->Lookup("forecast", Value::String("dev")), want);
  EXPECT_TRUE(
      twin.table()->Lookup("forecast", Value::String("till"))->empty());
  // A second statement takes the index path over the rewritten buckets.
  int64_t n = twin.Update({{"node", "'f9'"}}, "forecast = 'dev' AND day < 100");
  EXPECT_GT(n, 0);
  EXPECT_EQ(static_cast<int64_t>(
                twin.table()->Lookup("node", Value::String("f9"))->size()),
            n);
}

TEST(DmlDiff, TailChunkLiveUpdate) {
  // The live-update shape: each run script inserts a slice of a new day
  // at the table's tail, then completes it with
  // `UPDATE ... WHERE day = D AND walltime IS NULL`. Days 400+ exist only
  // in the tail, so zone maps leave a single chunk to scan.
  DmlTwin twin(4097, 0.08, 0x7a11);
  for (int64_t day = 400; day < 440; ++day) {
    twin.AppendSlice(day, 50);
    std::string where =
        "day = " + std::to_string(day) + " AND walltime IS NULL";
    auto plan = PlanSql("SELECT * FROM runs WHERE " + where);
    ASSERT_TRUE(plan.ok());
    PlanPtr opt = OptimizePlan(*plan, twin.db());
    while (opt->kind() != PlanKind::kScan) opt = PlanInputs(*opt)[0];
    auto setup = PrepareScan(static_cast<const ScanNode&>(*opt), twin.db());
    ASSERT_TRUE(setup.ok());
    EXPECT_EQ(SurveyScanChunks(*setup).size(), 1u) << where;
    EXPECT_EQ(twin.Update({{"walltime", "5760.5"}, {"node", "'f2'"}}, where),
              50);
  }
  EXPECT_EQ(twin.Delete("day >= 400 AND day < 420"), 20 * 50);
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

#include "statsdb/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "statsdb/cache.h"
#include "statsdb/database.h"

namespace ff {
namespace statsdb {
namespace {

Schema TestSchema() {
  return Schema({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"walltime", DataType::kDouble}});
}

TEST(SchemaTest, CreateRejectsDuplicatesAndEmpty) {
  EXPECT_FALSE(Schema::Create({{"a", DataType::kInt64},
                               {"A", DataType::kString}})
                   .ok());
  EXPECT_FALSE(Schema::Create({{"", DataType::kInt64}}).ok());
  EXPECT_TRUE(Schema::Create({{"a", DataType::kInt64},
                              {"b", DataType::kInt64}})
                  .ok());
}

TEST(SchemaTest, IndexOfCaseInsensitive) {
  Schema s = TestSchema();
  EXPECT_EQ(*s.IndexOf("forecast"), 0u);
  EXPECT_EQ(*s.IndexOf("DAY"), 1u);
  EXPECT_EQ(*s.IndexOf("WallTime"), 2u);
  EXPECT_TRUE(s.IndexOf("missing").status().IsNotFound());
  EXPECT_TRUE(s.Has("day"));
  EXPECT_FALSE(s.Has("nope"));
}

TEST(SchemaTest, ToStringAndEquality) {
  Schema s = TestSchema();
  EXPECT_EQ(s.ToString(),
            "forecast:STRING, day:INT64, walltime:DOUBLE");
  EXPECT_TRUE(s == TestSchema());
  Schema other({{"x", DataType::kInt64}});
  EXPECT_FALSE(s == other);
}

TEST(ValidateRowTest, WidthAndTypes) {
  Schema s = TestSchema();
  EXPECT_TRUE(ValidateRow(s, {Value::String("t"), Value::Int64(1),
                              Value::Double(9.0)})
                  .ok());
  EXPECT_FALSE(ValidateRow(s, {Value::String("t")}).ok());
  EXPECT_FALSE(ValidateRow(s, {Value::Int64(1), Value::Int64(1),
                               Value::Double(9.0)})
                   .ok());
  // NULL allowed anywhere; int64 accepted into double column.
  EXPECT_TRUE(ValidateRow(s, {Value::Null(), Value::Null(), Value::Null()})
                  .ok());
  EXPECT_TRUE(ValidateRow(s, {Value::String("t"), Value::Int64(1),
                              Value::Int64(9)})
                  .ok());
}

TEST(TableTest, InsertAndRead) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.Insert({Value::String("till"), Value::Int64(21),
                        Value::Double(40000.0)})
                  .ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].string_value(), "till");
}

TEST(TableTest, IntWidenedIntoDoubleColumn) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.Insert({Value::String("till"), Value::Int64(21),
                        Value::Int64(40000)})
                  .ok());
  EXPECT_EQ(t.row(0)[2].type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(t.row(0)[2].double_value(), 40000.0);
}

TEST(TableTest, InsertRejectsBadRow) {
  Table t("runs", TestSchema());
  EXPECT_FALSE(t.Insert({Value::Int64(1)}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableTest, LookupWithoutIndexScans) {
  Table t("runs", TestSchema());
  for (int d = 1; d <= 5; ++d) {
    ASSERT_TRUE(t.Insert({Value::String(d % 2 ? "a" : "b"),
                          Value::Int64(d), Value::Double(d * 10.0)})
                    .ok());
  }
  auto rows = t.Lookup("forecast", Value::String("a"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 2, 4}));
}

TEST(TableTest, IndexedLookupMatchesScan) {
  Table t("runs", TestSchema());
  for (int d = 1; d <= 20; ++d) {
    ASSERT_TRUE(t.Insert({Value::String(d % 3 ? "a" : "b"),
                          Value::Int64(d % 4), Value::Double(d)})
                    .ok());
  }
  auto scan = t.Lookup("day", Value::Int64(2));
  ASSERT_TRUE(t.CreateIndex("day").ok());
  EXPECT_TRUE(t.HasIndex("day"));
  auto indexed = t.Lookup("day", Value::Int64(2));
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*scan, *indexed);
}

TEST(TableTest, IndexMaintainedAcrossInserts) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.CreateIndex("forecast").ok());
  for (int d = 0; d < 6; ++d) {
    ASSERT_TRUE(t.Insert({Value::String(d % 2 ? "x" : "y"),
                          Value::Int64(d), Value::Double(d)})
                    .ok());
  }
  auto rows = t.Lookup("forecast", Value::String("x"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{1, 3, 5}));
}

TEST(TableTest, LookupMissingValueEmpty) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.CreateIndex("forecast").ok());
  auto rows = t.Lookup("forecast", Value::String("ghost"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(TableTest, UpdateCellPatchesInFlightRun) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(
      t.Insert({Value::String("till"), Value::Int64(5), Value::Null()})
          .ok());
  ASSERT_TRUE(t.UpdateCell(0, 2, Value::Double(41000.0)).ok());
  EXPECT_DOUBLE_EQ(t.row(0)[2].double_value(), 41000.0);
}

TEST(TableTest, UpdateCellMaintainsIndex) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.CreateIndex("forecast").ok());
  ASSERT_TRUE(t.Insert({Value::String("old"), Value::Int64(1),
                        Value::Double(1.0)})
                  .ok());
  ASSERT_TRUE(t.UpdateCell(0, 0, Value::String("new")).ok());
  EXPECT_TRUE(t.Lookup("forecast", Value::String("old"))->empty());
  EXPECT_EQ(t.Lookup("forecast", Value::String("new"))->size(), 1u);
}

TEST(TableTest, UpdateCellBoundsAndTypes) {
  Table t("runs", TestSchema());
  ASSERT_TRUE(t.Insert({Value::String("a"), Value::Int64(1),
                        Value::Double(1.0)})
                  .ok());
  EXPECT_TRUE(t.UpdateCell(5, 0, Value::Null()).IsOutOfRange());
  EXPECT_TRUE(t.UpdateCell(0, 9, Value::Null()).IsOutOfRange());
  EXPECT_TRUE(t.UpdateCell(0, 1, Value::String("no")).IsInvalidArgument());
  // Int into double column widens.
  EXPECT_TRUE(t.UpdateCell(0, 2, Value::Int64(7)).ok());
  EXPECT_EQ(t.row(0)[2].type(), DataType::kDouble);
}

TEST(TableTest, LookupUnknownColumnFails) {
  Table t("runs", TestSchema());
  EXPECT_TRUE(t.Lookup("ghost", Value::Int64(1)).status().IsNotFound());
  EXPECT_TRUE(t.CreateIndex("ghost").IsNotFound());
}

TEST(TableTest, UpdateBetweenIndexKeysKeepsBucketsAscending) {
  // Rows interleave three keys over three chunks, and day = row id, so a
  // scan's days come out in row order. Both updates move rows into the
  // middle of another key's bucket; the second passes its rows
  // descending.
  Database db;
  db.set_cache_config(CacheConfig{});
  Table* t = *db.CreateTable("runs", TestSchema());
  const char* keys[] = {"a", "b", "c"};
  constexpr size_t kRows = 3 * 4096 + 5;
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->Insert({Value::String(keys[i * 7 % 3]),
                           Value::Int64(static_cast<int64_t>(i)),
                           Value::Double(1.0)})
                    .ok());
  }
  ASSERT_TRUE(t->CreateIndex("forecast").ok());
  ASSERT_TRUE(
      db.Sql("UPDATE runs SET forecast = 'a' WHERE forecast = 'b' AND "
             "day % 5 = 0")
          .ok());
  std::vector<size_t> rows;
  for (size_t i = kRows; i-- > 0;) {
    if (i % 11 == 0) rows.push_back(i);
  }
  ASSERT_TRUE(t->UpdateCells(rows, {0},
                             std::vector<Value>(rows.size(),
                                                Value::String("c")))
                  .ok());

  for (const char* key : keys) {
    SCOPED_TRACE(key);
    std::vector<size_t> want;
    std::string days = "day\n";
    for (size_t i = 0; i < kRows; ++i) {
      if (t->row(i)[0].string_value() != key) continue;
      want.push_back(i);
      days += std::to_string(i) + "\n";
    }
    auto bucket = t->Lookup("forecast", Value::String(key));
    ASSERT_TRUE(bucket.ok());
    EXPECT_TRUE(std::is_sorted(bucket->begin(), bucket->end()));
    EXPECT_EQ(*bucket, want);
    // The index scan reads the bucket in place.
    auto rs = db.Sql(std::string("SELECT day FROM runs WHERE forecast = '") +
                     key + "'");
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(rs->ToCsv(), days);
  }
}

}  // namespace
}  // namespace statsdb
}  // namespace ff

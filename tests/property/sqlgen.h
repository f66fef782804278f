// Shared fixtures for the randomized-SQL property lanes: the table
// builder, the statement generator, and the order-normalizing renderer.
// statsdb_property_test.cc uses them to pit the engines against each
// other in-process; wire_property_test.cc replays the exact same
// statement streams through the served statsdb (net/server.h) and
// requires byte-identical answers over the wire. Keeping one generator
// means the wire lane cannot silently drift to an easier corpus.

#ifndef FF_TESTS_PROPERTY_SQLGEN_H_
#define FF_TESTS_PROPERTY_SQLGEN_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "statsdb/database.h"
#include "statsdb/query.h"
#include "statsdb/table.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ff {
namespace statsdb {
namespace property {

constexpr size_t kPropertyRows = 5000;  // > kChunkRows: chunk slicing

/// Builds the `runs` (5000 rows, 8% NULL walltime, indexed on forecast
/// and node) and `nodes` tables every property lane queries. Determinism
/// matters: two databases built by this function hold identical bytes,
/// which is what lets the wire lane diff a served database against an
/// in-process reference row for row.
inline void BuildPropertyTables(Database* db) {
  Schema runs({{"forecast", DataType::kString},
               {"day", DataType::kInt64},
               {"node", DataType::kString},
               {"walltime", DataType::kDouble}});
  Table* t = *db->CreateTable("runs", runs);
  util::Rng rng(0xf0f0);
  const char* forecasts[] = {"till", "dev", "coos", "umpqua"};
  const char* nodes[] = {"f1", "f2", "f3", "f4", "f5"};
  Table::BulkAppender app(t);
  app.Reserve(kPropertyRows);
  for (size_t i = 0; i < kPropertyRows; ++i) {
    app.String(forecasts[rng.UniformInt(0, 3)])
        .Int64(rng.UniformInt(0, 364))
        .String(nodes[rng.UniformInt(0, 4)]);
    if (rng.Bernoulli(0.08)) {
      app.Null();  // in-flight run: walltime unknown
    } else {
      app.Double(rng.Uniform(1000.0, 90000.0));
    }
    ASSERT_TRUE(app.EndRow().ok());
  }
  ASSERT_TRUE(app.Finish().ok());
  ASSERT_TRUE(t->CreateIndex("forecast").ok());
  ASSERT_TRUE(t->CreateIndex("node").ok());

  Schema speeds({{"node", DataType::kString},
                 {"speed", DataType::kDouble}});
  Table* n = *db->CreateTable("nodes", speeds);
  for (int i = 1; i <= 4; ++i) {  // f5 intentionally unmatched
    ASSERT_TRUE(n->Insert({Value::String("f" + std::to_string(i)),
                           Value::Double(1.0 + 0.1 * i)})
                    .ok());
  }
}

/// Builds table `name`, shaped like `runs` (forecast, day, node,
/// walltime; indexed on forecast and node) with `rows` rows, for lanes
/// that need a chosen size — 4095/4096/4097 rows sit on the zone-map
/// chunk boundary — or NULL-heavy columns: day, node and walltime are
/// each NULL with probability `null_frac`.
inline void BuildRunsTable(Database* db, const std::string& name,
                           size_t rows, double null_frac, uint64_t seed) {
  Schema runs({{"forecast", DataType::kString},
               {"day", DataType::kInt64},
               {"node", DataType::kString},
               {"walltime", DataType::kDouble}});
  Table* t = *db->CreateTable(name, runs);
  util::Rng rng(seed);
  const char* forecasts[] = {"till", "dev", "coos", "umpqua"};
  const char* nodes[] = {"f1", "f2", "f3", "f4", "f5"};
  Table::BulkAppender app(t);
  app.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    app.String(forecasts[rng.UniformInt(0, 3)]);
    if (rng.Bernoulli(null_frac)) {
      app.Null();
    } else {
      app.Int64(rng.UniformInt(0, 364));
    }
    if (rng.Bernoulli(null_frac)) {
      app.Null();
    } else {
      app.String(nodes[rng.UniformInt(0, 4)]);
    }
    if (rng.Bernoulli(null_frac)) {
      app.Null();
    } else {
      app.Double(rng.Uniform(1000.0, 90000.0));
    }
    ASSERT_TRUE(app.EndRow().ok());
  }
  ASSERT_TRUE(app.Finish().ok());
  ASSERT_TRUE(t->CreateIndex("forecast").ok());
  ASSERT_TRUE(t->CreateIndex("node").ok());
}

/// Randomized SELECT generator over the property tables. The generator
/// only compares columns against literals of a comparable type and
/// never divides in predicates: the zone-map/index fast paths
/// legitimately skip evaluating rows a full scan would visit, so a
/// predicate that errors on skipped rows is a documented divergence,
/// not a bug these tests should trip over. The divergence is between
/// access paths only (an index or pruned scan against the row oracle's
/// full one), never between a literal statement and its prepared form:
/// a `?` bound to the literal takes the same access path.
struct SqlGen {
  util::Rng rng;
  explicit SqlGen(uint64_t seed) : rng(seed) {}

  int Pick(int n) { return static_cast<int>(rng.UniformInt(0, n - 1)); }
  template <size_t N>
  const char* OneOf(const char* (&arr)[N]) {
    return arr[Pick(static_cast<int>(N))];
  }

  std::string StringLit() {
    static const char* vals[] = {"'till'", "'dev'", "'coos'", "'umpqua'",
                                 "'ghost'", "'f1'", "'f3'", "'f5'"};
    return OneOf(vals);
  }
  std::string IntLit() { return std::to_string(rng.UniformInt(-5, 370)); }
  std::string DoubleLit() {
    return util::StrFormat("%.1f", rng.Uniform(0.0, 95000.0));
  }

  // One comparison whose literal type is comparable with the column's.
  std::string Comparison(bool joined) {
    static const char* cmps[] = {"=", "<>", "<", "<=", ">", ">="};
    int c = Pick(joined ? 6 : 4);
    switch (c) {
      case 0:
        return "forecast " + std::string(OneOf(cmps)) + " " + StringLit();
      case 1:
        return "day " + std::string(OneOf(cmps)) + " " + IntLit();
      case 2: {
        int k = Pick(4);
        if (k == 0) return "walltime IS NULL";
        if (k == 1) return "walltime IS NOT NULL";
        return "walltime " + std::string(OneOf(cmps)) + " " + DoubleLit();
      }
      case 3: {
        int k = Pick(4);
        if (k == 0) return "node LIKE 'f%'";
        if (k == 1) return "node IN ('f1', 'f2', 'f5')";
        if (k == 2) return "day BETWEEN 50 AND 300";
        return "node " + std::string(OneOf(cmps)) + " " + StringLit();
      }
      case 4:
        return "speed " + std::string(OneOf(cmps)) + " " + DoubleLit();
      default:
        return "node_r " + std::string(OneOf(cmps)) + " " + StringLit();
    }
  }

  std::string Where(bool joined) {
    int n = Pick(3) + 1;
    std::string out;
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += Pick(4) == 0 ? " OR " : " AND ";
      out += Comparison(joined);
    }
    return out;
  }

  /// The SET list of an UPDATE on a runs-shaped table: 1-3 (column,
  /// expression) pairs. Some write the indexed columns; some fail at run
  /// time on some rows only (modulo by zero where day = 5, a double into
  /// the int column), so a row-at-a-time loop would have written part of
  /// the statement before failing; one names an unknown column.
  std::vector<std::pair<std::string, std::string>> Assignments() {
    static const char* forecast[] = {"'till'", "'dev'", "'ghost'", "node",
                                     "NULL"};
    static const char* day[] = {"day + 1", "day * 2 - 7", "NULL", "3",
                                "100 % (day - 5)", "walltime", "'x'"};
    static const char* node[] = {"'f1'", "'f5'", "forecast", "NULL"};
    static const char* walltime[] = {"walltime * 2", "walltime + 0.1",
                                     "day", "NULL", "1e300 * 1e300",
                                     "walltime / (day - 5)", "'text'"};
    std::vector<std::pair<std::string, std::string>> out;
    int n = Pick(3) + 1;
    for (int i = 0; i < n; ++i) {
      switch (Pick(9)) {
        case 0:
        case 1:
          out.emplace_back("forecast", OneOf(forecast));
          break;
        case 2:
        case 3:
          out.emplace_back("day", OneOf(day));
          break;
        case 4:
        case 5:
          out.emplace_back("node", OneOf(node));
          break;
        case 6:
        case 7:
          out.emplace_back("walltime", OneOf(walltime));
          break;
        default:
          out.emplace_back(Pick(4) == 0 ? "ghost" : "walltime",
                           DoubleLit());
          break;
      }
    }
    return out;
  }

  std::string Next(bool* ordered) {
    bool joined = Pick(4) == 0;
    std::string from =
        joined ? "FROM runs JOIN nodes ON node = node" : "FROM runs";
    bool agg = !joined && Pick(3) == 0;
    std::string sql;
    std::vector<std::string> order_cols;
    if (agg) {
      static const char* keys[] = {"forecast", "node", "day"};
      std::string key = keys[Pick(Pick(3) == 0 ? 3 : 2)];
      sql = "SELECT " + key +
            ", COUNT(*) AS n, AVG(walltime) AS aw, MIN(walltime) AS lo, "
            "MAX(walltime) AS hi, SUM(day) AS sd " +
            from + " ";
      if (Pick(2) == 0) sql += "WHERE " + Where(false) + " ";
      sql += "GROUP BY " + key + " ";
      if (Pick(3) == 0) sql += "HAVING n > 5 ";
      order_cols = {key, "n", "aw"};
    } else {
      static const char* items[] = {
          "*", "forecast, day", "node, walltime",
          "forecast, day, node, walltime", "day, day + 1 AS next_day"};
      std::string item = OneOf(items);
      if (joined) item = Pick(2) == 0 ? "*" : "forecast, day, speed";
      bool distinct = !joined && Pick(5) == 0;
      if (distinct) item = Pick(2) == 0 ? "forecast" : "forecast, node";
      sql = std::string("SELECT ") + (distinct ? "DISTINCT " : "") + item +
            " " + from + " ";
      if (Pick(5) != 0) sql += "WHERE " + Where(joined) + " ";
      if (item == "*") {
        order_cols = {"forecast", "day", "node", "walltime"};
      } else if (!distinct) {
        order_cols = {"day"};
      } else {
        order_cols = {"forecast"};
      }
    }
    *ordered = Pick(2) == 0;
    if (*ordered) {
      sql += "ORDER BY " + order_cols[Pick(static_cast<int>(
                               order_cols.size()))];
      if (Pick(2) == 0) sql += " DESC";
      if (order_cols.size() > 1 && Pick(2) == 0) {
        sql += ", " + order_cols[0] + " ASC";
      }
      sql += " ";
    }
    if (Pick(3) == 0) {
      sql += "LIMIT " + std::to_string(Pick(40));
      if (Pick(2) == 0) sql += " OFFSET " + std::to_string(Pick(20));
    }
    return sql;
  }
};

/// Rendered result, row order normalized away unless `ordered`.
inline std::string Canonical(const ResultSet& rs, bool ordered) {
  std::string csv = rs.ToCsv();
  if (ordered) return csv;
  std::vector<std::string> lines = util::Split(csv, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() > 1) std::sort(lines.begin() + 1, lines.end());
  return util::Join(lines, "\n");
}

}  // namespace property
}  // namespace statsdb
}  // namespace ff

#endif  // FF_TESTS_PROPERTY_SQLGEN_H_

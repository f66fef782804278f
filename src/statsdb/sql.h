// SQL subset for the statistics database.
//
// Supported statements (keywords case-insensitive):
//
//   SELECT [DISTINCT] * | item[, item...]
//     FROM table [JOIN table2 ON col1 = col2]
//     [WHERE expr] [GROUP BY col[, col...]] [HAVING expr]
//     [ORDER BY col [ASC|DESC][, ...]] [LIMIT n [OFFSET m]]
//   CREATE TABLE name (col TYPE[, ...])
//   INSERT INTO name VALUES (lit[, ...])[, (...)...]
//   UPDATE name SET col = expr[, ...] [WHERE expr]
//   DELETE FROM name [WHERE expr]
//
// Predicates additionally support [NOT] IN (expr, ...), [NOT] BETWEEN
// lo AND hi, LIKE, and IS [NOT] NULL. UPDATE exists for the paper's
// §4.3.2 maintenance path: "a currently executing forecast will have
// incomplete statistics in the database" that get patched on completion.
//
// Aggregates COUNT(*)/COUNT/SUM/AVG/MIN/MAX may appear as top-level select
// items (optionally aliased). This covers every query the paper issues
// against its run-statistics database, e.g.
//   SELECT forecast FROM runs WHERE code_version = 'X'           (§4.3.2)
//   SELECT AVG(walltime) FROM runs WHERE forecast='tillamook'
//     AND node='f1' AND timesteps=5760                            (§4.1)

#ifndef FF_STATSDB_SQL_H_
#define FF_STATSDB_SQL_H_

#include <memory>
#include <string>
#include <vector>

#include "statsdb/expr.h"
#include "statsdb/query.h"

namespace ff {
namespace obs {
struct QueryProfile;
}  // namespace obs
namespace statsdb {

class Database;

/// Parses and executes one SQL statement against `db`.
util::StatusOr<ResultSet> ExecuteSql(Database* db,
                                     const std::string& statement);

/// A parsed CREATE, INSERT, UPDATE or DELETE. Parsing reads no table,
/// so a caller that runs writes one at a time (net::Server's writer
/// thread) can parse a statement before queueing it and run only
/// ExecuteWrite in the serialized section. Copies share the statement;
/// execute it once (an INSERT's rows are moved into the table).
struct WriteStatement {
  struct Parsed;  // defined in sql.cc
  std::shared_ptr<Parsed> parsed;
};

/// Parses a write statement. Fails exactly as ExecuteSql does on the
/// same text before it reads any table; a SELECT or EXPLAIN is a
/// ParseError ("not a write statement").
util::StatusOr<WriteStatement> ParseWrite(const std::string& statement);

/// Executes a statement from ParseWrite: ExecuteSql(db, text) is
/// ParseWrite(text) followed by this, for every write.
util::StatusOr<ResultSet> ExecuteWrite(Database* db,
                                       const WriteStatement& write);

/// A compiled SELECT with `?` parameter placeholders: parse, plan, and
/// optimization happen once at Prepare time; Execute(params) binds the
/// placeholders and runs through the result cache + engines. Dashboard
/// templates ("SELECT avg(walltime) FROM runs WHERE forecast = ?") thus
/// share one plan across bindings while each binding keys its own
/// result-cache entry.
///
/// Placeholders may appear wherever a literal may inside a SELECT's
/// expressions. A bound placeholder participates in zone-map pruning
/// and simple-predicate matching like a literal. A statement takes the
/// same access path as its literal form: the planner marks `col = ?` on
/// an indexed column for the hash index, and the scan reads the bound
/// key, falling back to a full scan when that key is NULL or not
/// comparable with the column, as the literal form does (plan.h).
/// So a binding returns the literal statement's rows or error text,
/// byte for byte.
///
/// Copies share binding slots with the original — don't Execute two
/// copies concurrently. Obtain via Database::Prepare.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  /// Number of `?` placeholders, in left-to-right statement order.
  size_t num_params() const { return slots_.size(); }
  const std::string& sql() const { return sql_; }

  /// Binds `params` (one Value per placeholder, in order) and executes
  /// through ExecuteOptimized, which fills a non-null `profile`.
  /// InvalidArgument when the count does not match.
  util::StatusOr<ResultSet> Execute(
      const std::vector<Value>& params,
      obs::QueryProfile* profile = nullptr) const;

 private:
  friend util::StatusOr<PreparedStatement> PrepareSql(
      Database* db, const std::string& statement);

  const Database* db_ = nullptr;
  std::string sql_;
  PlanPtr plan_;  // optimized at Prepare time
  std::vector<std::shared_ptr<ParamSlot>> slots_;
};

/// Implementation behind Database::Prepare. SELECT only.
util::StatusOr<PreparedStatement> PrepareSql(Database* db,
                                             const std::string& statement);

/// Parses a SELECT statement into its logical plan without executing it.
/// Table/column binding happens at execution time, so no database is
/// needed here. Tests and benchmarks use it to run the same query through
/// the vectorized engine (exec.h) and the test-only row-at-a-time oracle.
util::StatusOr<PlanPtr> PlanSql(const std::string& statement);

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_SQL_H_

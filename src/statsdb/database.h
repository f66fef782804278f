// Database: the catalog of statsdb tables plus the SQL entry point.

#ifndef FF_STATSDB_DATABASE_H_
#define FF_STATSDB_DATABASE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "statsdb/cache.h"
#include "statsdb/query.h"
#include "statsdb/sql.h"
#include "statsdb/table.h"

namespace ff {
namespace parallel {
class ThreadPool;
}  // namespace parallel

namespace statsdb {

/// Morsel-parallel execution settings of a Database (exec.h states the
/// determinism contract). A query fans out only when `pool` is set and
/// has more than one thread; otherwise it runs serially.
struct ParallelConfig {
  /// Pool the morsels run on (not owned; e.g. the server's pool or a
  /// SweepRunner's shared pool). Null: every query runs serially.
  parallel::ThreadPool* pool = nullptr;
  /// Chains whose survey yields fewer scan units (chunks, or blocks of
  /// index matches) than this stay serial: tiny queries should not pay
  /// fan-out overhead.
  size_t min_chunks = 4;
};

/// A named collection of tables. Reads may run on any number of threads
/// at once: SELECTs (through Sql, Prepare and a PreparedStatement's
/// Execute, or ExecutePlan) and the catalog accessors share no mutable
/// state but the internally synchronized cache. Mutations run
/// exclusively, with no read in flight: a write statement through Sql
/// or ExecuteWrite, CreateTable, DropTable, writes through a Table*,
/// and the config setters. The server holds a shared_mutex for this.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates an empty table; AlreadyExists when the name is taken.
  util::StatusOr<Table*> CreateTable(const std::string& name, Schema schema);

  /// Drops a table; NotFound when absent.
  util::Status DropTable(const std::string& name);

  util::StatusOr<Table*> table(const std::string& name);
  util::StatusOr<const Table*> table(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Executes a SQL statement. SELECT returns rows; CREATE TABLE and
  /// INSERT return an empty ResultSet (INSERT's schema carries a single
  /// "rows_inserted" column).
  util::StatusOr<ResultSet> Sql(const std::string& statement);

  /// Compiles a SELECT (the only statement kind worth preparing) with
  /// `?` placeholders into a reusable statement: parse + plan happen
  /// once, Execute(params) only binds and runs. See sql.h.
  util::StatusOr<PreparedStatement> Prepare(const std::string& statement);

  /// Morsel-parallel execution settings; queries issued through
  /// ExecutePlan/Sql run with them. Default: no pool, serial.
  const ParallelConfig& parallel_config() const { return parallel_config_; }
  void set_parallel_config(ParallelConfig config) {
    parallel_config_ = std::move(config);
  }

  /// Query cache (plan + result tiers, cache.h), seeded from
  /// FF_STATSDB_CACHE. Mutable through const because execution paths
  /// take a const Database&; the cache is internally synchronized.
  QueryCache& cache() const { return *cache_; }
  CacheConfig cache_config() const { return cache_->config(); }
  /// Reconfigures the cache in place; entries persist across config
  /// swaps (QueryCache::set_config), so toggling modes stays warm.
  void set_cache_config(CacheConfig config) {
    cache_->set_config(std::move(config));
  }

  /// Catalog epoch: bumped by CreateTable/DropTable. Plan-cache entries
  /// pin it, so any catalog change invalidates every cached plan.
  uint64_t catalog_epoch() const { return catalog_epoch_; }

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  ParallelConfig parallel_config_;
  std::unique_ptr<QueryCache> cache_;
  uint64_t catalog_epoch_ = 0;
};

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_DATABASE_H_

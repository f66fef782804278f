// Two-tier query cache: optimized plans keyed by SQL text fingerprint,
// materialized results keyed by (plan fingerprint, referenced-table
// epochs).
//
// The factory's consumers are dashboards and planners that re-issue the
// same statistics queries continuously (ForeMan re-reads run history on
// every estimation update), yet each Database::Sql call used to
// re-parse, re-plan, and re-scan from scratch. This layer makes the
// repeat path cheap without changing a single observable byte:
//
//  * Plan tier — normalized-SQL-text fingerprint -> optimized PlanPtr.
//    Plans are immutable (shared_ptr<const PlanNode>), so sharing one
//    across executions is free. Entries pin the database catalog epoch
//    and each referenced table's ddl epoch: CREATE TABLE / DROP TABLE /
//    CREATE INDEX invalidate affected plans implicitly (index selection
//    happens at plan time), while plain data writes do not.
//
//  * Result tier — structural plan fingerprint -> materialized
//    ResultSet, with the referenced tables' DATA epochs captured at
//    store time. A lookup recomputes current epochs and serves the
//    entry only on exact match, so any write to any referenced table
//    (Insert, UpdateCells, DeleteRows, BulkAppender::EndRow) invalidates
//    implicitly — there is no invalidation hook to forget. The parallel
//    config is deliberately NOT part of the key: the engines are
//    byte-identical at any pool size (exec.h contract), so a
//    result computed serially may legally serve a parallel session.
//
// Correctness contract (tested by the property suite's cache lane):
// with caching on, every result — rows, row order, error text — is
// byte-identical to cache-off on both engines at any pool size. Error
// results are never cached (re-executing an erroring statement is the
// byte-identical behaviour, and errors are cheap). Plans containing
// unbound parameters are uncacheable in the result tier and bypass it.
//
// Eviction is exact LRU in both tiers: the victim is the entry with the
// oldest recency stamp. A store finds it through a lazily refreshed
// min-heap of stamps (QueryCache::LruHeap): O(log entries) per store
// and per hit since the victim's item went in, amortized, instead of a
// scan over every entry (1,024 result entries by default) under the
// exclusive lock that every hit waits behind.
//
// Concurrency: lookups take a shared lock and touch per-entry
// recency stamps with relaxed atomics, so concurrent readers never
// serialize on the cache (a hit never touches the heap);
// stores/evictions take the exclusive side.
// Counters are relaxed atomics. The cache itself is TSan-clean for
// any mix of concurrent Get/Put/Stats (tests/statsdb/cache_test.cc
// hammers it under the CI TSan job); whether a whole Database may be
// shared across threads is governed by Database's own contract.
//
// Knob: the FF_STATSDB_CACHE environment variable seeds each new
// Database's config —
//   FF_STATSDB_CACHE=off|0|false     disabled (the default)
//   FF_STATSDB_CACHE=plan            plan tier only
//   FF_STATSDB_CACHE=full|on|1|true  both tiers
//   FF_STATSDB_CACHE=full:E          ... result entry cap E
//   FF_STATSDB_CACHE=full:E:B        ... and result byte budget B
// Caching defaults OFF because a cache hit
// short-circuits execution entirely: engine-comparison tests and
// profiling runs must opt in, not discover their engines were never
// exercised.

#ifndef FF_STATSDB_CACHE_H_
#define FF_STATSDB_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "statsdb/query.h"
#include "util/fingerprint.h"

namespace ff {
namespace statsdb {

class Database;

/// Cache tuning, per Database (Database::set_cache_config) and seeded
/// from FF_STATSDB_CACHE (see file comment).
struct CacheConfig {
  enum class Mode { kOff, kPlanOnly, kFull };
  Mode mode = Mode::kOff;
  /// Plan-tier entry cap.
  size_t plan_entries = 256;
  /// Result-tier entry cap.
  size_t result_entries = 1024;
  /// Result-tier byte budget (estimated result footprint). A single
  /// result larger than the whole budget is simply not stored.
  size_t result_bytes = 64ull << 20;

  static CacheConfig FromEnv();
};

/// Two independently-seeded fingerprint streams advanced in lockstep:
/// 128 bits of key material, so cache keys cannot collide in practice.
/// The primary digest indexes the hash map; the secondary is verified
/// before an entry is served.
class DualFingerprint {
 public:
  DualFingerprint();
  DualFingerprint& U8(uint8_t v);
  DualFingerprint& U64(uint64_t v);
  DualFingerprint& Str(std::string_view s);
  uint64_t fp() const { return a_.Digest(); }
  uint64_t check() const { return b_.Digest(); }

 private:
  util::FingerprintStream a_;
  util::FingerprintStream b_;
};

/// Monotonic hit/miss/bypass/evict counters plus current occupancy.
/// "Bypass" counts queries that consulted the layer while it could not
/// apply (tier disabled, or an uncacheable plan); "invalidation" counts
/// entries found stale (epoch mismatch) and recorded as misses.
struct QueryCacheStats {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_bypasses = 0;
  uint64_t plan_invalidations = 0;
  uint64_t plan_evictions = 0;
  uint64_t plan_entries = 0;

  uint64_t result_hits = 0;
  uint64_t result_misses = 0;
  uint64_t result_bypasses = 0;
  uint64_t result_invalidations = 0;
  uint64_t result_evictions = 0;
  uint64_t result_entries = 0;
  uint64_t result_bytes = 0;
};

/// Rough heap footprint of a materialized result, for the byte budget.
size_t EstimateResultBytes(const ResultSet& rs);

class QueryCache {
 public:
  using EpochVector = std::vector<std::pair<std::string, uint64_t>>;

  struct Key {
    uint64_t fp = 0;
    uint64_t check = 0;
  };

  /// Result-tier key: the plan's structural identity plus the current
  /// data epochs of every referenced table (sorted by table name).
  struct ResultKey {
    bool cacheable = false;
    Key key;
    EpochVector epochs;
  };

  explicit QueryCache(CacheConfig config);

  CacheConfig config() const;
  /// Replaces the config. Existing entries are KEPT (re-evicted to the
  /// new budgets); toggling the mode off and back on finds a warm
  /// cache. Use Clear() to actually drop entries.
  void set_config(CacheConfig config);
  void Clear();

  // ---------------------------------------------------------- plan tier
  /// Returns the cached optimized plan for a normalized SQL text
  /// fingerprint, or null on miss. An entry is served only when the
  /// database catalog epoch and every referenced table's ddl epoch
  /// still match (DDL since planning invalidates).
  PlanPtr GetPlan(const Key& key, const Database& db);
  /// Stores an optimized plan, snapshotting the current catalog/ddl
  /// epochs. Replaces any stale entry under the same fingerprint.
  void PutPlan(const Key& key, const Database& db, const PlanPtr& optimized);
  void RecordPlanBypass();

  // -------------------------------------------------------- result tier
  /// Builds the result-tier key for an optimized plan against the
  /// database's CURRENT table epochs. cacheable=false (bypass) when the
  /// plan holds an unbound parameter or references a missing table.
  static ResultKey MakeResultKey(const PlanNode& plan, const Database& db);
  /// Returns the cached result on an exact (fingerprint, epochs) match;
  /// null on miss or stale entry. Concurrent callers share the lock.
  std::shared_ptr<const ResultSet> GetResult(const ResultKey& key);
  /// Stores a successful result. Never store errors: re-execution is
  /// the byte-identical (and cheap) behaviour for them.
  void PutResult(const ResultKey& key, const ResultSet& result);
  void RecordResultBypass();

  QueryCacheStats Stats() const;

 private:
  struct PlanEntry {
    PlanEntry(uint64_t check_in, uint64_t catalog_epoch_in,
              EpochVector ddl_epochs_in, PlanPtr plan_in, uint64_t used)
        : check(check_in),
          catalog_epoch(catalog_epoch_in),
          ddl_epochs(std::move(ddl_epochs_in)),
          plan(std::move(plan_in)),
          last_used(used) {}
    uint64_t check;
    uint64_t catalog_epoch;
    EpochVector ddl_epochs;  // (table, ddl epoch) at plan time
    PlanPtr plan;
    std::atomic<uint64_t> last_used;
  };

  struct ResultEntry {
    ResultEntry(uint64_t check_in, EpochVector epochs_in,
                std::shared_ptr<const ResultSet> result_in, size_t bytes_in,
                uint64_t used)
        : check(check_in),
          epochs(std::move(epochs_in)),
          result(std::move(result_in)),
          bytes(bytes_in),
          last_used(used) {}
    uint64_t check;
    EpochVector epochs;  // (table, data epoch) at store time
    std::shared_ptr<const ResultSet> result;
    size_t bytes;
    std::atomic<uint64_t> last_used;
  };

  /// Exact-LRU victim finder for one tier: a min-heap of
  /// (last_used, fp) items, refreshed lazily. Every entry of the tier
  /// keeps an item no newer than its stamp; a popped item whose stamp is
  /// stale goes back with the entry's current one, and an item whose
  /// entry is gone is dropped. Stamps are unique and an entry's stamp
  /// only grows, so the first current item popped is the entry a scan
  /// for the smallest stamp would find.
  /// The heap is rebuilt from the map when it holds more than twice the
  /// map's entries. Used under the exclusive lock only.
  class LruHeap {
   public:
    /// Records `fp`, just stored in `map` with stamp `used`.
    template <typename Map>
    void Push(const Map& map, uint64_t fp, uint64_t used);
    /// The entry of non-empty `map` with the smallest last_used.
    template <typename Map>
    typename Map::iterator Oldest(Map* map);
    void Clear() { heap_.clear(); }

   private:
    template <typename Map>
    void Rebuild(const Map& map);

    std::vector<std::pair<uint64_t, uint64_t>> heap_;  // (stamp, fp)
  };

  uint64_t Touch() { return use_clock_.fetch_add(1, std::memory_order_relaxed) + 1; }
  /// Evicts least-recently-used entries until both budgets hold.
  /// Callers hold the exclusive lock.
  void EvictPlansLocked();
  void EvictResultsLocked();

  mutable std::shared_mutex mu_;
  CacheConfig config_;
  std::unordered_map<uint64_t, PlanEntry> plans_;
  std::unordered_map<uint64_t, ResultEntry> results_;
  LruHeap plan_lru_;
  LruHeap result_lru_;
  size_t result_bytes_total_ = 0;
  std::atomic<uint64_t> use_clock_{0};

  std::atomic<uint64_t> plan_hits_{0};
  std::atomic<uint64_t> plan_misses_{0};
  std::atomic<uint64_t> plan_bypasses_{0};
  std::atomic<uint64_t> plan_invalidations_{0};
  std::atomic<uint64_t> plan_evictions_{0};
  std::atomic<uint64_t> result_hits_{0};
  std::atomic<uint64_t> result_misses_{0};
  std::atomic<uint64_t> result_bypasses_{0};
  std::atomic<uint64_t> result_invalidations_{0};
  std::atomic<uint64_t> result_evictions_{0};
};

}  // namespace statsdb
}  // namespace ff

#endif  // FF_STATSDB_CACHE_H_

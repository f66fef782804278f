#include "statsdb/cache.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "statsdb/database.h"
#include "statsdb/expr.h"
#include "statsdb/plan.h"
#include "statsdb/table.h"

namespace ff {
namespace statsdb {
namespace {

// Tag namespaces keep plan kinds, expr kinds, and value types from
// aliasing each other in the fingerprint byte stream.
constexpr uint8_t kPlanTag = 0xA0;
constexpr uint8_t kValueTag = 0xC0;
constexpr uint8_t kExprTag = 0xE0;

void FpValue(const Value& v, DualFingerprint* fp) {
  fp->U8(kValueTag + static_cast<uint8_t>(v.type()));
  if (v.is_null()) return;
  switch (v.type()) {
    case DataType::kBool:
      fp->U8(v.bool_value() ? 1 : 0);
      break;
    case DataType::kInt64:
      fp->U64(static_cast<uint64_t>(v.int64_value()));
      break;
    case DataType::kDouble:
      // Raw bit pattern, not a decimal rendering: two doubles that
      // print alike must not share a fingerprint.
      fp->U64(std::bit_cast<uint64_t>(v.double_value()));
      break;
    case DataType::kString:
      fp->Str(v.string_value());
      break;
    case DataType::kNull:
      break;
  }
}

/// Returns false when the expression cannot be fingerprinted (an
/// unbound parameter has no value yet).
bool FpExpr(const Expr& e, DualFingerprint* fp) {
  fp->U8(kExprTag + static_cast<uint8_t>(e.kind()));
  switch (e.kind()) {
    case Expr::Kind::kLiteral:
      FpValue(*e.literal(), fp);
      return true;
    case Expr::Kind::kParam: {
      // A bound parameter fingerprints as its value: two bindings of
      // the same prepared statement get distinct result-cache entries.
      const Value* bound = e.literal();
      if (bound == nullptr) return false;
      FpValue(*bound, fp);
      return true;
    }
    case Expr::Kind::kColumn:
      fp->Str(*e.column());
      return true;
    case Expr::Kind::kUnary:
      fp->U8(static_cast<uint8_t>(e.unary_op()));
      return FpExpr(*e.child(0), fp);
    case Expr::Kind::kBinary:
      fp->U8(static_cast<uint8_t>(e.binary_op()));
      return FpExpr(*e.child(0), fp) && FpExpr(*e.child(1), fp);
  }
  return false;
}

bool FpOptionalExpr(const ExprPtr& e, DualFingerprint* fp) {
  fp->U8(e == nullptr ? 0 : 1);
  return e == nullptr || FpExpr(*e, fp);
}

/// Structural fingerprint walk; collects referenced table names into
/// *tables (with duplicates). Returns false for uncacheable plans: those
/// with unbound parameters.
bool FpPlan(const PlanNode& plan, DualFingerprint* fp,
            std::vector<std::string>* tables) {
  fp->U8(kPlanTag + static_cast<uint8_t>(plan.kind()));
  switch (plan.kind()) {
    case PlanKind::kScan: {
      const auto& n = static_cast<const ScanNode&>(plan);
      tables->push_back(n.table);
      fp->Str(n.table);
      fp->U64(n.index_keys.size());
      for (const auto& k : n.index_keys) {
        fp->Str(k.column);
        if (!FpExpr(*k.key, fp)) return false;
      }
      return FpOptionalExpr(n.predicate, fp);
    }
    case PlanKind::kFilter: {
      const auto& n = static_cast<const FilterNode&>(plan);
      return FpOptionalExpr(n.predicate, fp) && FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kProject: {
      const auto& n = static_cast<const ProjectNode&>(plan);
      fp->U64(n.items.size());
      for (const auto& item : n.items) {
        fp->Str(item.alias);
        if (!FpExpr(*item.expr, fp)) return false;
      }
      return FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(plan);
      fp->U64(n.group_by.size());
      for (const auto& g : n.group_by) fp->Str(g);
      fp->U64(n.aggs.size());
      for (const auto& a : n.aggs) {
        fp->U8(static_cast<uint8_t>(a.func));
        fp->Str(a.alias);
        if (!FpOptionalExpr(a.arg, fp)) return false;
      }
      return FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kSort: {
      const auto& n = static_cast<const SortNode&>(plan);
      fp->U64(n.keys.size());
      for (const auto& k : n.keys) {
        fp->Str(k.column);
        fp->U8(k.ascending ? 1 : 0);
      }
      fp->U64(n.limit_hint);
      return FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kLimit: {
      const auto& n = static_cast<const LimitNode&>(plan);
      fp->U64(n.limit);
      fp->U64(n.offset);
      return FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kDistinct: {
      const auto& n = static_cast<const DistinctNode&>(plan);
      return FpPlan(*n.input, fp, tables);
    }
    case PlanKind::kHashJoin: {
      const auto& n = static_cast<const HashJoinNode&>(plan);
      fp->Str(n.left_col);
      fp->Str(n.right_col);
      return FpPlan(*n.left, fp, tables) && FpPlan(*n.right, fp, tables);
    }
  }
  return false;
}

void SortUnique(std::vector<std::string>* names) {
  std::sort(names->begin(), names->end());
  names->erase(std::unique(names->begin(), names->end()), names->end());
}

}  // namespace

CacheConfig CacheConfig::FromEnv() {
  CacheConfig cfg;
  const char* env = std::getenv("FF_STATSDB_CACHE");
  if (env == nullptr || *env == '\0') return cfg;
  std::string v(env);
  std::vector<std::string> fields;
  for (size_t pos = 0; pos != std::string::npos;) {
    size_t colon = v.find(':', pos);
    fields.push_back(v.substr(
        pos, colon == std::string::npos ? std::string::npos : colon - pos));
    pos = colon == std::string::npos ? colon : colon + 1;
  }
  const std::string& mode = fields[0];
  if (mode == "plan") {
    cfg.mode = Mode::kPlanOnly;
  } else if (mode == "full" || mode == "on" || mode == "1" ||
             mode == "true") {
    cfg.mode = Mode::kFull;
  }  // "off"/"0"/"false"/unknown stay at the kOff default
  auto parse = [](const std::string& field, size_t* out) {
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(field.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      *out = static_cast<size_t>(parsed);
    }
  };
  if (fields.size() > 1) parse(fields[1], &cfg.result_entries);
  if (fields.size() > 2) parse(fields[2], &cfg.result_bytes);
  return cfg;
}

// ------------------------------------------------------- DualFingerprint

DualFingerprint::DualFingerprint() {
  // Diverge the secondary stream's state so the two digests are
  // independent functions of the same token sequence.
  b_.U64(0x9e3779b97f4a7c15ULL);
}

DualFingerprint& DualFingerprint::U8(uint8_t v) {
  a_.U8(v);
  b_.U8(v);
  return *this;
}

DualFingerprint& DualFingerprint::U64(uint64_t v) {
  a_.U64(v);
  b_.U64(v);
  return *this;
}

DualFingerprint& DualFingerprint::Str(std::string_view s) {
  a_.Str(s);
  b_.Str(s);
  return *this;
}

// ----------------------------------------------------------- QueryCache

size_t EstimateResultBytes(const ResultSet& rs) {
  size_t bytes = sizeof(ResultSet);
  for (size_t c = 0; c < rs.schema.num_columns(); ++c) {
    bytes += sizeof(Column) + rs.schema.column(c).name.size();
  }
  bytes += rs.rows.capacity() * sizeof(Row);
  for (const auto& row : rs.rows) {
    bytes += row.capacity() * sizeof(Value);
    for (const auto& v : row) {
      if (!v.is_null() && v.type() == DataType::kString) {
        bytes += v.string_value().size();
      }
    }
  }
  return bytes;
}

template <typename Map>
void QueryCache::LruHeap::Push(const Map& map, uint64_t fp, uint64_t used) {
  heap_.emplace_back(used, fp);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  if (heap_.size() > 2 * map.size()) Rebuild(map);
}

template <typename Map>
typename Map::iterator QueryCache::LruHeap::Oldest(Map* map) {
  for (;;) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [stamp, fp] = heap_.back();
    heap_.pop_back();
    auto it = map->find(fp);
    if (it == map->end()) continue;  // evicted through another item
    const uint64_t used =
        it->second.last_used.load(std::memory_order_relaxed);
    if (used == stamp) return it;
    // Touched (or replaced in place) since the item went in.
    heap_.emplace_back(used, fp);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
}

template <typename Map>
void QueryCache::LruHeap::Rebuild(const Map& map) {
  heap_.clear();
  for (const auto& [fp, entry] : map) {
    heap_.emplace_back(entry.last_used.load(std::memory_order_relaxed), fp);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

QueryCache::QueryCache(CacheConfig config) : config_(std::move(config)) {}

CacheConfig QueryCache::config() const {
  std::shared_lock lock(mu_);
  return config_;
}

void QueryCache::set_config(CacheConfig config) {
  std::unique_lock lock(mu_);
  config_ = std::move(config);
  EvictPlansLocked();
  EvictResultsLocked();
}

void QueryCache::Clear() {
  std::unique_lock lock(mu_);
  plans_.clear();
  results_.clear();
  plan_lru_.Clear();
  result_lru_.Clear();
  result_bytes_total_ = 0;
}

PlanPtr QueryCache::GetPlan(const Key& key, const Database& db) {
  std::shared_lock lock(mu_);
  auto it = plans_.find(key.fp);
  if (it == plans_.end() || it->second.check != key.check) {
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  PlanEntry& entry = it->second;
  bool valid = entry.catalog_epoch == db.catalog_epoch();
  for (const auto& [name, ddl] : entry.ddl_epochs) {
    if (!valid) break;
    auto table = db.table(name);
    valid = table.ok() && (*table)->ddl_epoch() == ddl;
  }
  if (!valid) {
    // Stale: DDL since planning. Report a miss; the re-plan's PutPlan
    // overwrites this entry (same fingerprint), so no erase here and
    // the shared lock suffices.
    plan_invalidations_.fetch_add(1, std::memory_order_relaxed);
    plan_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  entry.last_used.store(Touch(), std::memory_order_relaxed);
  plan_hits_.fetch_add(1, std::memory_order_relaxed);
  return entry.plan;
}

void QueryCache::PutPlan(const Key& key, const Database& db,
                         const PlanPtr& optimized) {
  if (optimized == nullptr) return;
  std::vector<std::string> tables;
  {
    DualFingerprint ignored;
    FpPlan(*optimized, &ignored, &tables);
  }
  SortUnique(&tables);
  EpochVector ddl_epochs;
  ddl_epochs.reserve(tables.size());
  for (const auto& name : tables) {
    auto table = db.table(name);
    ddl_epochs.emplace_back(name, table.ok() ? (*table)->ddl_epoch() : 0);
  }
  std::unique_lock lock(mu_);
  if (config_.plan_entries == 0) return;
  plans_.erase(key.fp);
  const uint64_t used = Touch();
  plans_.try_emplace(key.fp, key.check, db.catalog_epoch(),
                     std::move(ddl_epochs), optimized, used);
  plan_lru_.Push(plans_, key.fp, used);
  EvictPlansLocked();
}

void QueryCache::RecordPlanBypass() {
  plan_bypasses_.fetch_add(1, std::memory_order_relaxed);
}

QueryCache::ResultKey QueryCache::MakeResultKey(const PlanNode& plan,
                                                const Database& db) {
  ResultKey key;
  DualFingerprint fp;
  std::vector<std::string> tables;
  if (!FpPlan(plan, &fp, &tables)) return key;  // uncacheable
  SortUnique(&tables);
  key.epochs.reserve(tables.size());
  for (const auto& name : tables) {
    auto table = db.table(name);
    // A missing table errors at execution; errors are never cached.
    if (!table.ok()) return key;
    key.epochs.emplace_back(name, (*table)->epoch());
  }
  key.key.fp = fp.fp();
  key.key.check = fp.check();
  key.cacheable = true;
  return key;
}

std::shared_ptr<const ResultSet> QueryCache::GetResult(const ResultKey& key) {
  std::shared_lock lock(mu_);
  auto it = results_.find(key.key.fp);
  if (it == results_.end() || it->second.check != key.key.check) {
    result_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  ResultEntry& entry = it->second;
  if (entry.epochs != key.epochs) {
    // A referenced table was written since the store: implicit
    // invalidation. The re-execution's PutResult overwrites the entry.
    result_invalidations_.fetch_add(1, std::memory_order_relaxed);
    result_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  entry.last_used.store(Touch(), std::memory_order_relaxed);
  result_hits_.fetch_add(1, std::memory_order_relaxed);
  return entry.result;
}

void QueryCache::PutResult(const ResultKey& key, const ResultSet& result) {
  if (!key.cacheable) return;
  size_t bytes = EstimateResultBytes(result);
  std::unique_lock lock(mu_);
  if (config_.result_entries == 0 || bytes > config_.result_bytes) return;
  auto it = results_.find(key.key.fp);
  if (it != results_.end()) {
    result_bytes_total_ -= it->second.bytes;
    results_.erase(it);
  }
  const uint64_t used = Touch();
  results_.try_emplace(key.key.fp, key.key.check, key.epochs,
                       std::make_shared<const ResultSet>(result), bytes,
                       used);
  result_lru_.Push(results_, key.key.fp, used);
  result_bytes_total_ += bytes;
  EvictResultsLocked();
}

void QueryCache::RecordResultBypass() {
  result_bypasses_.fetch_add(1, std::memory_order_relaxed);
}

void QueryCache::EvictPlansLocked() {
  while (!plans_.empty() && plans_.size() > config_.plan_entries) {
    plans_.erase(plan_lru_.Oldest(&plans_));
    plan_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void QueryCache::EvictResultsLocked() {
  while (!results_.empty() && (results_.size() > config_.result_entries ||
                               result_bytes_total_ > config_.result_bytes)) {
    auto victim = result_lru_.Oldest(&results_);
    result_bytes_total_ -= victim->second.bytes;
    results_.erase(victim);
    result_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

QueryCacheStats QueryCache::Stats() const {
  QueryCacheStats s;
  s.plan_hits = plan_hits_.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses_.load(std::memory_order_relaxed);
  s.plan_bypasses = plan_bypasses_.load(std::memory_order_relaxed);
  s.plan_invalidations = plan_invalidations_.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.result_misses = result_misses_.load(std::memory_order_relaxed);
  s.result_bypasses = result_bypasses_.load(std::memory_order_relaxed);
  s.result_invalidations =
      result_invalidations_.load(std::memory_order_relaxed);
  s.result_evictions = result_evictions_.load(std::memory_order_relaxed);
  std::shared_lock lock(mu_);
  s.plan_entries = plans_.size();
  s.result_entries = results_.size();
  s.result_bytes = result_bytes_total_;
  return s;
}

}  // namespace statsdb
}  // namespace ff

#include "statsdb/parallel_exec.h"

#include <cstdlib>
#include <memory>
#include <string>

#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/exec.h"

namespace ff {
namespace statsdb {
namespace {

/// Start time for StampTotal: now when `profile` is timed, else 0.
int64_t ProfileStart(const obs::QueryProfile* profile) {
  return obs::kProfilingCompiledIn && profile != nullptr
             ? obs::RuntimeNowNs()
             : 0;
}

/// Sets profile->total_ns to the time since `t0` (ProfileStart).
void StampTotal(obs::QueryProfile* profile, int64_t t0) {
  if (obs::kProfilingCompiledIn && profile != nullptr) {
    profile->total_ns = static_cast<uint64_t>(obs::RuntimeNowNs() - t0);
  }
}

}  // namespace

ParallelConfig ParallelConfig::FromEnv() {
  ParallelConfig cfg;
  const char* env = std::getenv("FF_STATSDB_PARALLEL");
  if (env == nullptr || *env == '\0') return cfg;
  std::string v(env);
  if (v == "off" || v == "0" || v == "false") {
    cfg.max_threads = 1;
    return cfg;
  }
  char* end = nullptr;
  unsigned long t = std::strtoul(v.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && t > 0) {
    cfg.max_threads = static_cast<size_t>(t);
  }
  return cfg;
}

util::StatusOr<ResultSet> ExecuteParallel(const PlanPtr& plan,
                                          const Database& db,
                                          const ParallelConfig& config,
                                          obs::QueryProfile* profile) {
  if (plan == nullptr) {
    return util::Status::InvalidArgument("null plan");
  }
  size_t threads = config.max_threads == 0
                       ? parallel::ThreadPool::DefaultThreads()
                       : config.max_threads;
  if (threads <= 1) return ExecuteColumnar(*plan, db, profile);
  ParallelConfig par = config;
  if (par.pool == nullptr) par.pool = db.parallel_pool(threads);
  return ExecuteColumnar(*plan, db, profile, &par);
}

util::StatusOr<ResultSet> ExecuteOptimized(const PlanPtr& optimized,
                                           const Database& db,
                                           obs::QueryProfile* profile) {
  if (optimized == nullptr) {
    return util::Status::InvalidArgument("null plan");
  }
  const int64_t t0 = ProfileStart(profile);
  QueryCache& qc = db.cache();
  QueryCache::ResultKey key;
  if (qc.config().mode == CacheConfig::Mode::kFull) {
    key = QueryCache::MakeResultKey(*optimized, db);
  }
  if (!key.cacheable) {
    qc.RecordResultBypass();
    if (profile != nullptr) profile->cache = "bypass";
  } else if (std::shared_ptr<const ResultSet> hit = qc.GetResult(key)) {
    // Nothing executed: no operator tree, and the engine label says so.
    // The result bytes are identical to a real run by contract.
    if (profile != nullptr) {
      profile->cache = "hit";
      profile->engine = "cache";
    }
    StampTotal(profile, t0);
    return *hit;  // copy out; the cached ResultSet stays immutable
  } else if (profile != nullptr) {
    profile->cache = "miss";
  }
  auto result = ExecuteParallel(optimized, db, db.parallel_config(), profile);
  StampTotal(profile, t0);  // the cache lookup included
  if (key.cacheable && result.ok()) qc.PutResult(key, *result);
  return result;
}

}  // namespace statsdb
}  // namespace ff

// Workloads `dashboard` and `ingest`: the statistics database served
// over the wire by an in-process net::Server (default 4-thread pool,
// query cache full) holding the 1000-forecast x 365-day `runs` table.
//
// dashboard  Four reader connections run an open loop at kDashRate
//            reads/s in total: prepared point lookups, per-forecast
//            aggregates and top-k, and a small share of fleet-wide
//            reports, forecasts drawn Zipf-skewed. The gated latency is
//            measured with IdleSpinners keeping idle vCPUs busy; a
//            second open loop without them is reported beside it. Then a
//            closed-loop phase keeps kWindow requests in flight per
//            connection to measure read capacity. A seeded sample of
//            responses must be byte-equal to Database::Sql on an
//            identically loaded in-process copy.
// ingest     Two writer connections act as run scripts in a closed loop
//            (launch INSERT of a day's slice, then the completion
//            UPDATE, each acked before the next); two reader
//            connections send the dashboard mix in an open loop at
//            kIngestReadRate. Every acked write must be readable at the
//            end, with row count and SUM(walltime) equal to what the
//            acks imply. The end-to-end latency is the writers' launch +
//            completion pair. Reads are reported per layer instead of
//            gated: each waits behind whichever write holds the writer
//            gate, so its latency follows where it lands in the writers'
//            cycle.
//
// Open-loop latency is timed from each request's due time.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <thread>

#include "logdata/loader.h"
#include "net/client.h"
#include "net/serialize.h"
#include "net/server.h"
#include "parallel/thread_pool.h"
#include "perfbench/workloads.h"
#include "statsdb/database.h"
#include "util/fingerprint.h"

namespace ff {
namespace bench {
namespace {

using statsdb::Value;

constexpr double kDashRate = 1000.0;       // reads/s over all connections
// Reads/s over both ingest readers: one read per connection every 333 ms,
// about twice a read's p99 behind the writer gate, so the generator keeps
// its schedule (at 16/s loadgen.lag_p99_ms grew to 130-150 ms).
constexpr double kIngestReadRate = 6.0;
constexpr size_t kDashClients = 4;
constexpr size_t kIngestWriters = 2;
constexpr size_t kIngestReaders = 2;
constexpr size_t kWindow = 8;         // capacity phase: in flight per conn
// Dashboard: rounds, each an open loop without spinners (reported), one
// on a host kept busy by spinners (the gated latency), then capacity, in
// these shares of the round.
constexpr int kRounds = 4;
constexpr double kIdleShare = 0.15;
constexpr double kBusyShare = 0.35;
constexpr int kSlice = 50;            // rows per launch INSERT
constexpr size_t kWarmupReads = 200;  // per reader connection
constexpr size_t kOpsPerClient = 1 << 17;
constexpr uint64_t kCheckEvery = 64;  // dashboard: ~1 in 64 responses
constexpr size_t kWriteOpsPerWriter = 1 << 14;
constexpr double kTailWindowS = 1.0;  // read p50/p99: per window, then median
constexpr double kRateWindowS = 0.25;  // capacity: per window, then median

const char* const kShapeSql[kNumReadShapes] = {
    "SELECT walltime FROM runs WHERE forecast = ? AND day = ?",
    "SELECT node, COUNT(*) AS n, AVG(walltime) AS avg_w FROM runs "
    "WHERE forecast = ? GROUP BY node ORDER BY node",
    "SELECT day, walltime FROM runs WHERE forecast = ? "
    "ORDER BY walltime DESC LIMIT 10",
    "SELECT node, COUNT(*) AS n, AVG(walltime) AS avg_w FROM runs "
    "WHERE day BETWEEN ? AND ? GROUP BY node ORDER BY node",
    "SELECT forecast, day, walltime FROM runs "
    "ORDER BY walltime DESC LIMIT 20",
};

std::vector<Value> Params(const ReadOp& op) {
  switch (op.shape) {
    case ReadShape::kPoint:
      return {Value::String(ForecastName(op.forecast)), Value::Int64(op.day)};
    case ReadShape::kAgg:
    case ReadShape::kTopK:
      return {Value::String(ForecastName(op.forecast))};
    case ReadShape::kFleetNodes:
      return {Value::Int64(op.day), Value::Int64(op.day + 30)};
    case ReadShape::kFleetTopK:
      return {};
  }
  return {};
}

/// The same read as literal SQL, for the in-process check.
std::string LiteralSql(const ReadOp& op) {
  std::string sql = kShapeSql[static_cast<int>(op.shape)];
  for (const Value& v : Params(op)) {
    const size_t q = sql.find('?');
    sql.replace(q, 1,
                v.is_null()     ? std::string("NULL")
                : v.type() == statsdb::DataType::kString
                    ? "'" + v.string_value() + "'"
                    : std::to_string(v.int64_value()));
  }
  return sql;
}

double MsSince(int64_t t0) { return (NowNs() - t0) / 1e6; }

/// One connection with the read shapes prepared.
struct ReadConn {
  net::Client client;
  net::Client::Prepared stmts[kNumReadShapes];
  size_t index = 0;  // connection number
  std::vector<ReadOp> ops;
  size_t next = 0;  // next op index
  int64_t decode_ns = 0;
  uint64_t decoded = 0;

  const ReadOp& NextOp() { return ops[next++ % ops.size()]; }

  /// Whether the response to this connection's op `i` is checked: a
  /// seeded 1-in-kCheckEvery choice, independent of thread timing.
  bool Sampled(uint64_t seed, size_t i) const {
    return util::FingerprintCombine(util::SplitMix64(seed + index), i) %
               kCheckEvery ==
           0;
  }

  util::Status Send(const ReadOp& op, uint64_t request) {
    ScopedSpan span(Layer::kNet, "Client::SendExecute", request);
    return client.SendExecute(stmts[static_cast<int>(op.shape)], Params(op));
  }

  util::StatusOr<statsdb::ResultSet> Receive(uint64_t request) {
    util::StatusOr<std::pair<net::Opcode, std::string>> frame =
        util::Status::OK();
    {
      ScopedSpan span(Layer::kNet, "Client::ReadFrame", request);
      frame = client.ReadFrame();
    }
    if (!frame.ok()) return frame.status();
    if (frame->first != net::Opcode::kResultSet) {
      return util::Status::Internal("read answered with opcode " +
                                    std::to_string(int(frame->first)));
    }
    ScopedSpan span(Layer::kNet, "DecodeResultSet", request);
    const int64_t t0 = NowNs();
    net::WireReader r(frame->second);
    auto rs = net::DecodeResultSet(&r);
    decode_ns += NowNs() - t0;
    ++decoded;
    return rs;
  }
};

/// A sampled response to compare against the in-process copy.
struct Sampled {
  ReadOp op;
  std::string csv;
};

/// Per-connection outcome of one phase.
struct PhaseOut {
  std::vector<OpenLoopSample> samples;  // open loop
  uint64_t completed = 0;               // closed loop
  std::vector<ReadShape> shapes;        // open loop: shape per sample
  std::vector<int64_t> done_ns;         // closed loop: completion times
  uint64_t failed = 0;
  std::vector<Sampled> sampled;
};

std::atomic<uint64_t> g_request{1};

/// Open-loop reads on one connection for [start, end).
void OpenLoopReads(ReadConn* c, int64_t start, int64_t interval, int64_t end,
                   uint64_t seed, PhaseOut* out) {
  SteadyClock clock;
  out->samples = RunOpenLoop(start, interval, end, clock, [&](size_t i) {
    const uint64_t request = g_request.fetch_add(1);
    RecordSpan(Layer::kLoadgen, "send wait", request,
               start + static_cast<int64_t>(i) * interval, NowNs());
    ScopedSpan root(Layer::kBench, "read", request);
    const size_t index = c->next;
    const ReadOp& op = c->NextOp();
    out->shapes.push_back(op.shape);
    if (!c->Send(op, request).ok()) return false;
    auto rs = c->Receive(request);
    if (!rs.ok()) return false;
    if (c->Sampled(seed, index)) out->sampled.push_back({op, rs->ToCsv()});
    return true;
  });
  for (const auto& s : out->samples) out->failed += s.ok ? 0 : 1;
}

/// Closed loop with a window of requests in flight, until `end`.
void WindowReads(ReadConn* c, int64_t end, uint64_t seed, PhaseOut* out) {
  struct InFlight {
    ReadOp op;
    uint64_t request;
    size_t index;
  };
  std::vector<InFlight> inflight;
  size_t head = 0;
  bool stop = false;
  while (!stop || head < inflight.size()) {
    while (!stop && inflight.size() - head < kWindow) {
      const size_t index = c->next;
      const ReadOp op = c->NextOp();
      const uint64_t request = g_request.fetch_add(1);
      if (!c->Send(op, request).ok()) {
        ++out->failed;
        stop = true;
        break;
      }
      inflight.push_back({op, request, index});
    }
    if (head == inflight.size()) break;
    const InFlight& f = inflight[head];
    auto rs = c->Receive(f.request);
    if (!rs.ok()) {
      ++out->failed;
    } else {
      ++out->completed;
      out->done_ns.push_back(NowNs());
      if (c->Sampled(seed, f.index)) {
        out->sampled.push_back({f.op, rs->ToCsv()});
      }
    }
    ++head;
    if (NowNs() >= end) stop = true;
  }
}

/// Appends the completions per second in each kRateWindowS window of
/// [t0, end) to `rates`; their median is the capacity, so a short burst
/// of host contention moves it little.
void WindowRates(const std::vector<int64_t>& done_ns, int64_t t0, int64_t end,
                 std::vector<double>* rates) {
  const int64_t w = static_cast<int64_t>(kRateWindowS * 1e9);
  std::vector<double> counts(
      static_cast<size_t>(std::max<int64_t>(1, (end - t0) / w)), 0.0);
  for (int64_t t : done_ns) {
    const int64_t k = (t - t0) / w;
    if (k >= 0 && k < static_cast<int64_t>(counts.size())) {
      counts[static_cast<size_t>(k)] += 1;
    }
  }
  for (double c : counts) rates->push_back(c / kRateWindowS);
}

/// Ids of sessions present now but not in `before`.
uint64_t NewSession(const net::Server& server, std::vector<uint64_t>* seen) {
  for (const auto& s : server.SessionStats()) {
    if (std::find(seen->begin(), seen->end(), s.id) == seen->end()) {
      seen->push_back(s.id);
      return s.id;
    }
  }
  return 0;
}

/// Summed session counters of a set of sessions.
struct SessionSums {
  uint64_t queries = 0, queue_wait_ns = 0, exec_ns = 0, serialize_ns = 0,
           send_ns = 0;
  SessionSums Since(const SessionSums& b) const {
    return {queries - b.queries, queue_wait_ns - b.queue_wait_ns,
            exec_ns - b.exec_ns, serialize_ns - b.serialize_ns,
            send_ns - b.send_ns};
  }
};

SessionSums SumSessions(const net::Server& server,
                        const std::vector<uint64_t>& ids) {
  SessionSums out;
  for (const auto& s : server.SessionStats()) {
    if (std::find(ids.begin(), ids.end(), s.id) == ids.end()) continue;
    out.queries += s.queries;
    out.queue_wait_ns += s.queue_wait_ns;
    out.exec_ns += s.exec_ns;
    out.serialize_ns += s.serialize_ns;
    out.send_ns += s.send_ns;
  }
  return out;
}

/// Server-side counters sampled around a phase.
struct ServerSnap {
  statsdb::QueryCacheStats cache;
  obs::PoolRuntimeProfile pool;
  obs::RuntimeHistogram::Snapshot queue_wait;
  uint64_t shed = 0;
  SessionSums readers, writers;
};

/// A served table plus its in-process twin and the connections.
struct ServedSetup {
  ServedSpec spec;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<statsdb::Database> twin;  // identical load, cache off
  std::vector<std::unique_ptr<ReadConn>> readers;
  std::vector<net::Client> writers;
  std::vector<std::vector<WriteOp>> write_ops;
  std::vector<size_t> write_next;  // next op per writer
  std::vector<uint64_t> reader_sessions, writer_sessions;
  double load_ms = 0;  // logdata::LoadRuns into the server's database
  uint64_t base_rows = 0;
  double base_walltime = 0;

  ServerSnap Snap() const {
    ServerSnap s;
    s.cache = server->db().cache().Stats();
    s.pool = server->pool().RuntimeProfile();
    s.queue_wait = server->breakdown().queue_wait_ns.Snap();
    s.shed = server->counters().shed_frames.load();
    s.readers = SumSessions(*server, reader_sessions);
    s.writers = SumSessions(*server, writer_sessions);
    return s;
  }
};

/// Runs `fn(i)` on one thread per index and waits for all of them.
template <typename Fn>
void OnThreads(size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (auto& t : threads) t.join();
}

util::Status Build(uint64_t seed, size_t n_readers, size_t n_writers,
                   size_t write_ops_per_writer, ServedSetup* st) {
  const std::vector<logdata::LogRecord> records =
      MakeServedRows(st->spec, seed);
  st->server = std::make_unique<net::Server>(net::ServerConfig{});
  int64_t t0 = NowNs();
  auto table = logdata::LoadRuns(&st->server->db(), records);
  if (!table.ok()) return table.status();
  st->load_ms = MsSince(t0);
  st->base_rows = (*table)->num_rows();

  st->twin = std::make_unique<statsdb::Database>();
  st->twin->set_cache_config(statsdb::CacheConfig{});
  if (auto t = logdata::LoadRuns(st->twin.get(), records); !t.ok()) {
    return t.status();
  }
  auto sum = st->twin->Sql("SELECT SUM(walltime) AS w FROM runs");
  if (!sum.ok()) return sum.status();
  st->base_walltime = sum->rows[0][0].double_value();

  FF_RETURN_IF_ERROR(st->server->Start());
  const uint16_t port = st->server->port();
  std::vector<uint64_t> seen;
  for (size_t w = 0; w < n_writers; ++w) {
    auto c = net::Client::Connect("127.0.0.1", port);
    if (!c.ok()) return c.status();
    // A round trip guarantees the session is registered before the next
    // connection, so the new session id is this writer's.
    auto rs = c->Query("SELECT COUNT(*) AS n FROM runs WHERE day = 1");
    if (!rs.ok()) return rs.status();
    st->writer_sessions.push_back(NewSession(*st->server, &seen));
    st->writers.push_back(std::move(*c));
    st->write_ops.push_back(
        MakeWriteOps(st->spec, seed, w, write_ops_per_writer, kSlice));
    st->write_next.push_back(0);
  }
  for (size_t r = 0; r < n_readers; ++r) {
    auto c = net::Client::Connect("127.0.0.1", port);
    if (!c.ok()) return c.status();
    auto conn = std::make_unique<ReadConn>();
    conn->client = std::move(*c);
    for (int s = 0; s < kNumReadShapes; ++s) {
      auto p = conn->client.Prepare(kShapeSql[s]);
      if (!p.ok()) return p.status();
      conn->stmts[s] = *p;
    }
    conn->index = r;
    st->reader_sessions.push_back(NewSession(*st->server, &seen));
    conn->ops = MakeReadOps(st->spec, seed, r, kOpsPerClient);
    st->readers.push_back(std::move(conn));
  }
  // Warm-up: fill the plan and result caches, fault in the table.
  std::atomic<int> failed{0};
  OnThreads(st->readers.size(), [&](size_t r) {
    ReadConn* conn = st->readers[r].get();
    for (size_t i = 0; i < kWarmupReads; ++i) {
      const uint64_t request = g_request.fetch_add(1);
      if (!conn->Send(conn->NextOp(), request).ok() ||
          !conn->Receive(request).ok()) {
        failed.fetch_add(1);
      }
    }
  });
  if (failed.load() > 0) return util::Status::Internal("warm-up reads failed");
  return util::Status::OK();
}

/// Builds kSetupReps times (each a fresh server), keeps the last.
util::Status SetUp(const RunConfig& cfg, size_t n_readers, size_t n_writers,
                   size_t write_ops, ServedSetup* st, WorkloadResult* res) {
  std::vector<double> secs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (st->server) st->server->Stop();
    *st = ServedSetup{};
    const int64_t t0 = NowNs();
    util::Status s = Build(cfg.seed, n_readers, n_writers, write_ops, st);
    if (!s.ok()) return s;
    secs.push_back(MsSince(t0) / 1e3);
  }
  res->setup_s = Median(secs);
  return util::Status::OK();
}

struct ReadStats {
  uint64_t attempted = 0, failed = 0;
  double p50 = 0, p99 = 0, lag_p99 = 0;
  std::vector<Sampled> sampled;
  std::string by_shape;  // "shape n p50 p99" per read shape
};

ReadStats Summarize(std::vector<PhaseOut>& outs, double rate) {
  ReadStats r;
  std::vector<OpenLoopSample> all;
  std::vector<double> shape_lat[kNumReadShapes];
  for (auto& o : outs) {
    for (size_t i = 0; i < o.shapes.size(); ++i) {
      shape_lat[static_cast<int>(o.shapes[i])].push_back(
          o.samples[i].LatencyMs());
    }
    all.insert(all.end(), o.samples.begin(), o.samples.end());
    r.attempted += o.samples.size() + o.completed;
    r.failed += o.failed;
    for (auto& s : o.sampled) r.sampled.push_back(std::move(s));
  }
  std::sort(all.begin(), all.end(),
            [](const OpenLoopSample& a, const OpenLoopSample& b) {
              return a.due_ns < b.due_ns;
            });
  std::vector<double> lat, lag;
  for (const auto& s : all) {
    // A failed request misses any latency limit.
    lat.push_back(s.ok ? s.LatencyMs() : INFINITY);
    lag.push_back(s.LagMs());
  }
  // Per kTailWindowS of schedule, median over the windows.
  const size_t window =
      static_cast<size_t>(std::max(40.0, rate * kTailWindowS));
  r.p50 = WindowedPercentile(lat, window, 0.5);
  r.p99 = WindowedPercentile(lat, window, 0.99);
  r.lag_p99 = ExactPercentile(lag, 0.99);
  for (int k = 0; k < kNumReadShapes; ++k) {
    if (shape_lat[k].empty()) continue;
    r.by_shape += Fmt(" %s n=%zu p50=%.3f p99=%.3f",
                      ReadShapeName(static_cast<ReadShape>(k)),
                      shape_lat[k].size(), ExactPercentile(shape_lat[k], 0.5),
                      ExactPercentile(shape_lat[k], 0.99));
  }
  return r;
}

/// Writes of one day the server acknowledged.
struct DayAcks {
  int64_t launched = 0;   // rows inserted
  int64_t completed = 0;  // rows updated to 'completed'
  double walltime = 0;    // walltime the completions added
};

struct WriterOut {
  // Acknowledged latencies: per launch INSERT, per completion UPDATE, and
  // per pair (INSERT sent to UPDATE acked), the run script's unit of work.
  std::vector<double> insert_ms, update_ms, pair_ms;
  uint64_t attempted = 0, failed = 0, rows = 0;
  std::map<int, DayAcks> days;
};

/// Sends one write statement and waits for its ack, which must report
/// `want` affected rows; appends the latency to `lat_ms`.
bool Write(net::Client& c, const std::string& sql, int64_t want,
           std::vector<double>* lat_ms, WriterOut* out) {
  const uint64_t request = g_request.fetch_add(1);
  ScopedSpan root(Layer::kBench, "write", request);
  ++out->attempted;
  const int64_t t0 = NowNs();
  util::StatusOr<statsdb::ResultSet> rs = [&] {
    ScopedSpan span(Layer::kNet, "Client::Query", request);
    return c.Query(sql);
  }();
  const double ms = MsSince(t0);
  if (!rs.ok() || rs->rows.size() != 1 || rs->rows[0].size() != 1 ||
      rs->rows[0][0].int64_value() != want) {
    ++out->failed;
    return false;
  }
  lat_ms->push_back(ms);
  return true;
}

/// Writer `w` as a run script in a closed loop until `end`: launch a
/// slice, then complete it. A started pair is always finished.
void WriteLoop(ServedSetup* st, size_t w, int64_t end, WriterOut* out) {
  net::Client& c = st->writers[w];
  const std::vector<WriteOp>& ops = st->write_ops[w];
  size_t& next = st->write_next[w];
  while (NowNs() < end && next < ops.size()) {
    const WriteOp& op = ops[next++];
    const int64_t t0 = NowNs();
    if (!Write(c, op.InsertSql(), op.count, &out->insert_ms, out)) continue;
    out->rows += static_cast<uint64_t>(op.count);
    DayAcks& day = out->days[op.day];
    day.launched += op.count;
    if (!Write(c, op.UpdateSql(), op.count, &out->update_ms, out)) continue;
    out->pair_ms.push_back(MsSince(t0));
    day.completed += op.count;
    day.walltime += op.count * op.walltime;
  }
}

/// One measured phase: open-loop reads on every reader connection and,
/// when the setup has writers, closed-loop run scripts beside them.
struct ServedPhase {
  std::vector<PhaseOut> reads;  // per reader connection
  std::vector<WriterOut> writers;
  double seconds = 0;
};

ServedPhase RunPhase(ServedSetup* st, double rate, double seconds,
                     uint64_t seed, bool spin) {
  ServedPhase p;
  const size_t n = st->readers.size();
  const int64_t interval =
      static_cast<int64_t>(1e9 * static_cast<double>(n) / rate);
  const int64_t start = NowNs() + 2'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<PhaseOut> reads(n);
  p.writers.resize(st->writers.size());
  std::optional<IdleSpinners> spinners;  // see IdleSpinners
  if (spin) spinners.emplace(std::thread::hardware_concurrency());
  OnThreads(n + st->writers.size(), [&](size_t i) {
    if (i < n) {
      // Stagger the connections across one interval.
      OpenLoopReads(st->readers[i].get(),
                    start + interval * static_cast<int64_t>(i) /
                                static_cast<int64_t>(n),
                    interval, end, seed, &reads[i]);
    } else {
      WriteLoop(st, i - n, end, &p.writers[i - n]);
    }
  });
  p.seconds = (NowNs() - start) / 1e9;
  p.reads = std::move(reads);
  return p;
}

/// Adds a phase's operations to the result's attempted/failed counts.
void Account(const ReadStats& reads, const std::vector<WriterOut>& writers,
             WorkloadResult* res) {
  res->attempted += reads.attempted;
  res->failed += reads.failed;
  for (const WriterOut& w : writers) {
    res->attempted += w.attempted;
    res->failed += w.failed;
  }
}

struct WriteStats {
  double rows_per_s = 0;
  double pair_p50 = 0, pair_p99 = 0;  // launch + completion, acked
  double insert_p50 = 0, update_p50 = 0;
  double write_p50 = 0, write_p99 = 0;  // per acked statement
  uint64_t pairs = 0;
};

WriteStats SummarizeWrites(const ServedPhase& p) {
  WriteStats s;
  std::vector<double> insert, update, pair;
  uint64_t rows = 0;
  for (const WriterOut& w : p.writers) {
    insert.insert(insert.end(), w.insert_ms.begin(), w.insert_ms.end());
    update.insert(update.end(), w.update_ms.begin(), w.update_ms.end());
    pair.insert(pair.end(), w.pair_ms.begin(), w.pair_ms.end());
    rows += w.rows;
  }
  s.pairs = pair.size();
  s.rows_per_s = static_cast<double>(rows) / p.seconds;
  s.pair_p50 = ExactPercentile(pair, 0.5);
  s.pair_p99 = ExactPercentile(pair, 0.99);
  s.insert_p50 = ExactPercentile(insert, 0.5);
  s.update_p50 = ExactPercentile(update, 0.5);
  std::vector<double> all = std::move(insert);
  all.insert(all.end(), update.begin(), update.end());
  s.write_p50 = ExactPercentile(all, 0.5);
  s.write_p99 = ExactPercentile(all, 0.99);
  return s;
}

/// Compares sampled served responses with the in-process twin.
void CheckSampled(const ServedSetup& st, const std::vector<Sampled>& s,
                  WorkloadResult* res) {
  uint64_t bad = 0;
  for (const Sampled& x : s) {
    auto want = st.twin->Sql(LiteralSql(x.op));
    if (!want.ok() || want->ToCsv() != x.csv) {
      if (bad++ == 0) {
        res->report.push_back("served response differs from "
                              "Database::Sql for: " + LiteralSql(x.op));
      }
    }
  }
  res->attempted += s.size();
  res->failed += bad;
  res->report.push_back(Fmt("check: %zu sampled responses byte-compared "
                            "with Database::Sql on the twin, %llu differ",
                            s.size(), static_cast<unsigned long long>(bad)));
}

/// Every acknowledged write must be readable: per-day launched and
/// completed counts, the total row count and SUM(walltime).
void CheckIngest(ServedSetup* st, const std::vector<WriterOut>& writes,
                 WorkloadResult* res) {
  std::map<int, DayAcks> days;
  int64_t rows = static_cast<int64_t>(st->base_rows);
  double walltime = st->base_walltime;
  for (const WriterOut& w : writes) {
    for (const auto& [day, a] : w.days) {
      DayAcks& d = days[day];
      d.launched += a.launched;
      d.completed += a.completed;
      d.walltime += a.walltime;
      rows += a.launched;
      walltime += a.walltime;
    }
  }
  net::Client& c = st->writers[0];
  uint64_t bad = 0;
  auto total = c.Query("SELECT COUNT(*) AS n, SUM(walltime) AS w FROM runs");
  if (!total.ok() || total->rows.size() != 1 ||
      total->rows[0][0].int64_value() != rows ||
      std::fabs(total->rows[0][1].double_value() - walltime) >
          1e-9 * walltime) {
    ++bad;
    res->report.push_back(Fmt(
        "ingest: table holds %s, acks imply %lld rows and SUM(walltime) %.6f",
        total.ok() ? total->ToCsv().c_str() : total.status().ToString().c_str(),
        static_cast<long long>(rows), walltime));
  }
  auto per_day = c.Query(Fmt(
      "SELECT day, COUNT(*) AS n, COUNT(walltime) AS done FROM runs "
      "WHERE day > %d GROUP BY day ORDER BY day", st->spec.days));
  size_t matched = 0;
  if (per_day.ok() && per_day->rows.size() == days.size()) {
    auto it = days.begin();
    for (const auto& row : per_day->rows) {
      const DayAcks& want = (it++)->second;
      if (row[1].int64_value() == want.launched &&
          row[2].int64_value() == want.completed) {
        ++matched;
      }
    }
  }
  if (matched != days.size()) {
    ++bad;
    res->report.push_back(Fmt("ingest: %zu of %zu written days read back "
                              "as acknowledged", matched, days.size()));
  }
  res->attempted += 2;
  res->failed += bad;
  res->report.push_back(Fmt("check: %lld acknowledged rows over %zu days "
                            "read back, %llu check(s) failed",
                            static_cast<long long>(rows - st->base_rows),
                            days.size(), static_cast<unsigned long long>(bad)));
}

/// Per-layer numbers of the served path over a phase [a, b].
void ServedLayers(const ServerSnap& a, const ServerSnap& b, int64_t decode_ns,
                  uint64_t decoded, const ReadStats& reads,
                  std::map<std::string, double>* L) {
  const statsdb::QueryCacheStats& ca = a.cache;
  const statsdb::QueryCacheStats& cb = b.cache;
  const double hits = static_cast<double>(cb.result_hits - ca.result_hits);
  const double misses =
      static_cast<double>(cb.result_misses - ca.result_misses);
  (*L)["statsdb.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*L)["statsdb.cache_evictions"] =
      static_cast<double>(cb.result_evictions - ca.result_evictions);
  (*L)["statsdb.cache_invalidations"] =
      static_cast<double>(cb.result_invalidations - ca.result_invalidations);
  (*L)["net.decode_us"] = decoded > 0 ? decode_ns / 1e3 / decoded : 0.0;
  const SessionSums r = b.readers.Since(a.readers);
  const SessionSums w = b.writers.Since(a.writers);
  const double q = static_cast<double>(std::max<uint64_t>(1, r.queries));
  (*L)["net.serialize_us"] = r.serialize_ns / 1e3 / q;
  (*L)["net.send_us"] = r.send_ns / 1e3 / q;
  (*L)["net.exec_ms.read"] = r.exec_ns / 1e6 / q;
  (*L)["net.queue_wait_ms"] = r.queue_wait_ns / 1e6 / q;
  if (w.queries > 0) {
    (*L)["net.exec_ms.write"] =
        w.exec_ns / 1e6 / static_cast<double>(w.queries);
  }
  (*L)["net.queue_wait_p95_ms"] =
      b.queue_wait.Since(a.queue_wait).QuantileNs(0.95) / 1e6;
  (*L)["net.shed_frames"] = static_cast<double>(b.shed - a.shed);
  (*L)["parallel.pool_occupancy"] = b.pool.Since(a.pool).Occupancy();
  (*L)["loadgen.lag_p99_ms"] = reads.lag_p99;
}

/// Decode time and count summed over the reader connections.
std::pair<int64_t, uint64_t> DecodeTotals(const ServedSetup& st) {
  std::pair<int64_t, uint64_t> t{0, 0};
  for (const auto& c : st.readers) {
    t.first += c->decode_ns;
    t.second += c->decoded;
  }
  return t;
}

/// The traced run: an untraced phase, then a traced one of the same
/// length; per-layer metrics come from the traced phase, the overhead
/// from the difference in read p50.
void TracedRun(const RunConfig& cfg, ServedSetup* st, double rate,
               WorkloadResult* res, std::vector<Sampled>* sampled,
               std::vector<WriterOut>* writes) {
  auto& L = res->layer;
  // Spinners as in the workload's gated phase: dashboard only.
  const bool spin = st->writers.empty();
  ServedPhase plain = RunPhase(st, rate, cfg.seconds / 2, cfg.seed, spin);
  Tracer tracer;
  const ServerSnap before = st->Snap();
  const auto decode0 = DecodeTotals(*st);
  SetActiveTracer(&tracer);
  ServedPhase traced = RunPhase(st, rate, cfg.seconds / 2, cfg.seed, spin);
  SetActiveTracer(nullptr);
  const ServerSnap after = st->Snap();
  const auto decode1 = DecodeTotals(*st);
  ReadStats plain_reads = Summarize(plain.reads, rate);
  ReadStats traced_reads = Summarize(traced.reads, rate);
  ServedLayers(before, after, decode1.first - decode0.first,
               decode1.second - decode0.second, traced_reads, &L);
  // Overhead on the workload's end-to-end p50: reads, or with writers
  // the acked write pairs.
  const double p50_plain =
      spin ? plain_reads.p50 : SummarizeWrites(plain).pair_p50;
  const double p50_traced =
      spin ? traced_reads.p50 : SummarizeWrites(traced).pair_p50;
  L["trace.overhead_frac"] = (p50_traced - p50_plain) / p50_plain;
  L["read_p50_ms"] = plain_reads.p50;
  L["read_p99_ms"] = plain_reads.p99;
  L["p99_ms"] = spin ? plain_reads.p99 : SummarizeWrites(plain).pair_p99;
  uint64_t ops = traced_reads.attempted;
  for (const WriterOut& w : traced.writers) ops += w.attempted;
  const std::vector<Span> spans = tracer.Collect();
  AddSelfTimes(spans, static_cast<double>(ops), &L);
  SaveSpans(cfg, spans, &res->report);
  for (auto [p, reads] : {std::pair{&plain, &plain_reads},
                          std::pair{&traced, &traced_reads}}) {
    Account(*reads, p->writers, res);
    for (auto& s : reads->sampled) sampled->push_back(std::move(s));
    for (auto& w : p->writers) writes->push_back(std::move(w));
  }
}

/// statsdb.exec_ms.<shape>: each read shape replayed in-process on the
/// twin (identically loaded, cache off), median over a few bindings.
void ReplayShapes(const ServedSetup& st, std::map<std::string, double>* L) {
  constexpr size_t kPerShape = 9;
  for (int s = 0; s < kNumReadShapes; ++s) {
    auto stmt = st.twin->Prepare(kShapeSql[s]);
    if (!stmt.ok()) continue;
    std::vector<double> ms;
    for (const ReadOp& op : st.readers[0]->ops) {
      if (static_cast<int>(op.shape) != s) continue;
      const int64_t t0 = NowNs();
      if (!stmt->Execute(Params(op)).ok()) continue;
      ms.push_back(MsSince(t0));
      if (ms.size() == kPerShape) break;
    }
    (*L)[std::string("statsdb.exec_ms.") +
         ReadShapeName(static_cast<ReadShape>(s))] = Median(ms);
  }
}

}  // namespace

WorkloadResult RunDashboard(const RunConfig& cfg) {
  WorkloadResult res;
  ServedSetup st;
  if (util::Status s = SetUp(cfg, kDashClients, 0, 0, &st, &res); !s.ok()) {
    res.correct = false;
    res.attempted = res.failed = 1;
    res.report.push_back("dashboard: set-up failed: " + s.ToString());
    return res;
  }
  std::vector<Sampled> sampled;
  if (!cfg.trace) {
    // kRounds rounds of: the open loop with the vCPUs left to idle (what
    // the spinners hide: the host's wake-up cost and the program's own
    // wake-ups), the gated open loop with idle vCPUs kept busy, then
    // capacity right after it, while the vCPUs are awake. Interleaving
    // spreads a slow stretch of the host over all three.
    std::vector<PhaseOut> busy_out, idle_out, cap_out;
    std::vector<double> rates;
    auto append = [](std::vector<PhaseOut>&& from, std::vector<PhaseOut>* to) {
      for (PhaseOut& o : from) to->push_back(std::move(o));
    };
    const double round_s = cfg.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      append(RunPhase(&st, kDashRate, round_s * kIdleShare, cfg.seed, false)
                 .reads,
             &idle_out);
      append(RunPhase(&st, kDashRate, round_s * kBusyShare, cfg.seed, true)
                 .reads,
             &busy_out);
      // Capacity: a window of requests in flight on every connection.
      const int64_t t0 = NowNs();
      const int64_t end =
          t0 + static_cast<int64_t>(round_s * (1 - kBusyShare - kIdleShare) *
                                    1e9);
      std::vector<PhaseOut> window(st.readers.size());
      OnThreads(st.readers.size(), [&](size_t i) {
        WindowReads(st.readers[i].get(), end, cfg.seed, &window[i]);
      });
      std::vector<int64_t> done;
      for (const PhaseOut& w : window) {
        done.insert(done.end(), w.done_ns.begin(), w.done_ns.end());
      }
      WindowRates(done, t0, end, &rates);
      append(std::move(window), &cap_out);
    }
    ReadStats open = Summarize(busy_out, kDashRate);
    ReadStats idle = Summarize(idle_out, kDashRate);
    ReadStats cap = Summarize(cap_out, 0);
    for (ReadStats* r : {&open, &idle, &cap}) {
      Account(*r, {}, &res);
      for (auto& s : r->sampled) sampled.push_back(std::move(s));
    }
    res.throughput_per_s = Median(rates);
    res.p50_ms = open.p50;
    res.p99_ms = open.p99;
    res.report.push_back(Fmt(
        "dashboard: %zu connections, open loop %.0f reads/s for %.1f s with "
        "idle vCPUs kept busy: read_p50_ms=%.3f read_p99_ms=%.3f "
        "lag_p99_ms=%.3f (%llu reads); for %.1f s with vCPUs left idle: "
        "read_p50_ms=%.3f read_p99_ms=%.3f lag_p99_ms=%.3f; closed loop, "
        "window %zu per connection: read_capacity_qps=%.0f",
        st.readers.size(), kDashRate, cfg.seconds * kBusyShare, open.p50,
        open.p99, open.lag_p99,
        static_cast<unsigned long long>(open.attempted),
        cfg.seconds * kIdleShare, idle.p50, idle.p99, idle.lag_p99, kWindow,
        res.throughput_per_s));
    res.report.push_back("dashboard: read latency by shape (ms):" +
                         open.by_shape);
  } else {
    std::vector<WriterOut> none;
    TracedRun(cfg, &st, kDashRate, &res, &sampled, &none);
  }
  CheckSampled(st, sampled, &res);
  res.layer["logdata.load_ms"] = st.load_ms;
  if (res.failed > 0) res.correct = false;
  st.server->Stop();
  return res;
}

WorkloadResult RunIngest(const RunConfig& cfg) {
  WorkloadResult res;
  ServedSetup st;
  if (util::Status s = SetUp(cfg, kIngestReaders, kIngestWriters,
                             kWriteOpsPerWriter, &st, &res);
      !s.ok()) {
    res.correct = false;
    res.attempted = res.failed = 1;
    res.report.push_back("ingest: set-up failed: " + s.ToString());
    return res;
  }
  std::vector<WriterOut> writes;
  std::vector<Sampled> sampled;  // reads race the writers: not compared
  if (!cfg.trace) {
    ServedPhase p =
        RunPhase(&st, kIngestReadRate, cfg.seconds, cfg.seed, false);
    ReadStats reads = Summarize(p.reads, kIngestReadRate);
    Account(reads, p.writers, &res);
    const WriteStats w = SummarizeWrites(p);
    // The run scripts' view: acked rows per second and the latency of a
    // launch + completion pair. Reads beside them are reported, not
    // gated (see the header comment).
    res.throughput_per_s = w.rows_per_s;
    res.p50_ms = w.pair_p50;
    res.p99_ms = w.pair_p99;
    res.report.push_back(Fmt(
        "ingest: %zu writers closed loop (%d-row launch INSERT + completion "
        "UPDATE): ingest_rows_per_s=%.0f pair p50=%.3f ms p99=%.3f ms "
        "(%llu pairs); INSERT p50=%.3f ms, UPDATE p50=%.3f ms; "
        "write_p50_ms=%.3f write_p99_ms=%.3f per statement",
        st.writers.size(), kSlice, w.rows_per_s, w.pair_p50, w.pair_p99,
        static_cast<unsigned long long>(w.pairs), w.insert_p50, w.update_p50,
        w.write_p50, w.write_p99));
    res.report.push_back(Fmt(
        "ingest: %zu readers open loop %.0f reads/s: read_p50_ms=%.3f "
        "read_p99_ms=%.3f lag_p99_ms=%.3f",
        st.readers.size(), kIngestReadRate, reads.p50, reads.p99,
        reads.lag_p99));
    res.report.push_back("ingest: read latency by shape (ms):" +
                         reads.by_shape);
    writes = std::move(p.writers);
  } else {
    TracedRun(cfg, &st, kIngestReadRate, &res, &sampled, &writes);
    ReplayShapes(st, &res.layer);
  }
  CheckIngest(&st, writes, &res);
  res.layer["logdata.load_ms"] = st.load_ms;
  if (res.failed > 0) res.correct = false;
  st.server->Stop();
  return res;
}

}  // namespace bench
}  // namespace ff

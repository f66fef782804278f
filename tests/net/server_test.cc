// Served statsdb end-to-end tests: query/prepare/execute lifecycle over
// a real loopback socket, error-text identity with in-process
// execution, the malformed-frame hardening contract (clean kError or
// session close — never a crash or hang; CI runs this binary under
// ASan/UBSan), pipelined ordering, runtime-table export, and the
// concurrent readers-plus-writer lane that the TSan job exists for.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "statsdb/parallel_exec.h"
#include "statsdb/table.h"
#include "util/status.h"

namespace ff {
namespace net {
namespace {

using statsdb::CacheConfig;
using statsdb::DataType;
using statsdb::Schema;
using statsdb::Value;
using util::Status;
using util::StatusCode;

// Seeds the same tiny runs table into a server-owned or reference
// database so wire answers can be diffed against in-process ones.
void SeedRuns(statsdb::Database* db) {
  Schema runs({{"forecast", DataType::kString},
               {"day", DataType::kInt64},
               {"walltime", DataType::kDouble}});
  statsdb::Table* t = *db->CreateTable("runs", runs);
  const char* forecasts[] = {"till", "dev", "coos"};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t->Insert({Value::String(forecasts[i % 3]),
                           Value::Int64(i % 30),
                           i % 17 == 0 ? Value::Null()
                                       : Value::Double(100.0 * i)})
                    .ok());
  }
}

std::unique_ptr<Server> StartedServer(bool seed = true,
                                      size_t pool_threads = 4) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.pool_threads = pool_threads;
  auto server = std::make_unique<Server>(cfg);
  if (seed) SeedRuns(&server->db());
  Status st = server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(server->port(), 0);
  return server;
}

Client ConnectTo(const Server& server) {
  auto c = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return std::move(*c);
}

TEST(IsWriteStatementTest, ClassifiesFirstKeyword) {
  EXPECT_TRUE(IsWriteStatement("INSERT INTO t VALUES (1)"));
  EXPECT_TRUE(IsWriteStatement("  update t set x = 1"));
  EXPECT_TRUE(IsWriteStatement("DELETE FROM t"));
  EXPECT_TRUE(IsWriteStatement("CREATE TABLE t (x INT)"));
  EXPECT_TRUE(IsWriteStatement("DROP TABLE t"));
  EXPECT_TRUE(IsWriteStatement("  -- audit note\nINSERT INTO t VALUES (1)"));
  EXPECT_TRUE(IsWriteStatement("/* hint */ UPDATE t SET x = 1"));
  EXPECT_FALSE(IsWriteStatement("SELECT * FROM t"));
  EXPECT_FALSE(IsWriteStatement("EXPLAIN SELECT 1"));
  EXPECT_FALSE(IsWriteStatement("INSERTT INTO t"));  // not the keyword
  EXPECT_FALSE(IsWriteStatement(""));
  EXPECT_FALSE(IsWriteStatement("/* unterminated INSERT"));
}

TEST(ServerLifecycle, StartStopIsIdempotent) {
  auto server = StartedServer(/*seed=*/false);
  EXPECT_TRUE(server->running());
  EXPECT_FALSE(server->Start().ok()) << "double Start must refuse";
  server->Stop();
  EXPECT_FALSE(server->running());
  server->Stop();  // second Stop is a no-op
}

TEST(ServerQuery, BatchAndRowFramingsAgree) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  const std::string sql =
      "SELECT forecast, COUNT(*) AS n, AVG(walltime) AS aw FROM runs "
      "GROUP BY forecast ORDER BY forecast";
  auto batch = c.Query(sql);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  auto rows = c.QueryRows(sql);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(batch->ToCsv(), rows->ToCsv());
  EXPECT_EQ(batch->rows.size(), 3u);
}

TEST(ServerQuery, WritesLandAndReadBackOverTheWire) {
  auto server = StartedServer(/*seed=*/false);
  Client c = ConnectTo(*server);
  ASSERT_TRUE(
      c.Query("CREATE TABLE t (name TEXT, x INT)").ok());
  ASSERT_TRUE(c.Query("INSERT INTO t VALUES ('a', 1)").ok());
  ASSERT_TRUE(c.Query("INSERT INTO t VALUES ('b', 2)").ok());
  ASSERT_TRUE(c.Query("UPDATE t SET x = 7 WHERE name = 'a'").ok());
  ASSERT_TRUE(c.Query("DELETE FROM t WHERE name = 'b'").ok());
  auto rs = c.Query("SELECT name, x FROM t ORDER BY name");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToCsv(), "name,x\na,7\n");
}

TEST(ServerQuery, ErrorTextIsByteIdenticalToInProcess) {
  auto server = StartedServer();
  statsdb::Database ref;
  ASSERT_NO_FATAL_FAILURE(SeedRuns(&ref));
  ref.set_cache_config(CacheConfig{});
  Client c = ConnectTo(*server);
  const char* statements[] = {
      "SELEC walltime FROM runs",
      "SELECT * FROM missing_table",
      "SELECT no_such_column FROM runs",
      "SELECT day FROM runs WHERE",
      "INSERT INTO runs VALUES (1)",
      "not sql at all",
  };
  for (const char* sql : statements) {
    auto wire = c.Query(sql);
    auto local = ref.Sql(sql);
    ASSERT_FALSE(local.ok()) << sql << " unexpectedly parsed";
    ASSERT_FALSE(wire.ok()) << sql;
    EXPECT_EQ(wire.status().ToString(), local.status().ToString()) << sql;
  }
  // The session survives every error above.
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToCsv(), "n\n300\n");
}

TEST(ServerPrepared, LifecycleAndStaleIdErrors) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  auto stmt = c.Prepare("SELECT day, walltime FROM runs WHERE day = ? "
                        "ORDER BY walltime DESC");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->num_params, 1u);

  auto rs = c.ExecutePrepared(*stmt, {Value::Int64(7)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 10u);  // 300 rows, day = i % 30
  for (const auto& row : rs->rows) EXPECT_EQ(row[0], Value::Int64(7));

  // Row-at-a-time framing of the same execute matches byte-for-byte.
  auto rows = c.ExecutePrepared(*stmt, {Value::Int64(7)},
                                /*row_at_a_time=*/true);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->ToCsv(), rs->ToCsv());

  // Wrong parameter count is the engine's error, not a protocol one.
  EXPECT_FALSE(c.ExecutePrepared(*stmt, {}).ok());

  ASSERT_TRUE(c.ClosePrepared(*stmt).ok());
  auto stale = c.ExecutePrepared(*stmt, {Value::Int64(7)});
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  EXPECT_NE(stale.status().ToString().find("no prepared statement"),
            std::string::npos)
      << stale.status().ToString();
  EXPECT_EQ(c.ClosePrepared(*stmt).code(), StatusCode::kNotFound);

  // Prepare is SELECT-only; a write statement is refused.
  EXPECT_FALSE(c.Prepare("INSERT INTO runs VALUES ('x', 1, 2.0)").ok());
}

TEST(ServerPrepared, PipelinedResponsesArriveInSendOrder) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  auto stmt = c.Prepare(
      "SELECT day, COUNT(*) AS n FROM runs WHERE day = ? GROUP BY day");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  constexpr int kInFlight = 24;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(c.SendExecute(*stmt, {Value::Int64(i % 30)}).ok());
  }
  for (int i = 0; i < kInFlight; ++i) {
    auto rs = c.ReadResult();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_EQ(rs->rows.size(), 1u);
    EXPECT_EQ(rs->rows[0][0], Value::Int64(i % 30))
        << "response " << i << " out of order";
  }
}

// Malformed-frame hardening. Recoverable garbage answers kError and the
// session continues; untrustworthy framing answers one kError and the
// server closes the session; a mid-frame disconnect just reaps. The
// server must stay alive and Stop() cleanly afterwards in every case.
TEST(ServerHardening, UnknownOpcodeIsRecoverable) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  ASSERT_TRUE(c.SendRaw(EncodeFrame(static_cast<Opcode>(0x7f), "junk")).ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->first, Opcode::kError);
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok()) << "session should survive an unknown opcode";
}

TEST(ServerHardening, TruncatedBodyIsRecoverable) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  // kExecute whose body stops inside the u32 stmt_id.
  ASSERT_TRUE(c.SendRaw(EncodeFrame(Opcode::kExecute, "\x01")).ok());
  auto frame = c.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->first, Opcode::kError);
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok()) << "session should survive a truncated body";
}

void ExpectErrorThenClose(Client* c) {
  auto frame = c->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->first, Opcode::kError);
  // After the kError the server closes its end: the next read must
  // terminate (IoError on clean close), not hang.
  auto next = c->ReadFrame();
  EXPECT_FALSE(next.ok());
}

TEST(ServerHardening, ZeroLengthFramePoisonsTheSession) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  ASSERT_TRUE(c.SendRaw(std::string("\x00\x00\x00\x00", 4)).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectErrorThenClose(&c));
  // The server itself is unharmed: new sessions work.
  Client c2 = ConnectTo(*server);
  EXPECT_TRUE(c2.Query("SELECT COUNT(*) AS n FROM runs").ok());
}

TEST(ServerHardening, OversizedDeclaredLengthPoisonsTheSession) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  ASSERT_TRUE(c.SendRaw(std::string("\xff\xff\xff\xff", 4)).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectErrorThenClose(&c));
  Client c2 = ConnectTo(*server);
  EXPECT_TRUE(c2.Query("SELECT COUNT(*) AS n FROM runs").ok());
}

TEST(ServerHardening, MidFrameDisconnectReapsQuietly) {
  auto server = StartedServer();
  {
    Client c = ConnectTo(*server);
    // Header promising 100 bytes, then only 5, then vanish.
    WireWriter w;
    w.U32(100);
    w.Raw("abcde", 5);
    ASSERT_TRUE(c.SendRaw(w.buffer()).ok());
  }  // ~Client closes the socket mid-frame
  {
    Client c = ConnectTo(*server);
    // Bare truncated header (2 of 4 length bytes), then vanish.
    ASSERT_TRUE(c.SendRaw(std::string("\x05\x00", 2)).ok());
  }
  Client c = ConnectTo(*server);
  EXPECT_TRUE(c.Query("SELECT COUNT(*) AS n FROM runs").ok());
  server->Stop();  // must not hang on the half-dead sessions
}

TEST(ServerRuntime, SessionAndCacheTablesAreServed) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        c.Query("SELECT COUNT(*) AS n FROM runs WHERE day = " +
                std::to_string(i))
            .ok());
  }
  ASSERT_TRUE(c.Query("SELECT nothing FROM nowhere").status().code() ==
              StatusCode::kNotFound);
  ASSERT_TRUE(c.RefreshServerStats().ok());

  auto sessions = c.Query(
      "SELECT session, queries, errors FROM runtime_sessions "
      "ORDER BY session");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_GE(sessions->rows.size(), 1u);
  EXPECT_GE(sessions->rows[0][1].int64_value(), 6);  // this session's
  EXPECT_GE(sessions->rows[0][2].int64_value(), 1);  // the NotFound above

  auto cache = c.Query(
      "SELECT tier, hits, misses FROM runtime_cache ORDER BY tier");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache->rows.size(), 2u);  // plan + result tiers

  // SessionStats agrees with what the table reported.
  auto snaps = server->SessionStats();
  ASSERT_GE(snaps.size(), 1u);
  EXPECT_GE(snaps[0].queries, 6u);
}

TEST(ServerRuntime, CacheDefaultsFullUnlessConfiguredOff) {
  if (std::getenv("FF_STATSDB_CACHE") != nullptr) {
    GTEST_SKIP() << "FF_STATSDB_CACHE overrides the server default";
  }
  {
    auto server = StartedServer(/*seed=*/false);
    EXPECT_EQ(server->db().cache_config().mode, CacheConfig::Mode::kFull);
  }
  {
    ServerConfig cfg;
    cfg.port = 0;
    cfg.cache_default_full = false;
    Server server(cfg);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.db().cache_config().mode, CacheConfig::Mode::kOff);
  }
}

TEST(ServerRuntime, SubmitWriteRunsUnderExclusionWhileServing) {
  auto server = StartedServer();
  Client c = ConnectTo(*server);
  Status st = server->SubmitWrite([&]() -> Status {
    return server->db()
        .Sql("INSERT INTO runs VALUES ('till', 99, 1.0)")
        .status();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->ToCsv(), "n\n301\n");
}

// The TSan lane: concurrent read sessions racing a write session, with
// morsel-parallel SELECTs fanning out on the same pool the session
// tasks run on. Row counts are checked loosely (writes land in some
// serial order) and exactly after the dust settles.
TEST(ServerConcurrency, ParallelReadersWithInterleavedWrites) {
  auto server = StartedServer(/*seed=*/true, /*pool_threads=*/4);
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 40;
  constexpr int kWrites = 40;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      auto c = Client::Connect("127.0.0.1", server->port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kQueriesPerReader; ++i) {
        auto rs = (i + t) % 2 == 0
                      ? c->Query("SELECT forecast, COUNT(*) AS n, "
                                 "AVG(walltime) AS aw FROM runs "
                                 "GROUP BY forecast ORDER BY forecast")
                      : c->Query("SELECT COUNT(*) AS n FROM runs "
                                 "WHERE day = " + std::to_string(i % 30));
        if (!rs.ok() || rs->rows.empty()) ++failures;
      }
    });
  }
  threads.emplace_back([&] {
    auto c = Client::Connect("127.0.0.1", server->port());
    if (!c.ok()) {
      ++failures;
      return;
    }
    for (int i = 0; i < kWrites; ++i) {
      auto rs = c->Query("INSERT INTO runs VALUES ('dev', " +
                         std::to_string(i % 30) + ", 42.0)");
      if (!rs.ok()) ++failures;
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client c = ConnectTo(*server);
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->ToCsv(), "n\n" + std::to_string(300 + kWrites) + "\n");
  server->Stop();
}

std::string QueryFrame(const std::string& sql) {
  WireWriter w;
  w.U8(0);
  w.Raw(sql.data(), sql.size());
  return EncodeFrame(Opcode::kQuery, w.buffer());
}

// The deadlock lane. Writes run inline on the pool under the exclusive
// lock while other sessions' morsel-parallel SELECTs hold the shared
// side, so several sessions pipeline INSERT/UPDATE frames right behind
// such SELECTs. Every response must arrive, and the final count must be
// exact. A lock-order or work-isolation regression hangs here.
void PipelineWritesBehindParallelReads(size_t pool_threads) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.pool_threads = pool_threads;
  Server server(cfg);
  constexpr int kRows = 8 * 4096;  // eight chunks: scans fan out
  {
    Schema runs({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"walltime", DataType::kDouble}});
    statsdb::Table* t = *server.db().CreateTable("runs", runs);
    statsdb::Table::BulkAppender app(t);
    const char* forecasts[] = {"till", "dev", "coos"};
    for (int i = 0; i < kRows; ++i) {
      app.String(forecasts[i % 3]).Int64(i % 30).Double(1.0 * i);
      ASSERT_TRUE(app.EndRow().ok());
    }
    ASSERT_TRUE(app.Finish().ok());
  }
  statsdb::ParallelConfig pc = server.db().parallel_config();
  pc.min_chunks = 1;
  server.db().set_parallel_config(pc);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kSessions = 3;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) {
    threads.emplace_back([&, t] {
      auto c = Client::Connect("127.0.0.1", server.port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        // Distinct SQL per frame: cache misses keep the reads on the
        // morsel-parallel engine.
        const std::string k = std::to_string(t * kRounds + r);
        std::string burst =
            QueryFrame("SELECT forecast, COUNT(*) AS n, SUM(walltime) AS s "
                       "FROM runs WHERE day <> " + k +
                       " GROUP BY forecast ORDER BY forecast") +
            QueryFrame("INSERT INTO runs VALUES ('dev', " + k + ", -1.0)") +
            QueryFrame("SELECT COUNT(*) AS n FROM runs WHERE walltime > " +
                       k) +
            QueryFrame("UPDATE runs SET walltime = walltime + 1 "
                       "WHERE day = " + std::to_string(r % 30)) +
            QueryFrame("SELECT MAX(walltime) AS m FROM runs WHERE day = " +
                       k);
        if (!c->SendRaw(burst).ok()) {
          ++failures;
          return;
        }
        for (int i = 0; i < 5; ++i) {
          auto rs = c->ReadResult();
          if (!rs.ok() || rs->rows.empty()) ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  Client c = ConnectTo(server);
  auto rs = c.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->ToCsv(),
            "n\n" + std::to_string(kRows + kSessions * kRounds) + "\n");
  server.Stop();
}

TEST(ServerConcurrency, PipelinedWritesBehindParallelReadsAtPool1) {
  PipelineWritesBehindParallelReads(1);
}

TEST(ServerConcurrency, PipelinedWritesBehindParallelReadsAtPool2) {
  PipelineWritesBehindParallelReads(2);
}

}  // namespace
}  // namespace net
}  // namespace ff

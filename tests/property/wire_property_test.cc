// Wire equivalence lane: the exact 360-statement corpus the in-process
// property tests draw (seeds 0x5eed x 300 and 0xbadc0de x 60, via the
// shared generator in sqlgen.h) replayed through a served statsdb
// (net/server.h) and required to come back BYTE-identical — rendered
// CSV, row order, and error strings alike — to in-process
// Database::Sql on an identically-built reference database. The server
// runs with its production defaults (query cache full, morsel-parallel
// reads on its own pool) at pool sizes 1, 4 and 16, so this lane
// transitively pins the serialize/deserialize round trip, the
// cache-on-equals-cache-off contract, and the parallel byte-determinism
// contract, all through real sockets.
//
// The seeded-chaos lanes repeat the corpus through a RetryingClient
// behind a ChaosTransport injecting delays and partial I/O only (no
// corruption, no resets — the payload must arrive intact for a
// byte-equality gate to be meaningful): timing jitter and arbitrary
// kernel/chaos chunking must not change a single byte either.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "net/chaos_transport.h"
#include "net/client.h"
#include "net/retrying_client.h"
#include "net/server.h"
#include "statsdb/cache.h"
#include "statsdb/database.h"
#include "util/status.h"

#include "sqlgen.h"

namespace ff {
namespace net {
namespace {

using statsdb::CacheConfig;
using statsdb::Database;
using statsdb::ParallelConfig;

class WireEquivalence {
 public:
  // gtest ASSERTs only work in void-returning bodies, hence Init()
  // instead of a constructor.
  void Init(size_t pool_threads, bool chaos = false) {
    chaos_ = chaos;
    ServerConfig cfg;
    cfg.port = 0;
    cfg.pool_threads = pool_threads;
    server_ = std::make_unique<Server>(cfg);
    statsdb::property::BuildPropertyTables(&server_->db());
    // Match the in-process property lane's morsel sizing: the table is
    // only two chunks, so min_chunks must drop for parallel scans to
    // engage at all. Start() keeps the database's own morsel sizing.
    ParallelConfig pc = server_->db().parallel_config();
    pc.min_chunks = 2;
    server_->db().set_parallel_config(pc);
    util::Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st.ToString();

    statsdb::property::BuildPropertyTables(&ref_);
    // The reference is the plainest path there is: serial vectorized
    // engine (a Database has no pool by default), no cache. Whatever
    // the server layers on top must not change a byte.
    ref_.set_cache_config(CacheConfig{});
    ASSERT_EQ(ref_.parallel_config().pool, nullptr);

    if (chaos_) {
      // Delays + partial I/O only; small stalls so 360 statements stay
      // fast. With no corruption or resets the retry ladder never
      // engages — the gate is that chunked, jittered transport moves
      // the exact same bytes.
      ChaosProfile profile;
      profile.seed = 0x77a11eedULL + pool_threads;
      profile.split_gap_bytes = 96;
      profile.delay_gap_bytes = 8192;
      profile.delay_min_ms = 0.02;
      profile.delay_max_ms = 0.2;
      counters_ = std::make_shared<ChaosCounters>();
      auto conn = std::make_shared<std::atomic<uint64_t>>(0);
      RetryingClientOptions opts;
      opts.client.connect_timeout_ms = 5000;
      opts.client.io_timeout_ms = 5000;
      auto counters = counters_;
      opts.client.wrap_transport =
          [profile, counters, conn](std::unique_ptr<Transport> base)
          -> std::unique_ptr<Transport> {
        return std::make_unique<ChaosTransport>(std::move(base), profile,
                                                conn->fetch_add(1),
                                                counters.get());
      };
      rclient_ = std::make_unique<RetryingClient>(
          "127.0.0.1", server_->port(), std::move(opts));
      util::Status connect = rclient_->Connect();
      ASSERT_TRUE(connect.ok()) << connect.ToString();
      return;
    }
    auto c = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    client_ = std::move(*c);
  }

  /// One statement through both worlds; hard-fails on any byte of
  /// divergence. DML flows through here too — the wire side runs it
  /// inline under the server's exclusive lock while the reference
  /// mutates in-process, and both must report the same outcome.
  void Check(const std::string& sql) {
    auto local = ref_.Sql(sql);
    auto wire = chaos_ ? rclient_->Query(sql) : client_.Query(sql);
    ASSERT_EQ(local.ok(), wire.ok())
        << sql << "\nlocal: " << local.status().ToString()
        << "\nwire:  " << wire.status().ToString();
    if (!local.ok()) {
      ASSERT_EQ(local.status().ToString(), wire.status().ToString()) << sql;
      return;
    }
    ASSERT_EQ(local->ToCsv(), wire->ToCsv()) << sql;
    ++checked_;

    // Periodically pin the alternative framings to the same bytes: the
    // row-at-a-time stream and a parameterless server-side prepared
    // statement must render identically to the batched frame.
    if (checked_ % 10 == 0) {
      auto rows = chaos_ ? rclient_->QueryRows(sql) : client_.QueryRows(sql);
      ASSERT_TRUE(rows.ok()) << sql << "\n" << rows.status().ToString();
      ASSERT_EQ(local->ToCsv(), rows->ToCsv()) << sql;
    }
    if (checked_ % 15 == 0) {
      if (chaos_) {
        auto stmt = rclient_->Prepare(sql);
        ASSERT_TRUE(stmt.ok()) << sql << "\n" << stmt.status().ToString();
        auto prepped = rclient_->ExecutePrepared(*stmt, {});
        ASSERT_TRUE(prepped.ok()) << sql << "\n"
                                  << prepped.status().ToString();
        ASSERT_EQ(local->ToCsv(), prepped->ToCsv()) << sql;
        ASSERT_TRUE(rclient_->ClosePrepared(*stmt).ok());
      } else {
        auto stmt = client_.Prepare(sql);
        ASSERT_TRUE(stmt.ok()) << sql << "\n" << stmt.status().ToString();
        auto prepped = client_.ExecutePrepared(*stmt, {});
        ASSERT_TRUE(prepped.ok()) << sql << "\n"
                                  << prepped.status().ToString();
        ASSERT_EQ(local->ToCsv(), prepped->ToCsv()) << sql;
        ASSERT_TRUE(client_.ClosePrepared(*stmt).ok());
      }
    }
  }

  void RunCorpus() {
    statsdb::property::SqlGen gen(0x5eed);
    bool ordered = false;
    for (int q = 0; q < 300; ++q) {
      ASSERT_NO_FATAL_FAILURE(Check(gen.Next(&ordered)));
    }
    // The mutation lane's DML, then its 60 statements over the updated
    // zone maps — the writes recompute them under the server's
    // exclusive lock, and the bytes must still match.
    const char* dml[] = {
        "UPDATE runs SET walltime = 12345.0 WHERE day = 100",
        "DELETE FROM runs WHERE day > 350",
        "INSERT INTO runs VALUES ('till', 400, 'f9', 77.0)",
    };
    for (const char* stmt : dml) {
      ASSERT_NO_FATAL_FAILURE(Check(stmt));
    }
    statsdb::property::SqlGen gen2(0xbadc0de);
    for (int q = 0; q < 60; ++q) {
      ASSERT_NO_FATAL_FAILURE(Check(gen2.Next(&ordered)));
    }
    EXPECT_GT(checked_, (300 + 60) * 9 / 10)
        << "generator should produce overwhelmingly valid queries";
  }

  /// Chaos-lane postcondition: the transport really was chaotic, and
  /// the retry ladder never had to engage (delays and splits are not
  /// failures — just inconvenient deliveries of the same bytes).
  void CheckChaosHappened() {
    ASSERT_TRUE(chaos_);
    EXPECT_GT(counters_->splits.load(), 0u);
    EXPECT_GT(counters_->delays.load(), 0u);
    EXPECT_EQ(counters_->corruptions.load(), 0u);
    EXPECT_EQ(counters_->resets.load(), 0u);
    EXPECT_EQ(rclient_->stats().gave_up, 0u);
  }

 private:
  std::unique_ptr<Server> server_;
  Database ref_;
  Client client_;
  std::unique_ptr<RetryingClient> rclient_;
  std::shared_ptr<ChaosCounters> counters_;
  bool chaos_ = false;
  int checked_ = 0;
};

TEST(WirePropertyTest, CorpusByteIdenticalAtPool1) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(1));
  lane.RunCorpus();
}

TEST(WirePropertyTest, CorpusByteIdenticalAtPool4) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(4));
  lane.RunCorpus();
}

TEST(WirePropertyTest, CorpusByteIdenticalAtPool16) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(16));
  lane.RunCorpus();
}

TEST(WirePropertyTest, CorpusByteIdenticalUnderSeededChaosAtPool1) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(1, /*chaos=*/true));
  lane.RunCorpus();
  lane.CheckChaosHappened();
}

TEST(WirePropertyTest, CorpusByteIdenticalUnderSeededChaosAtPool4) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(4, /*chaos=*/true));
  lane.RunCorpus();
  lane.CheckChaosHappened();
}

TEST(WirePropertyTest, CorpusByteIdenticalUnderSeededChaosAtPool16) {
  WireEquivalence lane;
  ASSERT_NO_FATAL_FAILURE(lane.Init(16, /*chaos=*/true));
  lane.RunCorpus();
  lane.CheckChaosHappened();
}

}  // namespace
}  // namespace net
}  // namespace ff

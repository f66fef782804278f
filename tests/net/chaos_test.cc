// Robustness tests for the chaos-hardened serving stack: deterministic
// fault injection (chaos_transport.h) on a real socketpair, the
// RetryingClient's retry discipline (reads retry, mutations never,
// server errors never), client deadlines, and every server overload
// limit — admission shedding, connection ceiling, idle/stall/overflow
// closes, graceful Stop() under load and the drain deadline. CI runs
// this binary under ASan/UBSan and TSan.

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos_transport.h"
#include "net/client.h"
#include "net/retrying_client.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "statsdb/database.h"
#include "statsdb/table.h"
#include "util/status.h"

namespace ff {
namespace net {
namespace {

using statsdb::DataType;
using statsdb::Schema;
using statsdb::Value;
using util::Status;
using util::StatusCode;

void SeedRuns(statsdb::Database* db, int rows = 300) {
  Schema runs({{"forecast", DataType::kString},
               {"day", DataType::kInt64},
               {"walltime", DataType::kDouble}});
  statsdb::Table* t = *db->CreateTable("runs", runs);
  const char* forecasts[] = {"till", "dev", "coos"};
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(t->Insert({Value::String(forecasts[i % 3]),
                           Value::Int64(i % 30), Value::Double(100.0 * i)})
                    .ok());
  }
}

std::unique_ptr<Server> StartedServer(ServerConfig cfg, int rows = 300) {
  cfg.port = 0;
  auto server = std::make_unique<Server>(cfg);
  SeedRuns(&server->db(), rows);
  Status st = server->Start();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return server;
}

/// Waits (bounded) for a server counter to become nonzero — limits fire
/// on the event thread's sweep tick, not synchronously with the client.
bool EventuallyNonzero(const std::atomic<uint64_t>& counter,
                       int deadline_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (counter.load(std::memory_order_relaxed) > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return counter.load(std::memory_order_relaxed) > 0;
}

// ---------------------------------------------------------------------
// ChaosTransport determinism on a real socketpair
// ---------------------------------------------------------------------

struct ChaosRun {
  std::string received;   // bytes as seen by the raw peer
  std::string counters;   // ChaosCounters::ToString()
  size_t sent = 0;        // bytes the chaotic sender got through
  std::string error;      // terminal send error, if any
};

/// Pushes `payload` through a ChaosTransport over one side of a
/// socketpair and collects what the raw other side received.
void PushThroughChaos(const std::string& payload,
                      const ChaosProfile& profile, uint64_t conn_index,
                      ChaosRun* run) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread reader([&] {
    char buf[4096];
    for (;;) {
      ssize_t n = recv(fds[1], buf, sizeof(buf), 0);
      if (n <= 0) break;
      run->received.append(buf, static_cast<size_t>(n));
    }
  });
  {
    auto base = SocketTransport::Adopt(fds[0], TransportDeadlines{});
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ChaosCounters counters;
    ChaosTransport chaos(std::move(*base), profile, conn_index, &counters);
    while (run->sent < payload.size()) {
      auto n = chaos.Send(payload.data() + run->sent,
                          payload.size() - run->sent);
      if (!n.ok()) {
        run->error = n.status().ToString();
        break;
      }
      run->sent += *n;
    }
    chaos.Close();  // fds[0] belongs to the transport
    run->counters = counters.ToString();
  }
  reader.join();
  close(fds[1]);
}

TEST(ChaosTransportSocket, SameSeedSameBytesSameCounters) {
  std::string payload(16 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 131) & 0xff);
  }
  ChaosProfile profile;
  profile.seed = 0xdecaf;
  profile.split_gap_bytes = 64;
  profile.corrupt_gap_bytes = 512;

  ChaosRun a, b;
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 0, &a));
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 0, &b));
  EXPECT_EQ(a.sent, payload.size());
  EXPECT_EQ(a.received.size(), payload.size());
  EXPECT_NE(a.received, payload) << "corruption should have fired";
  EXPECT_EQ(a.counters.find("splits=0 "), std::string::npos) << a.counters;
  EXPECT_EQ(a.counters.find("corruptions=0 "), std::string::npos)
      << a.counters;
  // The whole point: however the kernel chunked the socketpair I/O, the
  // faulted byte stream and the counters replay exactly.
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(ChaosTransportSocket, DifferentConnIndexDifferentTimeline) {
  std::string payload(16 * 1024, 'x');
  ChaosProfile profile;
  profile.seed = 0xdecaf;
  profile.split_gap_bytes = 64;
  profile.corrupt_gap_bytes = 512;
  ChaosRun a, b;
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 0, &a));
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 1, &b));
  EXPECT_NE(a.received, b.received)
      << "conn_index must select distinct substreams";
}

TEST(ChaosTransportSocket, ResetFiresAtDeterministicOffset) {
  std::string payload(64 * 1024, 'r');
  ChaosProfile profile;
  profile.seed = 0xdecaf;
  profile.reset_gap_bytes = 4096;
  ChaosRun a, b;
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 3, &a));
  ASSERT_NO_FATAL_FAILURE(PushThroughChaos(payload, profile, 3, &b));
  EXPECT_LT(a.sent, payload.size());
  EXPECT_NE(a.error.find("connection reset"), std::string::npos) << a.error;
  EXPECT_EQ(a.sent, b.sent) << "reset offset must be seed-deterministic";
  EXPECT_EQ(a.counters, b.counters);
}

// ---------------------------------------------------------------------
// RetryingClient retry discipline
// ---------------------------------------------------------------------

/// Pass-through transport that fails every Recv while armed. Injected
/// via ClientOptions::wrap_transport on selected connection indexes to
/// simulate "request sent, response lost".
class RecvFailTransport : public Transport {
 public:
  RecvFailTransport(std::unique_ptr<Transport> base, bool fail)
      : base_(std::move(base)), fail_(fail) {}
  util::StatusOr<size_t> Send(const char* data, size_t n) override {
    return base_->Send(data, n);
  }
  util::StatusOr<size_t> Recv(char* buf, size_t n) override {
    if (fail_) return Status::IoError("injected: response lost");
    return base_->Recv(buf, n);
  }
  void Close() override { base_->Close(); }

 private:
  std::unique_ptr<Transport> base_;
  bool fail_;
};

/// Options whose first connection loses every response; later
/// connections are healthy.
RetryingClientOptions FirstConnectionLossy() {
  RetryingClientOptions opts;
  auto conn = std::make_shared<std::atomic<uint64_t>>(0);
  opts.client.wrap_transport =
      [conn](std::unique_ptr<Transport> base) -> std::unique_ptr<Transport> {
    const uint64_t index = conn->fetch_add(1);
    return std::make_unique<RecvFailTransport>(std::move(base), index == 0);
  };
  opts.policy.base_backoff = 0.001;  // keep the ladder fast in tests
  opts.policy.max_backoff = 0.01;
  return opts;
}

TEST(RetryingClientTest, ReadRetriesAcrossALostResponse) {
  auto server = StartedServer(ServerConfig{});
  RetryingClient client("127.0.0.1", server->port(), FirstConnectionLossy());
  auto rs = client.Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToCsv(), "n\n300\n");
  EXPECT_EQ(client.stats().connects, 2u);  // reconnected once
  EXPECT_EQ(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().gave_up, 0u);
}

TEST(RetryingClientTest, MutationIsNeverRetriedAfterSend) {
  auto server = StartedServer(ServerConfig{});
  RetryingClient client("127.0.0.1", server->port(), FirstConnectionLossy());
  auto rs = client.Query("INSERT INTO runs VALUES ('new', 99, 1.0)");
  ASSERT_FALSE(rs.ok()) << "a lost response must surface, not be retried";
  EXPECT_FALSE(client.raw().last_error_was_server_reported());
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().not_retried, 1u);

  // The refusal is the safe choice BECAUSE the statement actually
  // committed before the response was lost — a blind re-send would have
  // double-applied it. The commit is asynchronous to our error, so poll.
  auto check = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(check.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string csv;
  while (std::chrono::steady_clock::now() < deadline) {
    auto count =
        check->Query("SELECT COUNT(*) AS n FROM runs WHERE day = 99");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    csv = count->ToCsv();
    if (csv != "n\n0\n") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(csv, "n\n1\n") << "the unretried INSERT landed exactly once";
}

TEST(RetryingClientTest, ServerReportedErrorIsNotRetried) {
  auto server = StartedServer(ServerConfig{});
  RetryingClientOptions opts;
  RetryingClient client("127.0.0.1", server->port(), std::move(opts));
  auto rs = client.Query("SELECT nope FROM nowhere");
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(client.raw().last_error_was_server_reported());
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_EQ(client.stats().not_retried, 1u);
  // The session survived: the error WAS the answer, not a failure.
  EXPECT_TRUE(client.Query("SELECT COUNT(*) AS n FROM runs").ok());
}

TEST(RetryingClientTest, PreparedStatementSurvivesReconnect) {
  auto server = StartedServer(ServerConfig{});
  RetryingClient client("127.0.0.1", server->port(), FirstConnectionLossy());
  // Prepare retries onto connection 1; the later drop forces a
  // transparent re-prepare on connection 2.
  auto stmt = client.Prepare("SELECT COUNT(*) AS n FROM runs WHERE day = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto rs = client.ExecutePrepared(*stmt, {Value::Int64(7)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToCsv(), "n\n10\n");
  client.raw().Close();  // sever the session behind the client's back
  auto again = client.ExecutePrepared(*stmt, {Value::Int64(7)});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->ToCsv(), "n\n10\n");
  EXPECT_GE(client.stats().reprepared, 1u);
}

TEST(ClientDeadlines, SilentServerSurfacesDeadlineMissed) {
  // A listener that completes the TCP handshake and then says nothing.
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientOptions opts;
  opts.connect_timeout_ms = 2000;
  opts.io_timeout_ms = 100;
  auto client = Client::Connect("127.0.0.1", ntohs(addr.sin_port), opts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto t0 = std::chrono::steady_clock::now();
  auto rs = client->Query("SELECT 1");
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(rs.ok());
  EXPECT_TRUE(rs.status().IsDeadlineMissed()) << rs.status().ToString();
  EXPECT_LT(waited_ms, 5000.0) << "deadline must bound the wait";
  close(listener);
}

// ---------------------------------------------------------------------
// Server overload limits
// ---------------------------------------------------------------------

TEST(ServerOverload, AdmissionBudgetShedsTypedUnavailable) {
  ServerConfig cfg;
  cfg.pool_threads = 1;
  cfg.max_pending_frames = 1;
  auto server = StartedServer(cfg);
  auto client = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  // One burst of pipelined queries, sent as a single write so the event
  // thread enqueues them back-to-back against the budget of 1.
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    WireWriter w;
    w.U8(0);
    const std::string sql =
        "SELECT COUNT(*) AS n FROM runs WHERE day = " + std::to_string(i % 30);
    w.Raw(sql.data(), sql.size());
    burst += EncodeFrame(Opcode::kQuery, w.buffer());
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());

  int ok = 0, shed = 0, other = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto frame = client->ReadFrame();
    ASSERT_TRUE(frame.ok()) << "response " << i << ": "
                            << frame.status().ToString();
    if (frame->first == Opcode::kResultSet) {
      ++ok;
    } else if (frame->first == Opcode::kError && !frame->second.empty() &&
               static_cast<uint8_t>(frame->second[0]) ==
                   static_cast<uint8_t>(StatusCode::kUnavailable)) {
      ++shed;
      EXPECT_NE(frame->second.find("overloaded"), std::string::npos);
    } else {
      ++other;
    }
  }
  EXPECT_EQ(other, 0);
  EXPECT_GT(ok, 0) << "the first frame is always under budget";
  EXPECT_GT(shed, 0) << "a 64-frame burst against budget 1 must shed";
  EXPECT_GT(server->counters().shed_frames.load(), 0u);

  // Shedding is per-frame, not per-session: the session still works.
  auto rs = client->Query("SELECT COUNT(*) AS n FROM runs");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->ToCsv(), "n\n300\n");

  // The shed count is visible in the session's runtime row.
  auto snaps = server->SessionStats();
  ASSERT_GE(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].shed, static_cast<uint64_t>(shed));
}

TEST(ServerOverload, ConnectionLimitRefusesWithReason) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  auto server = StartedServer(cfg);
  auto first = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*first).Query("SELECT COUNT(*) AS n FROM runs").ok());

  {
    // The over-limit connection is accepted, told why, and closed — a
    // typed kUnavailable, not a silent RST.
    auto refused = Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(refused.ok()) << "TCP accept itself must succeed";
    auto frame = refused->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->first, Opcode::kError);
    ASSERT_FALSE(frame->second.empty());
    EXPECT_EQ(static_cast<uint8_t>(frame->second[0]),
              static_cast<uint8_t>(StatusCode::kUnavailable));
    EXPECT_NE(frame->second.find("connection limit"), std::string::npos);
    EXPECT_FALSE(refused->ReadFrame().ok()) << "then the server closes";
  }
  EXPECT_GE(server->counters().refused_connections.load(), 1u);

  // Freeing the slot re-opens the door (the reap happens on the event
  // thread, so poll briefly).
  first->Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool admitted = false;
  while (!admitted && std::chrono::steady_clock::now() < deadline) {
    auto next = Client::Connect("127.0.0.1", server->port());
    if (next.ok() && next->Query("SELECT COUNT(*) AS n FROM runs").ok()) {
      admitted = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ServerOverload, IdleSessionIsClosed) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 80;
  auto server = StartedServer(cfg);
  ClientOptions copts;
  copts.io_timeout_ms = 5000;
  auto client = Client::Connect("127.0.0.1", server->port(), copts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client).Query("SELECT COUNT(*) AS n FROM runs").ok());
  // Go quiet. The next read terminates with the server's clean close —
  // not a hang, and not a deadline on OUR side.
  auto frame = client->ReadFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsIoError()) << frame.status().ToString();
  EXPECT_TRUE(EventuallyNonzero(server->counters().idle_closed));
}

/// Connects a raw socket with a deliberately tiny receive buffer (set
/// BEFORE connect, which pins the TCP window and defeats receive-side
/// autotuning), fires `count` pipelined full-table queries, and never
/// reads — wedging response bytes in the server's outbound buffers.
/// Returns the fd (caller closes); -1 on failure.
int WedgeReader(uint16_t port, int count) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int rcvbuf = 8 * 1024;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  std::string burst;
  for (int i = 0; i < count; ++i) {
    WireWriter w;
    w.U8(0);
    const std::string sql = "SELECT forecast, day, walltime FROM runs";
    w.Raw(sql.data(), sql.size());
    burst += EncodeFrame(Opcode::kQuery, w.buffer());
  }
  size_t sent = 0;
  while (sent < burst.size()) {
    ssize_t n = send(fd, burst.data() + sent, burst.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  return fd;
}

TEST(ServerOverload, OutboundOverflowClosesTheSlowReader) {
  ServerConfig cfg;
  cfg.max_outbound_buffer_bytes = 16 * 1024;
  auto server = StartedServer(cfg, /*rows=*/20000);
  int fd = WedgeReader(server->port(), 40);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(EventuallyNonzero(server->counters().overflow_closed))
      << "a reader this far behind must be cut loose";
  close(fd);
  // The server itself is unharmed.
  auto fresh = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh).Query("SELECT COUNT(*) AS n FROM runs").ok());
}

TEST(ServerOverload, WriteStallTimeoutClosesTheWedgedReader) {
  ServerConfig cfg;
  cfg.write_stall_timeout_ms = 100;
  auto server = StartedServer(cfg, /*rows=*/20000);
  int fd = WedgeReader(server->port(), 40);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(EventuallyNonzero(server->counters().stall_closed));
  close(fd);
  auto fresh = Client::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE((*fresh).Query("SELECT COUNT(*) AS n FROM runs").ok());
}

// ---------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------

// Pipelined clients hammer the server while Stop() lands. Every
// response a client DOES read must be a whole frame: a graceful drain
// may close a session between frames (clean IoError) but never inside
// one ("connection closed mid-frame" ParseError) — responses flush
// fully before the socket closes.
TEST(ServerShutdown, StopUnderLoadNeverTearsAFrame) {
  ServerConfig cfg;
  cfg.pool_threads = 4;
  auto server = StartedServer(cfg);
  constexpr int kClients = 4;
  std::atomic<int> torn{0}, responses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return;
      for (;;) {
        constexpr int kWindow = 8;
        std::string burst;
        for (int i = 0; i < kWindow; ++i) {
          WireWriter w;
          w.U8(0);
          const std::string sql = "SELECT COUNT(*) AS n FROM runs";
          w.Raw(sql.data(), sql.size());
          burst += EncodeFrame(Opcode::kQuery, w.buffer());
        }
        if (!client->SendRaw(burst).ok()) return;
        for (int i = 0; i < kWindow; ++i) {
          auto frame = client->ReadFrame();
          if (!frame.ok()) {
            if (frame.status().ToString().find("mid-frame") !=
                std::string::npos) {
              ++torn;
            }
            return;
          }
          ++responses;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(responses.load(), 0);
}

TEST(ServerShutdown, DrainDeadlineBoundsStopAgainstAWedgedReader) {
  ServerConfig cfg;
  cfg.drain_deadline_ms = 200;
  auto server = StartedServer(cfg, /*rows=*/20000);
  // A backlog the client will never read: without the deadline, Stop()
  // would wait forever for these outbound bytes to drain.
  int fd = WedgeReader(server->port(), 40);
  ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  server->Stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(stop_ms, 5000.0) << "drain deadline must bound Stop()";
  EXPECT_GE(server->counters().drain_forced.load(), 1u);
  close(fd);
}

// A backlog whose execution alone far outlasts the deadline (the
// responses are small, so nothing parks): Stop() must cut the queue
// short at the deadline instead of first running every queued frame.
TEST(ServerShutdown, DrainDeadlineCutsAnExecutingBacklogShort) {
  ServerConfig cfg;
  cfg.pool_threads = 2;
  cfg.drain_deadline_ms = 100;
  cfg.port = 0;
  Server server(cfg);
  {
    Schema runs({{"forecast", DataType::kString},
                 {"day", DataType::kInt64},
                 {"walltime", DataType::kDouble}});
    statsdb::Table* t = *server.db().CreateTable("runs", runs);
    statsdb::Table::BulkAppender app(t);
    for (int i = 0; i < 20000; ++i) {
      app.String("till").Int64(i % 30).Double(1.0 * i);
      ASSERT_TRUE(app.EndRow().ok());
    }
    ASSERT_TRUE(app.Finish().ok());
  }
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // Each frame groups 20k distinct keys (tens of ms in Release); distinct
  // SQL defeats the cache. Running the whole backlog takes many seconds.
  constexpr int kFrames = 400;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    WireWriter w;
    w.U8(0);
    const std::string sql =
        "SELECT walltime, COUNT(*) AS n FROM runs WHERE day <> " +
        std::to_string(i) + " GROUP BY walltime ORDER BY n DESC LIMIT 1";
    w.Raw(sql.data(), sql.size());
    burst += EncodeFrame(Opcode::kQuery, w.buffer());
  }
  ASSERT_TRUE(client->SendRaw(burst).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  server.Stop();
  const double stop_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_LT(stop_ms, 5000.0) << "drain deadline must bound Stop()";
  EXPECT_GE(server.counters().drain_forced.load(), 1u);
  uint64_t executed = 0;
  for (const SessionSnapshot& s : server.SessionStats()) executed += s.queries;
  EXPECT_LT(executed, static_cast<uint64_t>(kFrames));
}

// ---------------------------------------------------------------------
// End-to-end chaos against a live server
// ---------------------------------------------------------------------

// The bench's chaos lane in miniature, as a test: a RetryingClient
// behind a full-fault ChaosTransport completes every read against a
// live server (TSan runs this with all server threads live).
TEST(ChaosEndToEnd, RetryingClientCompletesEveryReadUnderFaults) {
  ServerConfig cfg;
  cfg.pool_threads = 2;
  auto server = StartedServer(cfg);

  ChaosProfile profile;
  profile.seed = 0xfeedface;
  profile.split_gap_bytes = 48;
  profile.delay_gap_bytes = 1024;
  profile.delay_min_ms = 0.05;
  profile.delay_max_ms = 0.5;
  profile.corrupt_gap_bytes = 8192;
  profile.reset_gap_bytes = 8192;

  RetryingClientOptions opts;
  opts.client.connect_timeout_ms = 2000;
  opts.client.io_timeout_ms = 500;
  auto counters = std::make_shared<ChaosCounters>();
  auto conn = std::make_shared<std::atomic<uint64_t>>(0);
  opts.client.wrap_transport =
      [profile, counters,
       conn](std::unique_ptr<Transport> base) -> std::unique_ptr<Transport> {
    return std::make_unique<ChaosTransport>(std::move(base), profile,
                                            conn->fetch_add(1),
                                            counters.get());
  };
  opts.policy.max_attempts = 12;
  opts.policy.base_backoff = 0.001;
  opts.policy.max_backoff = 0.02;

  RetryingClient client("127.0.0.1", server->port(), std::move(opts));
  int completed = 0;
  for (int i = 0; i < 80; ++i) {
    auto rs = client.Query("SELECT COUNT(*) AS n FROM runs WHERE day = " +
                           std::to_string(i % 30));
    // rows OR a server-reported error (a corrupted byte may have turned
    // the SQL to garbage — the server's parse error is a complete
    // answer to what actually arrived). What must NOT happen is an
    // exhausted ladder or a hang.
    if (rs.ok() || client.raw().last_error_was_server_reported()) {
      ++completed;
    }
  }
  EXPECT_EQ(completed, 80);
  EXPECT_EQ(client.stats().gave_up, 0u);
  server->Stop();
}

}  // namespace
}  // namespace net
}  // namespace ff

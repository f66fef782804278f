#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/serialize.h"
#include "obs/profiler.h"
#include "statsdb/sql.h"
#include "util/logging.h"

namespace ff {
namespace net {

namespace {

using statsdb::ResultSet;
using util::Status;
using util::StatusOr;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Dashboard point queries are tiny frames; Nagle would serialize every
  // request/response pair onto delayed-ACK timers and wreck tail latency.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

bool IsWriteStatement(const std::string& sql) {
  size_t i = 0;
  const size_t n = sql.size();
  for (;;) {
    while (i < n && std::isspace(static_cast<unsigned char>(sql[i]))) ++i;
    if (i + 1 < n && sql[i] == '-' && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (i + 1 < n && sql[i] == '/' && sql[i + 1] == '*') {
      size_t end = sql.find("*/", i + 2);
      if (end == std::string::npos) return false;  // unterminated: read path
      i = end + 2;
      continue;
    }
    break;
  }
  std::string word;
  while (i < n && std::isalpha(static_cast<unsigned char>(sql[i]))) {
    word.push_back(
        static_cast<char>(std::toupper(static_cast<unsigned char>(sql[i]))));
    ++i;
  }
  return word == "INSERT" || word == "UPDATE" || word == "DELETE" ||
         word == "CREATE" || word == "DROP";
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { Stop(); }

util::Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  stopping_.store(false, std::memory_order_release);

  if (config_.pool_threads == 0) config_.pool_threads = 1;
  pool_ = std::make_unique<parallel::ThreadPool>(config_.pool_threads);

  // Wire morsel parallelism onto the server's own pool so session tasks
  // and query morsels share workers (the PR 7 nested-submission
  // contract). FF_STATSDB_PARALLEL still wins on the thread cap when
  // set; the database keeps its own morsel sizing.
  statsdb::ParallelConfig pc = db_.parallel_config();
  pc.pool = pool_.get();
  if (std::getenv("FF_STATSDB_PARALLEL") == nullptr) {
    pc.max_threads = config_.pool_threads;
  }
  db_.set_parallel_config(pc);

  // Served databases default the query cache fully on — dashboards
  // re-issue the same statements continuously. The environment variable
  // still wins: an explicit FF_STATSDB_CACHE (even "off") is an operator
  // decision this default must not override.
  if (config_.cache_default_full &&
      std::getenv("FF_STATSDB_CACHE") == nullptr) {
    statsdb::CacheConfig cc = db_.cache_config();
    cc.mode = statsdb::CacheConfig::Mode::kFull;
    db_.set_cache_config(cc);
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno("bind");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (listen(listen_fd_, 128) < 0) {
    Status st = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) <
      0) {
    Status st = Errno("getsockname");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  port_ = ntohs(bound.sin_port);
  FF_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (pipe(pipe_fds) < 0) {
    Status st = Errno("pipe");
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  FF_RETURN_IF_ERROR(SetNonBlocking(wake_read_fd_));
  FF_RETURN_IF_ERROR(SetNonBlocking(wake_write_fd_));

  event_thread_ = std::thread([this] { EventLoop(); });
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  WakeEventThread();
  if (event_thread_.joinable()) event_thread_.join();

  // Quiesce. With the event thread gone nothing new enters the pool, so
  // "no task in flight, nothing queued or parked" is a stable fixpoint.
  // The event thread's flushing duty moves here: parked response bytes
  // still reach their clients (the no-torn-frames drain guarantee). The
  // sessions are polled, not waited on, so drain_deadline_ms bounds the
  // whole backlog: at the deadline every session turns fatal and its
  // drain task stops at the next frame. A statement already executing
  // still runs to completion — SQL is never aborted mid-flight.
  const int64_t deadline_ns =
      config_.drain_deadline_ms > 0
          ? obs::RuntimeNowNs() +
                static_cast<int64_t>(config_.drain_deadline_ms) * 1000000
          : INT64_MAX;
  for (;;) {
    bool busy = false;
    for (auto& [fd, s] : sessions_) {
      FlushOutbound(s);
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->fatal) s->obuf.clear();
      busy |= s->task_in_flight || !s->pending.empty() || !s->obuf.empty();
    }
    if (!busy) break;
    if (obs::RuntimeNowNs() > deadline_ns) {
      counters_.drain_forced.fetch_add(1, std::memory_order_relaxed);
      for (auto& [fd, s] : sessions_) {
        std::lock_guard<std::mutex> lk(s->mu);
        s->fatal = true;
        s->obuf.clear();
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Waits out the frame a forced session's task is executing, and the
  // tail every task runs after releasing its slot (reap, wakeup).
  pool_->Wait();

  for (auto& [fd, s] : sessions_) {
    s->state->closed.store(true, std::memory_order_release);
    close(fd);
  }
  sessions_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_read_fd_ >= 0) close(wake_read_fd_);
  if (wake_write_fd_ >= 0) close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
}

void Server::WakeEventThread() {
  char b = 1;
  ssize_t ignored = write(wake_write_fd_, &b, 1);  // EAGAIN = already awake
  (void)ignored;
}

util::Status Server::SubmitWrite(std::function<util::Status()> job) {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server not running");
  }
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  return job();
}

void Server::EventLoop() {
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    bool want_tick = false;
    for (auto& [fd, s] : sessions_) {
      short events = 0;
      {
        std::lock_guard<std::mutex> lk(s->mu);
        // A poisoned or finished stream needs no more reads; the session
        // only waits for its task to drain before reaping.
        if (!s->eof && !s->parse_dead) events = POLLIN;
        if (!s->obuf.empty() && !s->fatal) {
          events |= POLLOUT;
          want_tick = true;  // the write-stall clock is running
        }
      }
      fds.push_back({fd, events, 0});
    }
    // Idle and stall deadlines need the loop to wake even when no fd
    // fires; 20 ms bounds their detection granularity.
    if (config_.idle_timeout_ms > 0 && !sessions_.empty()) want_tick = true;
    if (poll(fds.data(), fds.size(), want_tick ? 20 : -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_read_fd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (fds[1].revents & POLLIN) AcceptNew();
    for (size_t i = 2; i < fds.size(); ++i) {
      auto it = sessions_.find(fds[i].fd);
      if (it == sessions_.end()) continue;
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        PumpSession(it->second);
      }
      if (fds[i].revents & POLLOUT) FlushOutbound(it->second);
    }
    // Deadline sweep: write-stall (also checked inside FlushOutbound,
    // but a reader that never becomes writable never fires POLLOUT) and
    // idle sessions.
    const int64_t now = obs::RuntimeNowNs();
    for (auto& [fd, s] : sessions_) {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->fatal) continue;
      if (!s->obuf.empty() && config_.write_stall_timeout_ms > 0 &&
          now - s->last_progress_ns >
              static_cast<int64_t>(config_.write_stall_timeout_ms) * 1000000) {
        counters_.stall_closed.fetch_add(1, std::memory_order_relaxed);
        s->fatal = true;
        s->obuf.clear();
        continue;
      }
      // rbuf may hold a half-received frame — a client wedged mid-frame
      // is exactly the slow-loris shape the idle timeout is for.
      if (config_.idle_timeout_ms > 0 && !s->task_in_flight &&
          s->pending.empty() && s->obuf.empty() &&
          now - s->last_activity_ns >
              static_cast<int64_t>(config_.idle_timeout_ms) * 1000000) {
        counters_.idle_closed.fetch_add(1, std::memory_order_relaxed);
        s->fatal = true;  // nothing buffered: the peer sees a clean close
      }
    }
    // Reap sessions whose tasks flagged them done/fatal. An EOF session
    // still flushing parked bytes is NOT reaped — the peer half-closed
    // and may well be reading our responses (that is what a pipelined
    // client draining its tail looks like).
    std::vector<int> reap;
    {
      std::lock_guard<std::mutex> lk(reap_mu_);
      reap.swap(reap_fds_);
    }
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = *it->second;
      bool close_now = false;
      {
        std::lock_guard<std::mutex> lk(s.mu);
        close_now = !s.task_in_flight && s.pending.empty() &&
                    (s.fatal || (s.eof && s.obuf.empty()));
      }
      if (close_now) {
        s.state->closed.store(true, std::memory_order_release);
        close(it->first);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void Server::AcceptNew() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    SetNoDelay(fd);
    if (config_.max_connections > 0 &&
        sessions_.size() >= config_.max_connections) {
      // Refuse with a reason: one typed kError frame, then close. The
      // frame is a few dozen bytes into a fresh socket buffer, so the
      // non-blocking send cannot meaningfully fall short.
      counters_.refused_connections.fetch_add(1, std::memory_order_relaxed);
      WireWriter w;
      w.U8(static_cast<uint8_t>(util::StatusCode::kUnavailable));
      const std::string msg =
          "server at connection limit (" +
          std::to_string(config_.max_connections) + ")";
      w.Raw(msg.data(), msg.size());
      std::string frame = EncodeFrame(Opcode::kError, w.buffer());
      (void)send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      continue;
    }
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    auto s = std::make_shared<Session>();
    s->fd = fd;
    s->state = std::make_shared<SessionState>();
    s->last_activity_ns = obs::RuntimeNowNs();
    {
      std::lock_guard<std::mutex> lk(registry_mu_);
      s->state->id = next_session_id_++;
      registry_.push_back(s->state);
    }
    sessions_.emplace(fd, std::move(s));
  }
}

void Server::PumpSession(const std::shared_ptr<Session>& s) {
  char buf[1 << 16];
  bool saw_eof = false;
  for (;;) {
    ssize_t n = read(s->fd, buf, sizeof(buf));
    if (n > 0) {
      s->rbuf.append(buf, static_cast<size_t>(n));
      s->state->bytes_in.fetch_add(static_cast<uint64_t>(n),
                                   std::memory_order_relaxed);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    saw_eof = true;  // hard error: treat as disconnect
    break;
  }

  const int64_t now = obs::RuntimeNowNs();
  bool poisoned = false;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->last_activity_ns = now;
    if (!s->parse_dead) {
      for (;;) {
        FrameView f;
        size_t consumed = 0;
        FrameParse p =
            ParseFrame(s->rbuf, config_.max_frame_bytes, &f, &consumed);
        if (p == FrameParse::kNeedMore) break;
        if (p == FrameParse::kBad) {
          PendingFrame bad;
          bad.poisoned = true;
          bad.enqueue_ns = now;
          s->pending.push_back(std::move(bad));
          pending_frames_.fetch_add(1, std::memory_order_relaxed);
          s->parse_dead = true;
          poisoned = true;
          break;
        }
        PendingFrame pf;
        pf.opcode = f.opcode;
        pf.body.assign(f.body.data(), f.body.size());
        pf.enqueue_ns = now;
        // Admission control: a frame arriving over the global budget is
        // queued SHED — it keeps its place in the session's order (the
        // protocol is strictly in-order per session) but will be
        // answered kUnavailable without ever reaching the engine.
        pf.shed = config_.max_pending_frames > 0 &&
                  pending_frames_.load(std::memory_order_relaxed) >=
                      config_.max_pending_frames;
        s->pending.push_back(std::move(pf));
        pending_frames_.fetch_add(1, std::memory_order_relaxed);
        s->rbuf.erase(0, consumed);
      }
      if (poisoned) s->rbuf.clear();
    }
    if (saw_eof) s->eof = true;
  }
  if (poisoned) shutdown(s->fd, SHUT_RD);
  ScheduleDrain(s);
}

void Server::ScheduleDrain(const std::shared_ptr<Session>& s) {
  // Off the pool, so drain tasks arrive through the external queue that
  // a worker waiting on its morsels never pops (file comment).
  FF_DCHECK(pool_->caller_worker_index() == static_cast<size_t>(-1));
  bool submit = false;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    if (!s->task_in_flight && !s->pending.empty() && !s->fatal) {
      s->task_in_flight = true;
      submit = true;
    }
  }
  if (submit) {
    std::shared_ptr<Session> sp = s;
    pool_->Submit([this, sp] { DrainSession(sp); });
  }
}

void Server::DrainSession(std::shared_ptr<Session> s) {
  for (;;) {
    PendingFrame frame;
    {
      std::lock_guard<std::mutex> lk(s->mu);
      if (s->pending.empty() || s->fatal) {
        if (s->fatal) {
          pending_frames_.fetch_sub(s->pending.size(),
                                    std::memory_order_relaxed);
          s->pending.clear();
        }
        s->task_in_flight = false;
        s->last_activity_ns = obs::RuntimeNowNs();
        break;
      }
      frame = std::move(s->pending.front());
      s->pending.pop_front();
    }
    pending_frames_.fetch_sub(1, std::memory_order_relaxed);
    const uint64_t wait_ns = static_cast<uint64_t>(
        std::max<int64_t>(0, obs::RuntimeNowNs() - frame.enqueue_ns));
    breakdown_.queue_wait_ns.Record(wait_ns);
    s->state->queue_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);

    if (frame.poisoned) {
      SendError(*s, Status::ParseError(
                        "malformed frame: declared length is zero or exceeds "
                        "the server frame limit"));
      std::lock_guard<std::mutex> lk(s->mu);
      s->fatal = true;
      continue;
    }

    // Shed before classify/execute: an over-budget frame costs one
    // error frame, never engine time.
    if (frame.shed) {
      counters_.shed_frames.fetch_add(1, std::memory_order_relaxed);
      s->state->shed.fetch_add(1, std::memory_order_relaxed);
      SendError(*s, Status::Unavailable(
                        "overloaded: admission budget exceeded (" +
                        std::to_string(config_.max_pending_frames) +
                        " frames queued)"));
      continue;
    }

    HandleFrame(*s, frame);
  }
  // Out of the loop: task slot released; tell the event thread in case
  // the session is now reapable (fatal or EOF with nothing pending).
  bool reap = false;
  {
    std::lock_guard<std::mutex> lk(s->mu);
    reap = s->fatal || s->eof;
  }
  if (reap) {
    std::lock_guard<std::mutex> lk(reap_mu_);
    reap_fds_.push_back(s->fd);
  }
  WakeEventThread();
}

void Server::RecordExec(Session& s, int64_t start_ns) {
  const uint64_t ns = static_cast<uint64_t>(
      std::max<int64_t>(0, obs::RuntimeNowNs() - start_ns));
  breakdown_.exec_ns.Record(ns);
  s.state->exec_ns.fetch_add(ns, std::memory_order_relaxed);
}

void Server::HandleFrame(Session& s, PendingFrame& frame) {
  switch (frame.opcode) {
    case Opcode::kQuery:
      HandleQuery(s, frame);
      return;
    case Opcode::kPrepare:
      HandlePrepare(s, frame);
      return;
    case Opcode::kExecute:
      HandleExecute(s, frame);
      return;
    case Opcode::kRefreshStats:
      HandleRefreshStats(s);
      return;
    case Opcode::kCloseStmt: {
      WireReader r(frame.body);
      auto id = r.U32();
      if (!id.ok()) {
        SendError(s, id.status());
        return;
      }
      if (s.stmts.erase(*id) == 0) {
        SendError(s, Status::NotFound("no prepared statement with id " +
                                      std::to_string(*id)));
        return;
      }
      s.state->prepared_open.fetch_sub(1, std::memory_order_relaxed);
      SendFrame(s, Opcode::kStmtClosed, "");
      return;
    }
    default:
      SendError(s, Status::InvalidArgument(
                       "unknown opcode " +
                       std::to_string(static_cast<int>(frame.opcode))));
      return;
  }
}

void Server::HandleQuery(Session& s, const PendingFrame& frame) {
  s.state->queries.fetch_add(1, std::memory_order_relaxed);
  WireReader r(frame.body);
  auto flags = r.U8();
  if (!flags.ok()) {
    SendError(s, flags.status());
    return;
  }
  std::string sql(r.Rest());
  const int64_t t0 = obs::RuntimeNowNs();
  StatusOr<ResultSet> result =
      IsWriteStatement(sql) ? RunWrite(sql) : RunRead(sql);
  RecordExec(s, t0);
  if (result.ok()) {
    SendResult(s, *result, *flags);
  } else {
    SendError(s, result.status());
  }
}

void Server::HandlePrepare(Session& s, const PendingFrame& frame) {
  std::string sql(frame.body);
  StatusOr<statsdb::PreparedStatement> ps = [&] {
    std::shared_lock<std::shared_mutex> lock(db_mu_);
    return db_.Prepare(sql);
  }();
  if (!ps.ok()) {
    SendError(s, ps.status());
    return;
  }
  const uint32_t id = s.next_stmt_id++;
  const uint32_t nparams = static_cast<uint32_t>(ps->num_params());
  s.stmts.emplace(id, std::move(*ps));
  s.state->prepared_open.fetch_add(1, std::memory_order_relaxed);
  WireWriter w;
  w.U32(id);
  w.U32(nparams);
  SendFrame(s, Opcode::kPrepared, w.buffer());
}

void Server::HandleExecute(Session& s, const PendingFrame& frame) {
  s.state->queries.fetch_add(1, std::memory_order_relaxed);
  WireReader r(frame.body);
  uint32_t id = 0;
  uint8_t flags = 0;
  std::vector<statsdb::Value> params;
  {
    auto idv = r.U32();
    if (!idv.ok()) return SendError(s, idv.status());
    id = *idv;
    auto fl = r.U8();
    if (!fl.ok()) return SendError(s, fl.status());
    flags = *fl;
    auto np = r.U16();
    if (!np.ok()) return SendError(s, np.status());
    params.reserve(*np);
    for (uint16_t i = 0; i < *np; ++i) {
      auto v = r.Value();
      if (!v.ok()) return SendError(s, v.status());
      params.push_back(std::move(*v));
    }
  }
  auto it = s.stmts.find(id);
  if (it == s.stmts.end()) {
    SendError(s, Status::NotFound("no prepared statement with id " +
                                  std::to_string(id)));
    return;
  }
  const int64_t t0 = obs::RuntimeNowNs();
  StatusOr<ResultSet> result = [&] {
    std::shared_lock<std::shared_mutex> lock(db_mu_);
    return it->second.Execute(params);
  }();
  RecordExec(s, t0);
  if (result.ok()) {
    SendResult(s, *result, flags);
  } else {
    SendError(s, result.status());
  }
}

util::StatusOr<statsdb::ResultSet> Server::RunRead(const std::string& sql) {
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  return db_.Sql(sql);
}

util::StatusOr<statsdb::ResultSet> Server::RunWrite(const std::string& sql) {
  // Parsing reads no table, so it runs before the lock.
  FF_ASSIGN_OR_RETURN(statsdb::WriteStatement parsed, statsdb::ParseWrite(sql));
  std::unique_lock<std::shared_mutex> lock(db_mu_);
  return statsdb::ExecuteWrite(&db_, parsed);
}

void Server::HandleRefreshStats(Session& s) {
  s.state->queries.fetch_add(1, std::memory_order_relaxed);
  const int64_t t0 = obs::RuntimeNowNs();
  Status st = [&] {
    std::unique_lock<std::shared_mutex> lock(db_mu_);
    return RefreshRuntimeTablesLocked();
  }();
  RecordExec(s, t0);
  if (st.ok()) {
    SendFrame(s, Opcode::kStatsOk, "");
  } else {
    SendError(s, st);
  }
}

util::Status Server::RefreshRuntimeTables() {
  return SubmitWrite([this] { return RefreshRuntimeTablesLocked(); });
}

util::Status Server::RefreshRuntimeTablesLocked() {
  // Snapshots first: the loads below mutate tables (and thereby the
  // cache stats they export). Self-observation is by design — clients
  // read these tables back over the wire.
  const statsdb::QueryCacheStats cache_stats = db_.cache().Stats();
  std::vector<obs::SessionRuntime> sessions;
  for (const SessionSnapshot& snap : SessionStats()) {
    obs::SessionRuntime sr;
    sr.id = snap.id;
    sr.closed = snap.closed;
    sr.queries = snap.queries;
    sr.errors = snap.errors;
    sr.shed = snap.shed;
    sr.rows_out = snap.rows_out;
    sr.bytes_in = snap.bytes_in;
    sr.bytes_out = snap.bytes_out;
    sr.prepared_open = snap.prepared_open;
    sr.queue_wait_ms = Ms(snap.queue_wait_ns);
    sr.exec_ms = Ms(snap.exec_ns);
    sr.serialize_ms = Ms(snap.serialize_ns);
    sr.send_ms = Ms(snap.send_ns);
    sessions.push_back(sr);
  }
  obs::ServerRuntime server;
  server.accepted = counters_.accepted.load(std::memory_order_relaxed);
  server.refused_connections =
      counters_.refused_connections.load(std::memory_order_relaxed);
  server.shed_frames = counters_.shed_frames.load(std::memory_order_relaxed);
  server.stall_closed = counters_.stall_closed.load(std::memory_order_relaxed);
  server.overflow_closed =
      counters_.overflow_closed.load(std::memory_order_relaxed);
  server.idle_closed = counters_.idle_closed.load(std::memory_order_relaxed);
  server.drain_forced = counters_.drain_forced.load(std::memory_order_relaxed);
  FF_RETURN_IF_ERROR(obs::LoadRuntimeCache(cache_stats, &db_).status());
  FF_RETURN_IF_ERROR(obs::LoadRuntimeSessions(sessions, &db_).status());
  FF_RETURN_IF_ERROR(obs::LoadRuntimeServer(server, &db_).status());
  return Status::OK();
}

std::vector<SessionSnapshot> Server::SessionStats() const {
  std::vector<std::shared_ptr<SessionState>> states;
  {
    std::lock_guard<std::mutex> lk(registry_mu_);
    states = registry_;
  }
  std::vector<SessionSnapshot> out;
  out.reserve(states.size());
  for (const auto& st : states) {
    SessionSnapshot s;
    s.id = st->id;
    s.closed = st->closed.load(std::memory_order_acquire);
    s.queries = st->queries.load(std::memory_order_relaxed);
    s.errors = st->errors.load(std::memory_order_relaxed);
    s.shed = st->shed.load(std::memory_order_relaxed);
    s.rows_out = st->rows_out.load(std::memory_order_relaxed);
    s.bytes_in = st->bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = st->bytes_out.load(std::memory_order_relaxed);
    s.prepared_open = st->prepared_open.load(std::memory_order_relaxed);
    s.queue_wait_ns = st->queue_wait_ns.load(std::memory_order_relaxed);
    s.exec_ns = st->exec_ns.load(std::memory_order_relaxed);
    s.serialize_ns = st->serialize_ns.load(std::memory_order_relaxed);
    s.send_ns = st->send_ns.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void Server::SendResult(Session& s, const statsdb::ResultSet& rs,
                        uint8_t flags) {
  s.state->rows_out.fetch_add(rs.rows.size(), std::memory_order_relaxed);
  if ((flags & kFlagRowAtATime) == 0) {
    // Batched path: one columnar frame, one send.
    const int64_t t0 = obs::RuntimeNowNs();
    WireWriter body;
    EncodeResultSet(rs, &body);
    std::string frame = EncodeFrame(Opcode::kResultSet, body.buffer());
    RecordSerialize(s, t0);
    (void)SendAll(s, frame);
    return;
  }
  // Naive baseline: header frame, one frame AND one send per row, then a
  // trailer. Kept deliberately write-per-row so perf_server can measure
  // what batching buys.
  {
    const int64_t t0 = obs::RuntimeNowNs();
    WireWriter header;
    EncodeSchema(rs.schema, &header);
    std::string frame = EncodeFrame(Opcode::kRowHeader, header.buffer());
    RecordSerialize(s, t0);
    if (!SendAll(s, frame).ok()) return;
  }
  const size_t ncols = rs.schema.num_columns();
  for (const statsdb::Row& row : rs.rows) {
    const int64_t t0 = obs::RuntimeNowNs();
    WireWriter w;
    for (size_t c = 0; c < ncols; ++c) w.Value(row[c]);
    std::string frame = EncodeFrame(Opcode::kRow, w.buffer());
    RecordSerialize(s, t0);
    if (!SendAll(s, frame).ok()) return;
  }
  const int64_t t0 = obs::RuntimeNowNs();
  WireWriter trailer;
  trailer.U64(rs.rows.size());
  std::string frame = EncodeFrame(Opcode::kRowEnd, trailer.buffer());
  RecordSerialize(s, t0);
  (void)SendAll(s, frame);
}

void Server::RecordSerialize(Session& s, int64_t start_ns) {
  const uint64_t ns = static_cast<uint64_t>(
      std::max<int64_t>(0, obs::RuntimeNowNs() - start_ns));
  breakdown_.serialize_ns.Record(ns);
  s.state->serialize_ns.fetch_add(ns, std::memory_order_relaxed);
}

void Server::SendError(Session& s, const util::Status& st) {
  s.state->errors.fetch_add(1, std::memory_order_relaxed);
  WireWriter w;
  w.U8(static_cast<uint8_t>(st.code()));
  w.Raw(st.message().data(), st.message().size());
  SendFrame(s, Opcode::kError, w.buffer());
}

void Server::SendFrame(Session& s, Opcode op, std::string_view body) {
  (void)SendAll(s, EncodeFrame(op, body));
}

util::Status Server::ParkLocked(Session& s, std::string_view rest) {
  if (config_.max_outbound_buffer_bytes > 0 &&
      s.obuf.size() + rest.size() > config_.max_outbound_buffer_bytes) {
    counters_.overflow_closed.fetch_add(1, std::memory_order_relaxed);
    s.obuf.clear();  // a capped reader never gets a torn tail, just EOF
    return Status::IoError(
        "outbound buffer cap exceeded (" +
        std::to_string(config_.max_outbound_buffer_bytes) +
        " bytes): slow reader closed");
  }
  if (s.obuf.empty()) s.last_progress_ns = obs::RuntimeNowNs();
  s.obuf.append(rest.data(), rest.size());
  return Status::OK();
}

util::Status Server::SendAll(Session& s, std::string_view data) {
  const int64_t t0 = obs::RuntimeNowNs();
  size_t sent = 0;
  bool parked = false;
  Status result = Status::OK();
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.fatal) return Status::IoError("session closed");
    if (!s.obuf.empty()) {
      // Bytes are already parked: append behind them (frame order) and
      // let the event thread's POLLOUT flush carry everything.
      result = ParkLocked(s, data);
      parked = result.ok();
    } else {
      size_t off = 0;
      while (off < data.size()) {
        ssize_t n = send(s.fd, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
        if (n > 0) {
          off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          // The kernel buffer is full: park the remainder and move on
          // rather than stall a pool worker on ONE slow reader.
          result = ParkLocked(s, data.substr(off));
          parked = result.ok();
          break;
        }
        result = Errno("send");  // EPIPE/ECONNRESET: peer went away
        break;
      }
      sent = off;
    }
    if (!result.ok()) s.fatal = true;
  }
  const uint64_t ns = static_cast<uint64_t>(
      std::max<int64_t>(0, obs::RuntimeNowNs() - t0));
  breakdown_.send_ns.Record(ns);
  s.state->send_ns.fetch_add(ns, std::memory_order_relaxed);
  if (sent > 0) {
    s.state->bytes_out.fetch_add(sent, std::memory_order_relaxed);
  }
  // The event thread must learn about new POLLOUT interest (parked
  // bytes) or a newly fatal session either way.
  if (parked || !result.ok()) WakeEventThread();
  return result;
}

void Server::FlushOutbound(const std::shared_ptr<Session>& s) {
  std::lock_guard<std::mutex> lk(s->mu);
  if (s->fatal || s->obuf.empty()) return;
  size_t sent = 0;
  while (sent < s->obuf.size()) {
    ssize_t n = send(s->fd, s->obuf.data() + sent, s->obuf.size() - sent,
                     MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    s->fatal = true;  // peer went away; parked bytes die with it
    s->obuf.clear();
    return;
  }
  if (sent > 0) {
    s->obuf.erase(0, sent);
    s->last_progress_ns = obs::RuntimeNowNs();
    s->state->bytes_out.fetch_add(sent, std::memory_order_relaxed);
  }
}

}  // namespace net
}  // namespace ff

// Served statsdb: a socket server that owns a Database and runs
// concurrent client sessions as tasks on the work-stealing ThreadPool.
//
// Threading model
// ---------------
// Three kinds of threads cooperate:
//
//  * One EVENT thread runs a poll() loop over the listen socket, a
//    self-pipe (wakeups), and every connected session. It accepts,
//    reads, and splits the byte stream into frames (wire.h); it never
//    executes SQL. Complete frames go onto the session's pending queue
//    and at most ONE pool task per session is kept in flight to drain
//    it — so frames of one session execute in order while different
//    sessions proceed concurrently, even on a one-worker pool. The
//    event thread also FLUSHES outbound buffers on POLLOUT: response
//    bytes a slow reader would not take stay parked per session (see
//    Session::obuf) instead of stalling the sender, and the event
//    thread enforces the write-stall / idle deadlines on them.
//
//  * The POOL workers run session tasks. A task drains its session's
//    queue: classify the statement, execute, serialize, send — the
//    socket is written only here, whole responses in single send()
//    batches. Read statements (SELECT/EXPLAIN, Prepare, Execute) run
//    under the shared side of a reader/writer gate; morsel-parallel
//    queries fan out on the SAME pool via TaskGroup (the documented
//    nested-submission contract), so a session task helping another
//    session's task is normal. The shared gate is therefore REENTRANT
//    per thread (a depth counter): help-first stealing can nest a
//    second shared acquisition on a thread already holding one, which
//    with a plain shared_mutex could self-deadlock behind a waiting
//    writer.
//
//  * One WRITER thread owns every mutation. Write statements
//    (CREATE/INSERT/UPDATE/DELETE) and maintenance jobs (runtime-table
//    refresh, cache reconfiguration) queue here; each job runs under
//    the exclusive side of the gate, then re-warms every table's lazy
//    scan state (Table::store(): zone maps + null-bitmap padding) BEFORE
//    releasing, so the concurrent read paths never hit the
//    const-but-lazily-mutating branches. Writes never run on the pool:
//    a pool task blocking exclusively while its worker "helps" another
//    task that takes the shared side would deadlock. For the same
//    reason a session task never BLOCKS on the writer either — it could
//    be a help-first-stolen nested task on a thread that already holds
//    the shared gate, and the writer would wait on that very holder.
//    Instead a mutating frame is handed off: the drain task returns
//    with its in-flight slot still claimed, the writer executes the
//    statement, sends the response itself (no other thread can be
//    writing that socket — the slot is claimed), and re-submits the
//    drain task to continue the session in order.
//
// The Database itself is not thread-safe by contract; this file is the
// single place that contract is widened, and the rules above are the
// whole proof: readers share, the writer excludes, lazy mutations are
// pre-warmed under exclusion, and the query cache / runtime histograms
// are internally synchronized by design.
//
// Malformed input (hardening contract, tested under ASan): a frame that
// fails to decode answers a kError frame and the session continues; a
// stream whose framing cannot be trusted (declared length zero or
// beyond max_frame_bytes) gets one kError and the session closes; a
// mid-frame disconnect just reaps the session. Nothing crashes, nothing
// hangs.

#ifndef FF_NET_SERVER_H_
#define FF_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "obs/runtime_stats.h"
#include "parallel/thread_pool.h"
#include "statsdb/database.h"

namespace ff {
namespace net {

struct ServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with Server::port()).
  uint16_t port = 0;
  /// Worker threads for the session/morsel pool.
  size_t pool_threads = 4;
  /// Ceiling on a client frame's declared length.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Default the query cache to both tiers (FF_STATSDB_CACHE=full
  /// equivalent). The environment variable still wins when set: ops
  /// overrides beat baked-in defaults.
  bool cache_default_full = true;

  // Overload / robustness limits. Every limit that fires is counted in
  // ServerCounters and exported through the runtime_server table, so a
  // client can read the overload ledger back over the wire.

  /// Connection ceiling; 0 = unlimited. The connection OVER the limit
  /// is still accepted, answered one typed kError frame (kUnavailable,
  /// "server at connection limit"), and closed — a refused client gets
  /// a reason, not a silent RST.
  size_t max_connections = 0;
  /// Global admission budget: total frames queued across all sessions;
  /// 0 = unlimited. A frame arriving over budget is NOT executed — the
  /// drain task answers it kUnavailable("overloaded: ...") immediately,
  /// shedding load in frame-arrival order while the session survives.
  size_t max_pending_frames = 0;
  /// Per-session cap on response bytes parked for a slow reader; 0 =
  /// unlimited. Exceeding it closes the session (overflow_closed):
  /// a reader this far behind is holding server memory hostage.
  size_t max_outbound_buffer_bytes = 0;
  /// A session whose parked outbound bytes make NO progress for this
  /// long is closed (stall_closed). Replaces the old hard-coded 10 s
  /// in-send poll: responses now park in the outbound buffer and flush
  /// asynchronously, so a stalled reader costs memory, never a thread.
  int write_stall_timeout_ms = 10000;
  /// A session with no request activity and nothing in flight for this
  /// long is closed cleanly (idle_closed); 0 = never.
  int idle_timeout_ms = 0;
  /// Stop() waits this long for in-flight work to drain before forcing
  /// sessions closed (drain_forced); 0 = wait forever. Statements
  /// already executing always run to completion — the deadline bounds
  /// the queued-but-unstarted backlog.
  int drain_deadline_ms = 0;
};

/// Server-wide robustness counters: one per configured limit, counting
/// how often it fired (plus `accepted`, the denominator). Exported as
/// the runtime_server table by RefreshRuntimeTables.
struct ServerCounters {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused_connections{0};
  std::atomic<uint64_t> shed_frames{0};
  std::atomic<uint64_t> stall_closed{0};
  std::atomic<uint64_t> overflow_closed{0};
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> drain_forced{0};
};

/// Per-session counters, exported as one row of the `runtime_sessions`
/// table (obs::LoadRuntimeSessions). Written by the session's task and
/// the event thread, read by the writer thread — hence atomics.
struct SessionState {
  uint64_t id = 0;
  std::atomic<bool> closed{false};
  std::atomic<uint64_t> queries{0};      // kQuery + kExecute frames
  std::atomic<uint64_t> errors{0};       // kError frames answered
  std::atomic<uint64_t> shed{0};         // frames refused by admission
  std::atomic<uint64_t> rows_out{0};     // result rows serialized
  std::atomic<uint64_t> bytes_in{0};     // frame bytes received
  std::atomic<uint64_t> bytes_out{0};    // frame bytes sent
  std::atomic<uint64_t> prepared_open{0};
  std::atomic<uint64_t> queue_wait_ns{0};
  std::atomic<uint64_t> exec_ns{0};
  std::atomic<uint64_t> serialize_ns{0};
  std::atomic<uint64_t> send_ns{0};
};

/// Plain-data copy of one session's counters.
struct SessionSnapshot {
  uint64_t id = 0;
  bool closed = false;
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t prepared_open = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t serialize_ns = 0;
  uint64_t send_ns = 0;
};

/// Server-wide request-stage histograms (PR 8 runtime profiler
/// primitives; relaxed atomics, TSan-clean). perf_server reports these
/// as the per-stage breakdown next to client-observed latency.
struct RequestBreakdown {
  obs::RuntimeHistogram queue_wait_ns;  // frame enqueue -> task pickup
  obs::RuntimeHistogram exec_ns;        // SQL execution
  obs::RuntimeHistogram serialize_ns;   // result -> wire bytes
  obs::RuntimeHistogram send_ns;        // send() until fully written
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The owned database. Populate tables before Start(); after Start()
  /// all access must go through the wire (or SubmitWrite) — the
  /// threading contract above is only enforced for served traffic.
  statsdb::Database& db() { return db_; }

  /// Binds, listens, spawns the event/writer/pool threads. IoError on
  /// socket failures.
  util::Status Start();
  /// Graceful shutdown: stops accepting, drains in-flight session
  /// tasks, joins all threads, closes every socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (after Start); the configured one until then.
  uint16_t port() const { return port_; }

  /// Runs `job` on the writer thread under the exclusive gate and waits
  /// for it. The hatch benches/tests use to mutate engine state (cache
  /// config, bulk loads) while the server is live.
  util::Status SubmitWrite(std::function<util::Status()> job);

  /// Rebuilds the runtime_cache and runtime_sessions tables from
  /// current stats (on the writer thread; also triggered over the wire
  /// by kRefreshStats).
  util::Status RefreshRuntimeTables();

  /// Snapshot of every session ever accepted (closed ones included).
  std::vector<SessionSnapshot> SessionStats() const;
  const RequestBreakdown& breakdown() const { return breakdown_; }
  const ServerCounters& counters() const { return counters_; }
  parallel::ThreadPool& pool() { return *pool_; }

 private:
  struct PendingFrame {
    Opcode opcode;
    std::string body;
    int64_t enqueue_ns = 0;
    bool poisoned = false;  // framing broke; answer kError and close
    bool shed = false;      // over admission budget; answer kUnavailable
  };

  struct Session {
    int fd = -1;
    std::shared_ptr<SessionState> state;
    std::string rbuf;  // event-thread only: unparsed stream bytes

    std::mutex mu;
    std::deque<PendingFrame> pending;
    bool task_in_flight = false;
    bool fatal = false;       // set by the task: close once drained
    bool eof = false;         // peer closed its end
    bool parse_dead = false;  // framing broke: stop parsing the stream

    // Outbound buffer: response bytes the kernel would not take
    // immediately. SendAll parks them here and the event thread
    // flushes on POLLOUT — no server thread ever blocks on a slow
    // reader. Guarded by mu, like the pending queue; the send side is
    // serialized BY mu now (task / writer-thread sends and event-thread
    // flushes interleave whole send() calls, and frame order is
    // preserved because a send appends behind a non-empty obuf).
    std::string obuf;
    int64_t last_progress_ns = 0;  // last time obuf bytes reached the fd
    int64_t last_activity_ns = 0;  // last read / completed drain

    // Task-side state; only the single in-flight task touches these.
    std::map<uint32_t, statsdb::PreparedStatement> stmts;
    uint32_t next_stmt_id = 1;
  };

  // Reentrant-shared reader/writer gate (see file comment).
  class ReadGate {
   public:
    void LockShared();
    void UnlockShared();
    std::shared_mutex& exclusive() { return mu_; }

   private:
    std::shared_mutex mu_;
    // One depth per OS thread: a process serves at most one Server's
    // pool per thread at a time (worker threads belong to one pool).
    static thread_local int depth_;
  };

  void EventLoop();
  void WriterLoop();
  void AcceptNew();
  /// Reads whatever the socket has, slices frames, schedules the task.
  void PumpSession(const std::shared_ptr<Session>& s);
  void ScheduleDrain(const std::shared_ptr<Session>& s);
  /// Pool task body: drains the pending queue.
  void DrainSession(std::shared_ptr<Session> s);
  /// Executes one frame and sends the response(s).
  void HandleFrame(Session& s, PendingFrame& frame);
  void HandleQuery(Session& s, const PendingFrame& frame);
  void HandleExecute(Session& s, const PendingFrame& frame);
  void HandlePrepare(Session& s, const PendingFrame& frame);

  /// Runs a read statement under the shared gate.
  util::StatusOr<statsdb::ResultSet> RunRead(const std::string& sql);
  /// If `frame` mutates (write statement / kRefreshStats), queues it to
  /// the writer thread — which will respond and re-submit the drain —
  /// and returns true; the drain task must then return WITHOUT
  /// releasing its in-flight slot. See the file comment for why the
  /// task must not block here.
  bool HandOffIfWrite(const std::shared_ptr<Session>& s, PendingFrame& frame);
  util::Status RefreshRuntimeTablesLocked();
  void RecordExec(Session& s, int64_t start_ns);
  void RecordSerialize(Session& s, int64_t start_ns);

  /// Serializes `rs` per `flags` and sends it, recording the
  /// serialize/send breakdown into `s` and the server histograms.
  void SendResult(Session& s, const statsdb::ResultSet& rs, uint8_t flags);
  void SendError(Session& s, const util::Status& st);
  void SendFrame(Session& s, Opcode op, std::string_view body);
  /// Queues `data` for the session: sends what the kernel takes now,
  /// parks the rest in the outbound buffer (flushed by the event
  /// thread on POLLOUT). Never blocks. Fails — and marks the session
  /// fatal — on a hard socket error or the outbound-buffer cap.
  util::Status SendAll(Session& s, std::string_view data);
  /// Appends to the outbound buffer under s.mu, enforcing
  /// max_outbound_buffer_bytes.
  util::Status ParkLocked(Session& s, std::string_view rest);
  /// Drains as much of the outbound buffer as the kernel takes;
  /// enforces write_stall_timeout_ms on no-progress sessions.
  void FlushOutbound(const std::shared_ptr<Session>& s);

  void WakeEventThread();

  ServerConfig config_;
  statsdb::Database db_;
  std::unique_ptr<parallel::ThreadPool> pool_;
  ReadGate gate_;
  RequestBreakdown breakdown_;
  ServerCounters counters_;
  /// Frames queued across ALL sessions — the admission-control level.
  std::atomic<size_t> pending_frames_{0};

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread event_thread_;

  // Event-thread-owned session table; other threads only reach sessions
  // through the shared_ptrs captured in their tasks.
  std::map<int, std::shared_ptr<Session>> sessions_;
  // Reap requests from tasks (fds whose session turned fatal).
  std::mutex reap_mu_;
  std::vector<int> reap_fds_;

  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<SessionState>> registry_;
  uint64_t next_session_id_ = 1;

  struct WriterJob {
    std::function<util::Status()> fn;
    std::promise<util::Status> done;
  };
  std::thread writer_thread_;
  std::mutex writer_mu_;
  std::condition_variable writer_cv_;
  std::deque<std::unique_ptr<WriterJob>> writer_jobs_;
  bool writer_stop_ = false;
  bool writer_busy_ = false;  // a job is executing (Stop's quiesce check)
};

/// True when the first keyword of `sql` names a mutating statement
/// (INSERT/UPDATE/DELETE/CREATE/DROP), skipping whitespace and SQL
/// comments. Everything else — SELECT, EXPLAIN, garbage — is routed to
/// the read path, where a non-statement fails with the engine's own
/// parse error, byte-identical to in-process execution.
bool IsWriteStatement(const std::string& sql);

}  // namespace net
}  // namespace ff

#endif  // FF_NET_SERVER_H_

// lyric_serverd: a long-lived multi-client TCP query server.
//
// Architecture (docs/SERVER.md):
//
//   * one accept thread owns the Listener; each accepted connection gets
//     a Session (id, socket, reader thread) in a registry guarded by a
//     kNetSession-ranked mutex.
//   * a reader thread parses one frame at a time and evaluates each
//     query itself before reading the next frame — requests on one
//     connection are strictly ordered, concurrency comes from having
//     many connections. The QueryScheduler is the one cap on queries
//     evaluating at once; every wait happens in its deadline-aware
//     queue.
//   * per-request deadline/budget/row options overlay the server's base
//     EvalOptions, so the PR-5 admission machinery (queueing, typed
//     kUnavailable sheds with retry-after hints) and the PR-4 governor
//     (PARTIAL results) are end-to-end visible on the wire.
//   * CREATE VIEW queries mutate the schema, which concurrent readers
//     scan unlocked; a server-wide SharedMutex (rank kNetSchemaGate)
//     guards it: shared for reads and for a view's evaluation, exclusive
//     only to install the view's rows. A writer mutex (rank kNetWriter),
//     held across a whole write, keeps writes serialized end to end.
//   * with a PagedStore attached (ServerOptions::store), a write runs in
//     three phases: evaluate under the shared gate; under the exclusive
//     gate, install the rows, append the change set to the WAL and
//     publish the commit LSN; after releasing the gate, wait for that
//     LSN to be durable (the WAL's group commit), and only then answer.
//     A read notes the published LSN under the shared gate and holds its
//     answer until that LSN is durable too, so whatever a response
//     reflects is durable. A failed append or fsync degrades the server
//     to read-only (reads keep serving, writes shed typed kUnavailable
//     with a retry-after hint) instead of aborting.
//   * graceful drain: BeginDrain() stops accepting and closes the
//     listener, lets every already-accepted query finish and be
//     answered, and sheds queries arriving after the drain began with
//     typed kUnavailable — WaitForDrainIdle() is the barrier a
//     controlled shutdown (lyric_serverd's SIGTERM path) waits on
//     before Stop().
//   * every server -> client frame stamps the current HealthState into
//     header byte 6, and a kHealth probe returns the full HealthInfo
//     (state, recovery stats, live load) so clients can watch a boot
//     or a drain from outside.
//   * protocol violations get a best-effort kError frame and the
//     connection is closed; transport failures (including injected
//     LYRIC_FAULT=net faults) drop the connection. Either way the
//     session is reaped — Stop() and the fault tests assert nothing
//     leaks.
//
// Observability: connection counts ride the net.connections.* counters
// and the net.connections.active gauge, per-frame service time lands in
// the net.frame.latency histogram, each write's exclusive hold of the
// schema gate in net.schema_gate.exclusive_ns, each read's wait for
// durability in net.read_durable_wait_ns, and protocol violations count
// into net.protocol_errors — all in the PR-6 registry, so `.metrics` /
// lyric_stats / the Prometheus flusher see the server for free.

#ifndef LYRIC_NET_SERVER_H_
#define LYRIC_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"
#include "object/database.h"
#include "query/evaluator.h"
#include "util/sync.h"

namespace lyric {

namespace storage {
class PagedStore;
}  // namespace storage

namespace net {

/// Server knobs.
struct ServerOptions {
  /// Bind address; loopback by default (a reproduction, not a product —
  /// there is no authentication on this protocol).
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read Server::port() after Start.
  uint16_t port = 0;
  /// Receive-side frame payload cap.
  uint32_t max_payload_bytes = kMaxPayloadBytes;
  /// Base evaluation options; per-request fields overlay these. The
  /// server never retries internally (retry is forced off unless set
  /// here explicitly): sheds travel to the client, whose RetryPolicy
  /// owns backoff.
  EvalOptions eval;
  /// When set, the server is store-backed: schema mutations write
  /// through to this store (ApplyChanges appends the records the
  /// mutation touched under the exclusive schema gate; WaitDurable
  /// fsyncs after the gate is released) before the client is
  /// acknowledged. Not owned; must outlive the server. The caller
  /// hydrates `db` from the store before Start.
  storage::PagedStore* store = nullptr;
  /// Retry-after hint (ms) on queries shed because a drain is in
  /// progress — "come back to the restarted process / another replica".
  uint64_t drain_retry_after_ms = 50;
  /// Retry-after hint (ms) on writes shed in read-only mode — the
  /// store needs operator attention, so back off harder.
  uint64_t read_only_retry_after_ms = 1000;
};

/// The server. Start() returns once the listener is live; Stop() (or the
/// destructor) tears down every session and joins every thread.
class Server {
 public:
  explicit Server(Database* db, ServerOptions options = ServerOptions());
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and spawns the accept thread. InvalidArgument if already
  /// started; bind failures pass through.
  Status Start();

  /// Idempotent full teardown: stops accepting, shuts down every
  /// session's socket, joins reader threads.
  void Stop();

  /// Starts a graceful drain (idempotent): stops accepting (the
  /// listener is closed, so new connects are refused at the TCP
  /// level), lets already-accepted queries finish and be answered, and
  /// sheds queries arriving afterwards with typed kUnavailable +
  /// retry-after. Sessions stay open so those sheds reach their
  /// clients; call WaitForDrainIdle then Stop to finish. Like Stop,
  /// must be driven from the control thread.
  void BeginDrain();

  /// Blocks until no accepted query is still evaluating, or
  /// `timeout_ms` elapses. Returns true when idle was reached.
  bool WaitForDrainIdle(uint64_t timeout_ms) LYRIC_EXCLUDES(lifecycle_mu_);

  /// Degrades the server to read-only with `cause` (idempotent): reads
  /// keep serving, schema mutations shed typed kUnavailable. Entered
  /// automatically when a store write-through fails; exposed so a
  /// supervisor can force it.
  void EnterReadOnly(const Status& cause) LYRIC_EXCLUDES(lifecycle_mu_);

  /// The lifecycle state stamped into every outgoing frame header.
  HealthState health() const;
  /// The full health report a kHealth probe returns.
  HealthInfo BuildHealthInfo() LYRIC_EXCLUDES(lifecycle_mu_);

  bool running() const { return running_.load(std::memory_order_acquire); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }
  /// Accepted queries currently evaluating (or having their response
  /// written). The drain barrier waits for this to hit zero.
  uint64_t in_flight_queries() const LYRIC_EXCLUDES(lifecycle_mu_);

  /// The bound port (after Start).
  uint16_t port() const { return port_; }

  /// Live (not yet reaped) sessions. 0 after Stop, and — the fault-gate
  /// contract — 0 once every client has disconnected, faults included.
  size_t active_sessions() const LYRIC_EXCLUDES(mu_);
  /// Lifetime accepted-connection count.
  uint64_t sessions_opened() const {
    return sessions_opened_.load(std::memory_order_relaxed);
  }

 private:
  /// One connection: identity, transport, and its reader thread.
  struct Session {
    uint64_t id = 0;
    /// The reader only shuts it down when it finishes; the fd closes
    /// when the Session is destroyed after the reader is joined, so
    /// Stop's ShutdownBoth never races a close (or a reused fd number).
    Socket socket;
    std::thread reader;
    /// Set by the reader as its last act; the accept loop and Stop reap
    /// (join + erase) sessions whose flag is up.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Session* session);
  /// Serves one schema mutation: evaluate under the shared gate;
  /// install, append and publish the LSN under the exclusive gate; wait
  /// for durability after releasing it.
  QueryResponse HandleWrite(const std::string& query, const EvalOptions& opts)
      LYRIC_EXCLUDES(writer_mu_, schema_gate_, lifecycle_mu_);
  /// A failed append or fsync: the server enters read-only and the
  /// writer is answered with the typed storage error.
  QueryResponse WriteThroughFailed(const Status& st)
      LYRIC_EXCLUDES(lifecycle_mu_);
  /// Holds a read's answer until the commit `lsn` it saw is durable. A
  /// store error ends the wait and the read is answered from memory, as
  /// degraded mode answers every read.
  void AwaitDurable(uint64_t lsn) LYRIC_EXCLUDES(schema_gate_, lifecycle_mu_);
  /// The degraded-mode cause message ("" while healthy).
  std::string DegradedCauseMessage() const LYRIC_EXCLUDES(lifecycle_mu_);
  /// Reads and serves one frame. Non-OK means the connection is finished
  /// (clean close, transport failure, or protocol violation).
  Status ServeOneFrame(Session* session);
  /// Evaluates one request under the schema gate; never throws.
  QueryResponse HandleQuery(const QueryRequest& req);
  Status SendFrame(Socket& socket, FrameType type,
                   const std::string& payload);
  /// Best-effort kError frame; the caller closes the connection.
  void SendProtocolError(Socket& socket, const Status& violation);

  /// Joins and erases sessions whose reader has finished.
  void ReapFinished() LYRIC_EXCLUDES(mu_);

  Database* db_;
  ServerOptions options_;
  Listener listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> read_only_{false};
  /// kStarting until Start succeeds, then kServing; draining_/read_only_
  /// take display precedence (see health()).
  std::atomic<uint8_t> base_health_{
      static_cast<uint8_t>(HealthState::kStarting)};
  std::atomic<uint64_t> sessions_opened_{0};

  /// Lifecycle state: the in-flight count the drain barrier waits on,
  /// and the degraded-mode cause. Rank kNetLifecycle (8) — above the
  /// schema gate (6), because a failed append enters read-only while
  /// still holding the exclusive gate.
  mutable sync::Mutex lifecycle_mu_{sync::LockRank::kNetLifecycle,
                                    "net_lifecycle"};
  sync::CondVar drain_idle_cv_;
  uint64_t in_flight_ LYRIC_GUARDED_BY(lifecycle_mu_) = 0;
  Status degraded_cause_ LYRIC_GUARDED_BY(lifecycle_mu_);

  mutable sync::Mutex mu_{sync::LockRank::kNetSession, "net_session"};
  std::map<uint64_t, std::unique_ptr<Session>> sessions_
      LYRIC_GUARDED_BY(mu_);
  uint64_t next_session_id_ LYRIC_GUARDED_BY(mu_) = 1;

  /// Serializes schema mutations end to end, so at most one write is
  /// unacknowledged. Ranked before the schema gate.
  sync::Mutex writer_mu_{sync::LockRank::kNetWriter, "net_writer"};
  /// Reads and view evaluation share, a view's install excludes.
  /// Acquired on reader threads for the duration of one evaluation;
  /// ranked before every lock evaluation takes (docs/CONCURRENCY.md).
  sync::SharedMutex schema_gate_{sync::LockRank::kNetSchemaGate,
                                 "net_schema_gate"};
  /// The commit LSN of the last installed write, published under the
  /// exclusive gate; a read loads it under the shared gate.
  uint64_t published_lsn_ LYRIC_GUARDED_BY(schema_gate_) = 0;
};

/// True when `query` starts (after whitespace and `--` comments) with a
/// schema-mutating keyword (CREATE); such queries take the schema gate
/// exclusively. Exposed for tests.
bool IsSchemaMutation(const std::string& query);

}  // namespace net
}  // namespace lyric

#endif  // LYRIC_NET_SERVER_H_

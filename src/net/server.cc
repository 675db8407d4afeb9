#include "net/server.h"

#include <cctype>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/paged_store.h"
#include "util/deadline.h"

namespace lyric {
namespace net {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::Gauge& ActiveGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("net.connections.active");
  return gauge;
}

/// Numeric HealthState mirror for dashboards (3 = serving, 4 =
/// draining, 5 = read_only — the enum values).
obs::Gauge& HealthGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("net.health.state");
  return gauge;
}

obs::Gauge& InFlightGauge() {
  static obs::Gauge& gauge =
      obs::Registry::Global().GetGauge("net.queries.in_flight");
  return gauge;
}

}  // namespace

bool IsSchemaMutation(const std::string& query) {
  size_t i = 0;
  const size_t n = query.size();
  for (;;) {
    while (i < n && std::isspace(static_cast<unsigned char>(query[i]))) ++i;
    if (i + 1 < n && query[i] == '-' && query[i + 1] == '-') {
      while (i < n && query[i] != '\n') ++i;
      continue;
    }
    break;
  }
  // A textual pre-check, not a parse: only CREATE can mutate the schema,
  // and a false positive merely serializes one read query.
  constexpr char kCreate[] = "CREATE";
  for (size_t k = 0; k < 6; ++k) {
    if (i + k >= n ||
        std::toupper(static_cast<unsigned char>(query[i + k])) != kCreate[k]) {
      return false;
    }
  }
  // Require a word boundary so e.g. "CREATED" (not a keyword today, but
  // cheap to be exact) does not take the exclusive gate.
  return i + 6 >= n || !std::isalnum(static_cast<unsigned char>(query[i + 6]));
}

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server: already started");
  }
  Status st = listener_.Bind(options_.host, options_.port);
  if (!st.ok()) return st;
  port_ = listener_.port();
  // A store that arrived already poisoned (e.g. its last pre-handoff
  // commit failed) starts the server in read-only rather than letting
  // the first CREATE discover it.
  if (options_.store != nullptr) {
    Status poison = options_.store->poison_status();
    if (!poison.ok()) EnterReadOnly(poison);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  base_health_.store(static_cast<uint8_t>(HealthState::kServing),
                     std::memory_order_release);
  HealthGauge().Set(static_cast<int64_t>(health()));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

HealthState Server::health() const {
  // Display precedence: a drain is the most urgent fact, degraded mode
  // next, then the boot/serve baseline.
  if (draining_.load(std::memory_order_acquire)) {
    return HealthState::kDraining;
  }
  if (read_only_.load(std::memory_order_acquire)) {
    return HealthState::kReadOnly;
  }
  return static_cast<HealthState>(
      base_health_.load(std::memory_order_acquire));
}

void Server::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  LYRIC_OBS_COUNT("net.drain.begun");
  HealthGauge().Set(static_cast<int64_t>(HealthState::kDraining));
  // Stop accepting: wake the accept thread, join it, then close the
  // listener so new connects are refused at the TCP level while the
  // drain runs. Existing sessions stay up to receive their answers
  // (and typed sheds for anything they send from now on).
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
}

bool Server::WaitForDrainIdle(uint64_t timeout_ms) {
  const auto deadline =
      DeadlineAfterMs(std::chrono::steady_clock::now(), timeout_ms);
  sync::MutexLock lock(lifecycle_mu_);
  while (in_flight_ > 0) {
    if (drain_idle_cv_.WaitUntil(lifecycle_mu_, deadline)) {
      return in_flight_ == 0;
    }
  }
  return true;
}

void Server::EnterReadOnly(const Status& cause) {
  {
    sync::MutexLock lock(lifecycle_mu_);
    if (degraded_cause_.ok()) degraded_cause_ = cause;
  }
  bool expected = false;
  if (read_only_.compare_exchange_strong(expected, true)) {
    LYRIC_OBS_COUNT("net.readonly.entered");
  }
  HealthGauge().Set(static_cast<int64_t>(health()));
}

uint64_t Server::in_flight_queries() const {
  sync::MutexLock lock(lifecycle_mu_);
  return in_flight_;
}

std::string Server::DegradedCauseMessage() const {
  sync::MutexLock lock(lifecycle_mu_);
  return degraded_cause_.ok() ? std::string() : degraded_cause_.message();
}

HealthInfo Server::BuildHealthInfo() {
  HealthInfo info;
  info.state = health();
  info.store_backed = options_.store != nullptr;
  info.read_only = read_only_.load(std::memory_order_acquire);
  info.draining = draining_.load(std::memory_order_acquire);
  if (options_.store != nullptr) {
    const storage::RecoveryInfo& rec = options_.store->recovery();
    info.recovered_txns = rec.committed_txns;
    info.recovered_images = rec.images_applied;
    info.torn_tail_bytes = rec.torn_tail_bytes;
  }
  info.active_sessions = active_sessions();
  info.in_flight_queries = in_flight_queries();
  info.sessions_opened = sessions_opened();
  info.detail = DegradedCauseMessage();
  return info;
}

QueryResponse Server::WriteThroughFailed(const Status& st) {
  // The commit never became durable, so the client is NOT acknowledged —
  // no torn acknowledgement. The installed view stays visible until
  // restart; read-only mode quarantines the divergence by refusing every
  // further mutation (docs/ROBUSTNESS.md).
  LYRIC_OBS_COUNT("net.store.sync_failures");
  EnterReadOnly(st);
  QueryResponse failed;
  failed.status =
      Status(st.code(), "store write-through failed: " + st.message());
  return failed;
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the accept thread first so no session can be registered after
  // the sweep below.
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Wake every reader blocked in recv(), then join outside the lock —
  // a reader marking itself done never needs mu_, but joining under it
  // would still serialize teardown needlessly.
  std::vector<std::unique_ptr<Session>> victims;
  {
    sync::MutexLock lock(mu_);
    for (auto& [id, session] : sessions_) {
      session->socket.ShutdownBoth();
      victims.push_back(std::move(session));
    }
    sessions_.clear();
  }
  for (auto& session : victims) {
    if (session->reader.joinable()) session->reader.join();
    ActiveGauge().Add(-1);
  }
  listener_.Close();
}

size_t Server::active_sessions() const {
  sync::MutexLock lock(mu_);
  size_t live = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session->done.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener_.Accept();
    ReapFinished();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire) ||
          draining_.load(std::memory_order_acquire)) {
        break;
      }
      // Transient accept failure (resource pressure, injected `net`
      // fault killing a handshake): the server must keep serving.
      LYRIC_OBS_COUNT("net.accept_errors");
      continue;
    }
    LYRIC_OBS_COUNT("net.connections.accepted");
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    ActiveGauge().Add(1);
    auto session = std::make_unique<Session>();
    session->socket = std::move(*accepted);
    Session* raw = session.get();
    sync::MutexLock lock(mu_);
    session->id = next_session_id_++;
    raw->reader = std::thread([this, raw] { ServeConnection(raw); });
    sessions_.emplace(raw->id, std::move(session));
  }
}

void Server::ReapFinished() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    sync::MutexLock lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& session : finished) {
    if (session->reader.joinable()) session->reader.join();
    ActiveGauge().Add(-1);
  }
}

void Server::ServeConnection(Session* session) {
  while (!stopping_.load(std::memory_order_acquire)) {
    Status st = ServeOneFrame(session);
    if (!st.ok()) break;
  }
  // Shut down, not close (see Session::socket): the peer sees EOF now.
  session->socket.ShutdownBoth();
  session->done.store(true, std::memory_order_release);
}

Status Server::ServeOneFrame(Session* session) {
  char header_bytes[kFrameHeaderBytes];
  bool clean_eof = false;
  Status st =
      session->socket.ReadFull(header_bytes, kFrameHeaderBytes, &clean_eof);
  if (!st.ok()) {
    // A peer closing between frames is the normal end of a session; a
    // close mid-header is not, but there is nobody left to tell.
    if (!clean_eof) LYRIC_OBS_COUNT("net.disconnects");
    return st;
  }
  FrameHeader header;
  st = DecodeFrameHeader(header_bytes, kFrameHeaderBytes,
                         options_.max_payload_bytes, &header);
  if (!st.ok()) {
    LYRIC_OBS_COUNT("net.protocol_errors");
    SendProtocolError(session->socket, st);
    return st;
  }
  std::string payload(header.payload_len, '\0');
  if (header.payload_len != 0) {
    st = session->socket.ReadFull(payload.data(), payload.size());
    if (!st.ok()) {
      LYRIC_OBS_COUNT("net.disconnects");
      return st;
    }
  }
  LYRIC_OBS_COUNT("net.frames.received");

  const uint64_t start_ns = NowNanos();
  switch (header.type) {
    case FrameType::kPing: {
      if (!payload.empty()) {
        Status violation =
            Status::InvalidArgument("frame: PING carries a payload");
        LYRIC_OBS_COUNT("net.protocol_errors");
        SendProtocolError(session->socket, violation);
        return violation;
      }
      st = SendFrame(session->socket, FrameType::kPong, std::string());
      break;
    }
    case FrameType::kQuery: {
      QueryRequest request;
      st = DecodeQueryRequest(payload, &request);
      if (!st.ok()) {
        LYRIC_OBS_COUNT("net.protocol_errors");
        SendProtocolError(session->socket, st);
        return st;
      }
      // The accepted/shed decision and the in-flight increment are one
      // atomic step: a query the drain barrier doesn't see coming was
      // never accepted, and an accepted one is counted before it runs.
      bool accepted_for_eval = false;
      {
        sync::MutexLock lock(lifecycle_mu_);
        if (!draining_.load(std::memory_order_acquire)) {
          ++in_flight_;
          accepted_for_eval = true;
        }
      }
      if (!accepted_for_eval) {
        LYRIC_OBS_COUNT("net.drain.sheds");
        QueryResponse shed;
        shed.status =
            Status::Unavailable("server draining: not accepting new queries")
                .WithRetryAfter(options_.drain_retry_after_ms);
        st = SendFrame(session->socket, FrameType::kResult,
                       EncodeQueryResponse(shed));
        break;
      }
      InFlightGauge().Add(1);
      st = SendFrame(session->socket, FrameType::kResult,
                     EncodeQueryResponse(HandleQuery(request)));
      // Only after the answer is on the wire (or the transport died) is
      // the query no longer in flight — the drain contract is "accepted
      // queries get their responses delivered", not just "evaluated".
      {
        sync::MutexLock lock(lifecycle_mu_);
        --in_flight_;
        if (in_flight_ == 0) drain_idle_cv_.NotifyAll();
      }
      InFlightGauge().Add(-1);
      break;
    }
    case FrameType::kHealth: {
      if (!payload.empty()) {
        Status violation =
            Status::InvalidArgument("frame: HEALTH carries a payload");
        LYRIC_OBS_COUNT("net.protocol_errors");
        SendProtocolError(session->socket, violation);
        return violation;
      }
      LYRIC_OBS_COUNT("net.health.probes");
      st = SendFrame(session->socket, FrameType::kHealthInfo,
                     EncodeHealthInfo(BuildHealthInfo()));
      break;
    }
    default: {
      // kResult/kPong/kError/kHealthInfo only ever travel server -> client.
      Status violation = Status::InvalidArgument(
          "frame: unexpected client frame type " +
          std::to_string(static_cast<int>(header.type)));
      LYRIC_OBS_COUNT("net.protocol_errors");
      SendProtocolError(session->socket, violation);
      return violation;
    }
  }
  if (st.ok()) LYRIC_OBS_RECORD("net.frame.latency", NowNanos() - start_ns);
  return st;
}

QueryResponse Server::HandleQuery(const QueryRequest& request) {
  EvalOptions opts = options_.eval;
  if (request.deadline_ms.has_value()) opts.deadline_ms = request.deadline_ms;
  if (request.memory_budget.has_value()) {
    opts.memory_budget = request.memory_budget;
  }
  if (request.max_rows != 0) opts.max_rows = request.max_rows;
  if (request.analyze_first) opts.analyze_first = true;

  // Exception firewall: the reader thread must never unwind into
  // std::terminate, whatever the evaluator throws.
  try {
    if (IsSchemaMutation(request.query)) {
      return HandleWrite(request.query, opts);
    }
    uint64_t seen_lsn = 0;
    Result<ResultSet> result = [&] {
      sync::ReaderMutexLock gate(schema_gate_);
      seen_lsn = published_lsn_;
      Evaluator evaluator(db_, opts);
      return evaluator.Execute(request.query);
    }();
    AwaitDurable(seen_lsn);
    return ResponseFromResult(result);
  } catch (const std::exception& e) {
    QueryResponse response;
    response.status =
        Status::Internal(std::string("server: evaluation threw: ") + e.what());
    return response;
  } catch (...) {
    QueryResponse response;
    response.status = Status::Internal("server: evaluation threw");
    return response;
  }
}

QueryResponse Server::HandleWrite(const std::string& query,
                                  const EvalOptions& opts) {
  static obs::Histogram& exclusive_ns =
      obs::Registry::Global().GetHistogram("net.schema_gate.exclusive_ns");
  sync::MutexLock writer(writer_mu_);
  if (read_only_.load(std::memory_order_acquire)) {
    LYRIC_OBS_COUNT("net.readonly.sheds");
    QueryResponse shed;
    shed.status = Status::Unavailable("server read-only (store degraded: " +
                                      DegradedCauseMessage() +
                                      "); write shed")
                      .WithRetryAfter(options_.read_only_retry_after_ms);
    return shed;
  }
  // Phase 1: evaluate beside the reads; nothing in the database changes.
  Evaluator evaluator(db_, opts);
  Evaluation evaluation = [&] {
    sync::ReaderMutexLock gate(schema_gate_);
    return evaluator.Evaluate(query);
  }();
  // Phase 2: the exclusive section — install, append, publish. A failed
  // install keeps the rows it did install pending, so the next successful
  // write appends them too.
  uint64_t lsn = 0;
  std::optional<Result<ResultSet>> result;
  {
    sync::WriterMutexLock gate(schema_gate_);
    obs::ScopedHistogramTimer hold(exclusive_ns);
    result.emplace(evaluator.Install(std::move(evaluation)));
    if (options_.store == nullptr) {
      db_->TakeChanges();  // Nothing persists them.
    } else if (result->ok()) {
      Result<uint64_t> appended =
          options_.store->ApplyChanges(*db_, db_->TakeChanges());
      if (!appended.ok()) return WriteThroughFailed(appended.status());
      lsn = *appended;
      if (lsn != 0) published_lsn_ = lsn;
    }
  }
  // Phase 3: durable before acknowledged. Reads that saw the install
  // wait on the same LSN and share the fsync.
  if (lsn != 0) {
    Status durable = options_.store->WaitDurable(lsn);
    if (!durable.ok()) return WriteThroughFailed(durable);
  }
  return ResponseFromResult(*result);
}

void Server::AwaitDurable(uint64_t lsn) {
  storage::PagedStore* store = options_.store;
  // Degraded mode answers from memory without waiting.
  if (store == nullptr || lsn <= store->durable_lsn() ||
      read_only_.load(std::memory_order_acquire)) {
    return;
  }
  static obs::Histogram& wait_ns =
      obs::Registry::Global().GetHistogram("net.read_durable_wait_ns");
  obs::ScopedHistogramTimer timer(wait_ns);
  Status st = store->WaitDurable(lsn);
  if (!st.ok()) EnterReadOnly(st);
}

Status Server::SendFrame(Socket& socket, FrameType type,
                         const std::string& payload) {
  char header_bytes[kFrameHeaderBytes];
  // Every outgoing frame carries the current lifecycle state in header
  // byte 6 — clients learn of a drain or degrade without a probe.
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()), header_bytes,
                    health());
  std::string frame(header_bytes, kFrameHeaderBytes);
  frame.append(payload);
  // One write per frame: header+payload must never interleave with
  // another thread's bytes (they cannot today — one reader per session —
  // but a single syscall also halves the loopback wakeups).
  Status st = socket.WriteFull(frame.data(), frame.size());
  if (st.ok()) LYRIC_OBS_COUNT("net.frames.sent");
  return st;
}

void Server::SendProtocolError(Socket& socket, const Status& violation) {
  WireError error;
  error.code = violation.code();
  error.message = violation.message();
  // Best-effort: the peer may already be gone, and the connection is
  // being torn down either way.
  (void)SendFrame(socket, FrameType::kError, EncodeWireError(error));
}

}  // namespace net
}  // namespace lyric

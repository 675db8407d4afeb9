// Blocking client for lyric_serverd.
//
// One Client owns one connection and is NOT thread-safe — lyric_loadgen
// and the tests give each simulated client its own instance, which also
// keeps the retry bookkeeping honest (stats are per-client, no locks).
//
// Execute() runs the client half of the resilience story end to end:
//
//   * transport failures (refused connect, mid-frame disconnect,
//     injected LYRIC_FAULT=net faults) tear the connection down and —
//     under the configured exec::RetryPolicy — reconnect and resend;
//   * a well-formed response carrying a typed kUnavailable shed is
//     backed off and retried under the same policy, honoring the
//     server's EWMA retry-after hint as the backoff floor (the policy's
//     existing contract);
//   * when retries are exhausted the last shed response is returned
//     as-is (an OK Result whose .status is kUnavailable), so callers
//     can count sheds without treating them as client bugs.
//
// The deterministic RetryPolicy from PR 5 is reused unchanged: backoff
// is a pure function of (seed, attempt, hint), so a replayed load run
// makes the same retry decisions.

#ifndef LYRIC_NET_CLIENT_H_
#define LYRIC_NET_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "exec/scheduler.h"
#include "net/frame.h"
#include "net/socket.h"
#include "util/result.h"
#include "util/status.h"

namespace lyric {
namespace net {

/// Client knobs.
struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Retry policy for transient failures: transport errors and shed
  /// (kUnavailable) responses. Default: no retries.
  exec::RetryPolicy retry;
  /// Per-request defaults, applied to every Execute(query) call; a
  /// request built by hand overrides them field by field.
  std::optional<uint64_t> deadline_ms;
  std::optional<uint64_t> memory_budget;
  uint64_t max_rows = 0;
  bool analyze_first = false;
  /// Receive-side frame payload cap.
  uint32_t max_payload_bytes = kMaxPayloadBytes;
};

/// What one client observed — the loadgen aggregates these.
struct ClientStats {
  uint64_t requests = 0;        ///< Execute() calls.
  uint64_t sends = 0;           ///< Wire attempts (requests + retries).
  uint64_t shed_responses = 0;  ///< Typed kUnavailable responses seen.
  uint64_t transport_errors = 0;
  uint64_t reconnects = 0;  ///< Successful connects after the first.
  uint64_t backoff_ms_total = 0;
  /// Queries fully sent whose response never arrived (the connection
  /// died in between): each is a request the server MAY have accepted
  /// and executed without this client learning the outcome. The chaos
  /// harness asserts drains keep this at zero; crash tests use it to
  /// bound the may-or-may-not-be-durable window.
  uint64_t in_flight_at_disconnect = 0;
};

/// A blocking lyric_serverd connection. Not thread-safe.
class Client {
 public:
  explicit Client(ClientOptions options) : options_(std::move(options)) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Ensures the connection is up (no-op when it already is).
  Status Connect();
  void Close();
  bool connected() const { return socket_.valid(); }

  /// Executes `query` with the per-request defaults from ClientOptions.
  Result<QueryResponse> Execute(const std::string& query);
  /// Executes a fully specified request. The Result is an error only for
  /// non-retryable transport/protocol failures; evaluation failures
  /// (including sheds that survived every retry) come back as an OK
  /// Result whose response carries the non-OK status.
  Result<QueryResponse> Execute(const QueryRequest& request);

  /// Round-trips a PING frame.
  Status Ping();

  /// Round-trips a HEALTH probe; fills `out` with the server's
  /// lifecycle state and recovery/load stats. Retries are the caller's
  /// business (loadgen polls this for readiness).
  Status Health(HealthInfo* out);

  const ClientStats& stats() const { return stats_; }

  /// The HealthState stamped on the last server frame this client read
  /// (kUnknown before any response, and from pre-health servers).
  HealthState last_server_health() const { return last_server_health_; }

 private:
  /// One wire attempt: connect if needed, send, await the response.
  Result<QueryResponse> ExecuteOnce(const std::string& payload);
  Status SendFrame(FrameType type, const std::string& payload);
  /// Reads one frame, enforcing the payload cap.
  Result<FrameHeader> ReadFrame(std::string* payload);

  ClientOptions options_;
  Socket socket_;
  ClientStats stats_;
  HealthState last_server_health_ = HealthState::kUnknown;
};

}  // namespace net
}  // namespace lyric

#endif  // LYRIC_NET_CLIENT_H_

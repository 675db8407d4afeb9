// The lyric_serverd wire protocol: length-prefixed binary frames.
//
// Every message on a connection is one frame:
//
//   offset  size  field
//   0       4     magic   'L' 'Y' 'R' 'C' (raw bytes, not an integer)
//   4       1     version (kProtocolVersion; mismatch is a protocol error)
//   5       1     type    (FrameType)
//   6       1     health  — server -> client frames carry the server's
//                 HealthState here (formerly reserved; 0 = unknown, the
//                 value clients always saw, so old receivers that ignore
//                 the byte per the original compat rule are unaffected,
//                 and unknown values decode as kUnknown)
//   7       1     reserved — senders MUST write 0, receivers ignore it
//                 (the forward-compat escape hatch: a future version can
//                 assign flag bits without breaking old receivers)
//   8       4     payload length, little-endian (bounded by
//                 kMaxPayloadBytes; larger is a protocol error)
//   12      ...   payload
//
// All multi-byte integers are little-endian. Strings are a u32 byte
// length followed by the bytes (no terminator). Payload layouts are
// documented field-by-field in docs/SERVER.md; the encoders/decoders
// below are the single source of truth.
//
// Decoders never trust input: every read is bounds-checked, string
// lengths are validated against the remaining payload, and trailing
// garbage after a well-formed payload is rejected — the same code paths
// back the fuzz harness (tests/fuzz/fuzz_frame.cc), so "malformed bytes
// in, typed Status out" is a fuzz-enforced contract.

#ifndef LYRIC_NET_FRAME_H_
#define LYRIC_NET_FRAME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "query/result_set.h"
#include "util/result.h"
#include "util/status.h"

namespace lyric {
namespace net {

inline constexpr char kMagic[4] = {'L', 'Y', 'R', 'C'};
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Upper bound a receiver accepts for one payload. Large enough for any
/// real result page, small enough that a corrupt length prefix cannot
/// make the receiver allocate gigabytes.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

/// Frame discriminator (header byte 5).
enum class FrameType : uint8_t {
  /// Client -> server: execute a query (QueryRequest payload).
  kQuery = 1,
  /// Server -> client: the outcome of a kQuery (QueryResponse payload).
  kResult = 2,
  /// Client -> server: liveness probe, empty payload.
  kPing = 3,
  /// Server -> client: answer to kPing, empty payload.
  kPong = 4,
  /// Server -> client: the connection violated the protocol (bad magic,
  /// unsupported version, oversized frame, undecodable payload). Payload
  /// is a WireError; the server closes the connection after sending it.
  kError = 5,
  /// Client -> server: health / readiness probe, empty payload.
  kHealth = 6,
  /// Server -> client: answer to kHealth (HealthInfo payload).
  kHealthInfo = 7,
};

/// Server lifecycle state, carried in header byte 6 of every
/// server -> client frame and reported in full by kHealthInfo.
enum class HealthState : uint8_t {
  /// No state available (also what pre-health servers appear to send).
  kUnknown = 0,
  /// Process up, store not yet opened / database not yet hydrated.
  kStarting = 1,
  /// WAL replay / store hydration in progress.
  kRecovering = 2,
  /// Accepting connections and serving reads and writes.
  kServing = 3,
  /// SIGTERM received: not accepting, draining in-flight queries,
  /// shedding new ones typed.
  kDraining = 4,
  /// Store poisoned (fsync error, ENOSPC): reads serve, writes shed.
  kReadOnly = 5,
};

/// Stable lower-case name ("serving", "read_only", ...) for logs/JSON.
const char* HealthStateName(HealthState state);

/// Decoded frame header.
struct FrameHeader {
  uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kQuery;
  /// Header byte 6; kUnknown on client -> server frames and from
  /// servers predating the health protocol.
  HealthState health = HealthState::kUnknown;
  uint32_t payload_len = 0;
};

/// Serializes a header into `out[kFrameHeaderBytes]`. `health` stamps
/// byte 6 (server -> client frames); clients leave it kUnknown.
void EncodeFrameHeader(FrameType type, uint32_t payload_len, char* out,
                       HealthState health = HealthState::kUnknown);

/// Parses the 12 header bytes. Protocol violations return
/// kInvalidArgument with a message naming the violated rule (bad magic /
/// unsupported version / unknown frame type / payload too large).
Status DecodeFrameHeader(const char* data, size_t len, uint32_t max_payload,
                         FrameHeader* out);

/// A query as it travels client -> server. Unset optionals leave the
/// server's configured EvalOptions defaults in force.
struct QueryRequest {
  std::string query;
  /// Wall-clock deadline for the evaluation, propagated into
  /// EvalOptions::deadline_ms (and from there into the admission
  /// request's declared deadline).
  std::optional<uint64_t> deadline_ms;
  /// Kernel memory budget in bytes (EvalOptions::memory_budget).
  std::optional<uint64_t> memory_budget;
  /// Row cap; 0 keeps the server default.
  uint64_t max_rows = 0;
  /// Run the static analyzer first (diagnostics ride the response).
  bool analyze_first = false;

  bool operator==(const QueryRequest&) const = default;
};

std::string EncodeQueryRequest(const QueryRequest& req);
Status DecodeQueryRequest(const std::string& payload, QueryRequest* out);

/// The outcome of one query as it travels server -> client.
struct QueryResponse {
  /// Evaluation status. kUnavailable sheds carry the scheduler's
  /// retry-after hint (Status::retry_after_ms), which the client's
  /// RetryPolicy honors as a backoff lower bound.
  Status status;
  /// ResultSet::ToString(): the rendered table, including the
  /// "-- PARTIAL" trailer and governor report when a limit tripped.
  /// Empty when !status.ok().
  std::string rendered;
  uint64_t row_count = 0;
  bool truncated = false;
  /// Diagnostic::ToString() per pre-flight finding (analyze_first).
  std::vector<std::string> diagnostics;
  /// Governor trip code (StatusCode as int, 0 = untripped) + report.
  int32_t governor_code = 0;
  std::string governor_report;
  /// Admission report: how the server's scheduler treated the query.
  std::string admission_mode = "off";
  uint64_t queue_wait_ns = 0;
  uint32_t server_retries = 0;

  /// The deterministic face of the response: status, rendered table,
  /// truncation flag, diagnostics. Byte-identical across in-process and
  /// remote evaluation of the same query over the same data; timing
  /// and admission fields are deliberately excluded. Differential tests
  /// and lyric_loadgen compare these.
  std::string Fingerprint() const;
};

std::string EncodeQueryResponse(const QueryResponse& resp);
Status DecodeQueryResponse(const std::string& payload, QueryResponse* out);

/// Builds the wire response for one evaluation outcome — shared by the
/// server and by tests/loadgen computing expected responses, so both
/// sides serialize identically by construction.
QueryResponse ResponseFromResult(const Result<ResultSet>& result);

/// kHealthInfo payload: the server's lifecycle state plus recovery and
/// load stats, so clients/loadgen can probe readiness and chaos tests
/// can assert on recovery counters.
struct HealthInfo {
  HealthState state = HealthState::kUnknown;
  /// True when the server fronts a PagedStore (--store).
  bool store_backed = false;
  bool read_only = false;
  bool draining = false;
  /// What WAL replay found at boot (zero without --store).
  uint64_t recovered_txns = 0;
  uint64_t recovered_images = 0;
  uint64_t torn_tail_bytes = 0;
  /// Live load.
  uint64_t active_sessions = 0;
  uint64_t in_flight_queries = 0;
  uint64_t sessions_opened = 0;
  /// Human-readable cause when degraded (e.g. the poisoning status).
  std::string detail;

  bool operator==(const HealthInfo&) const = default;
};

std::string EncodeHealthInfo(const HealthInfo& info);
Status DecodeHealthInfo(const std::string& payload, HealthInfo* out);

/// kError payload: a typed status describing the protocol violation.
struct WireError {
  StatusCode code = StatusCode::kInvalidArgument;
  std::string message;
};

std::string EncodeWireError(const WireError& err);
Status DecodeWireError(const std::string& payload, WireError* out);

// -- Bounds-checked payload primitives -------------------------------------
// Exposed for the fuzz harness and protocol tests; production code uses
// the typed encoders above.

/// Appends little-endian scalars / length-prefixed strings to a buffer.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(const std::string& s);

  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Consumes a payload front to back; every getter returns false instead
/// of reading past the end.
class WireReader {
 public:
  explicit WireReader(const std::string& payload) : data_(payload) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  /// Reads a length-prefixed string; fails when the prefix runs past the
  /// remaining bytes (a truncated or lying length).
  bool Str(std::string* s);
  /// True when the whole payload was consumed (decoders require this —
  /// trailing bytes mean a layout mismatch).
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace net
}  // namespace lyric

#endif  // LYRIC_NET_FRAME_H_

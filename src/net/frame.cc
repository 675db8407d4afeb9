#include "net/frame.h"

#include <cstring>

namespace lyric {
namespace net {

namespace {

// Request flag bits (QueryRequest byte 0).
constexpr uint8_t kFlagHasDeadline = 1u << 0;
constexpr uint8_t kFlagHasBudget = 1u << 1;
constexpr uint8_t kFlagAnalyzeFirst = 1u << 2;

// Response presence bit: a result body follows the status triple.
constexpr uint8_t kFlagHasResult = 1u << 0;

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kQuery) &&
         type <= static_cast<uint8_t>(FrameType::kHealthInfo);
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kStarting:
      return "starting";
    case HealthState::kRecovering:
      return "recovering";
    case HealthState::kServing:
      return "serving";
    case HealthState::kDraining:
      return "draining";
    case HealthState::kReadOnly:
      return "read_only";
    case HealthState::kUnknown:
      break;
  }
  return "unknown";
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

bool WireReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::U32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool WireReader::U64(uint64_t* v) {
  if (pos_ + 8 > data_.size()) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool WireReader::Str(std::string* s) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  if (pos_ + len > data_.size()) return false;  // Lying length prefix.
  s->assign(data_, pos_, len);
  pos_ += len;
  return true;
}

void EncodeFrameHeader(FrameType type, uint32_t payload_len, char* out,
                       HealthState health) {
  std::memcpy(out, kMagic, 4);
  out[4] = static_cast<char>(kProtocolVersion);
  out[5] = static_cast<char>(type);
  out[6] = static_cast<char>(health);
  out[7] = 0;
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<char>((payload_len >> (8 * i)) & 0xff);
  }
}

Status DecodeFrameHeader(const char* data, size_t len, uint32_t max_payload,
                         FrameHeader* out) {
  if (len < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame: truncated header (" +
                                   std::to_string(len) + " of 12 bytes)");
  }
  if (std::memcmp(data, kMagic, 4) != 0) {
    return Status::InvalidArgument("frame: bad magic (not a LyriC stream)");
  }
  const uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "frame: unsupported protocol version " + std::to_string(version) +
        " (this server speaks " + std::to_string(kProtocolVersion) + ")");
  }
  const uint8_t type = static_cast<uint8_t>(data[5]);
  if (!ValidFrameType(type)) {
    return Status::InvalidArgument("frame: unknown frame type " +
                                   std::to_string(type));
  }
  // Byte 6 carries the sender's HealthState (kUnknown from clients and
  // pre-health servers); values past the known range decode as kUnknown
  // so a newer sender cannot break us. Byte 7 stays reserved/ignored.
  const uint8_t health_byte = static_cast<uint8_t>(data[6]);
  const HealthState health =
      health_byte <= static_cast<uint8_t>(HealthState::kReadOnly)
          ? static_cast<HealthState>(health_byte)
          : HealthState::kUnknown;
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(static_cast<uint8_t>(data[8 + i]))
                   << (8 * i);
  }
  if (payload_len > max_payload) {
    return Status::InvalidArgument(
        "frame: payload of " + std::to_string(payload_len) +
        " bytes exceeds the " + std::to_string(max_payload) + "-byte cap");
  }
  out->version = version;
  out->type = static_cast<FrameType>(type);
  out->health = health;
  out->payload_len = payload_len;
  return Status::OK();
}

std::string EncodeQueryRequest(const QueryRequest& req) {
  WireWriter w;
  uint8_t flags = 0;
  if (req.deadline_ms.has_value()) flags |= kFlagHasDeadline;
  if (req.memory_budget.has_value()) flags |= kFlagHasBudget;
  if (req.analyze_first) flags |= kFlagAnalyzeFirst;
  w.U8(flags);
  w.U64(req.deadline_ms.value_or(0));
  w.U64(req.memory_budget.value_or(0));
  w.U32(0);  // Reserved: senders write 0, receivers ignore it.
  w.U64(req.max_rows);
  w.Str(req.query);
  return w.Take();
}

Status DecodeQueryRequest(const std::string& payload, QueryRequest* out) {
  WireReader r(payload);
  uint8_t flags = 0;
  uint64_t deadline_ms = 0;
  uint64_t memory_budget = 0;
  uint32_t reserved = 0;
  QueryRequest req;
  if (!r.U8(&flags) || !r.U64(&deadline_ms) || !r.U64(&memory_budget) ||
      !r.U32(&reserved) || !r.U64(&req.max_rows) || !r.Str(&req.query)) {
    return Status::InvalidArgument("frame: truncated QueryRequest payload");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "frame: trailing bytes after QueryRequest payload");
  }
  if ((flags & kFlagHasDeadline) != 0) req.deadline_ms = deadline_ms;
  if ((flags & kFlagHasBudget) != 0) req.memory_budget = memory_budget;
  req.analyze_first = (flags & kFlagAnalyzeFirst) != 0;
  *out = std::move(req);
  return Status::OK();
}

std::string EncodeQueryResponse(const QueryResponse& resp) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(resp.status.code()));
  w.Str(resp.status.message());
  w.U64(resp.status.retry_after_ms());
  uint8_t flags = resp.status.ok() ? kFlagHasResult : 0;
  w.U8(flags);
  if ((flags & kFlagHasResult) != 0) {
    w.Str(resp.rendered);
    w.U64(resp.row_count);
    w.U8(resp.truncated ? 1 : 0);
    w.U32(static_cast<uint32_t>(resp.diagnostics.size()));
    for (const std::string& diag : resp.diagnostics) w.Str(diag);
    w.U32(static_cast<uint32_t>(resp.governor_code));
    w.Str(resp.governor_report);
    w.Str(resp.admission_mode);
    w.U64(resp.queue_wait_ns);
    w.U32(0);  // Reserved: senders write 0, receivers ignore it.
    w.U32(resp.server_retries);
  }
  return w.Take();
}

Status DecodeQueryResponse(const std::string& payload, QueryResponse* out) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  uint64_t retry_after_ms = 0;
  uint8_t flags = 0;
  if (!r.U32(&code) || !r.Str(&message) || !r.U64(&retry_after_ms) ||
      !r.U8(&flags)) {
    return Status::InvalidArgument("frame: truncated QueryResponse payload");
  }
  // kDataLoss is the last code: a store-backed server may surface it
  // (e.g. a corrupt store detected mid-serve), so it must travel.
  if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument("frame: unknown status code " +
                                   std::to_string(code));
  }
  QueryResponse resp;
  resp.status = Status(static_cast<StatusCode>(code), std::move(message));
  if (retry_after_ms != 0) {
    resp.status = resp.status.WithRetryAfter(retry_after_ms);
  }
  if ((flags & kFlagHasResult) != 0) {
    uint8_t truncated = 0;
    uint32_t n_diags = 0;
    if (!r.Str(&resp.rendered) || !r.U64(&resp.row_count) ||
        !r.U8(&truncated) || !r.U32(&n_diags)) {
      return Status::InvalidArgument(
          "frame: truncated QueryResponse result body");
    }
    // A lying count cannot run the reader past the payload (Str is
    // bounds-checked), but cap it anyway so a 4-billion count cannot
    // force 4 billion loop iterations on a short payload.
    if (n_diags > payload.size()) {
      return Status::InvalidArgument(
          "frame: diagnostic count exceeds payload size");
    }
    resp.truncated = truncated != 0;
    resp.diagnostics.reserve(n_diags);
    for (uint32_t i = 0; i < n_diags; ++i) {
      std::string diag;
      if (!r.Str(&diag)) {
        return Status::InvalidArgument(
            "frame: truncated QueryResponse diagnostic");
      }
      resp.diagnostics.push_back(std::move(diag));
    }
    uint32_t governor_code = 0;
    uint32_t reserved = 0;
    if (!r.U32(&governor_code) || !r.Str(&resp.governor_report) ||
        !r.Str(&resp.admission_mode) || !r.U64(&resp.queue_wait_ns) ||
        !r.U32(&reserved) || !r.U32(&resp.server_retries)) {
      return Status::InvalidArgument(
          "frame: truncated QueryResponse report section");
    }
    resp.governor_code = static_cast<int32_t>(governor_code);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "frame: trailing bytes after QueryResponse payload");
  }
  *out = std::move(resp);
  return Status::OK();
}

std::string QueryResponse::Fingerprint() const {
  std::string out = "status: " + status.ToString();
  out += "\n" + rendered;
  out += "\ntruncated=";
  out += truncated ? "yes" : "no";
  for (const std::string& diag : diagnostics) {
    out += "\n" + diag;
  }
  return out;
}

QueryResponse ResponseFromResult(const Result<ResultSet>& result) {
  QueryResponse resp;
  if (!result.ok()) {
    resp.status = result.status();
    return resp;
  }
  const ResultSet& rs = *result;
  resp.rendered = rs.ToString();
  resp.row_count = rs.size();
  resp.truncated = rs.truncated();
  for (const Diagnostic& diag : rs.diagnostics()) {
    resp.diagnostics.push_back(diag.ToString());
  }
  resp.governor_code = static_cast<int32_t>(rs.governor_status().code());
  if (!rs.governor_status().ok()) {
    resp.governor_report = rs.governor_report().ToString();
  }
  resp.admission_mode = rs.admission().mode;
  resp.queue_wait_ns = rs.admission().queue_wait_ns;
  resp.server_retries = rs.admission().retries;
  return resp;
}

namespace {
// HealthInfo flag bits (byte 1).
constexpr uint8_t kFlagStoreBacked = 1u << 0;
constexpr uint8_t kFlagReadOnly = 1u << 1;
constexpr uint8_t kFlagDraining = 1u << 2;
}  // namespace

std::string EncodeHealthInfo(const HealthInfo& info) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(info.state));
  uint8_t flags = 0;
  if (info.store_backed) flags |= kFlagStoreBacked;
  if (info.read_only) flags |= kFlagReadOnly;
  if (info.draining) flags |= kFlagDraining;
  w.U8(flags);
  w.U64(info.recovered_txns);
  w.U64(info.recovered_images);
  w.U64(info.torn_tail_bytes);
  w.U64(info.active_sessions);
  w.U64(info.in_flight_queries);
  w.U64(info.sessions_opened);
  w.Str(info.detail);
  return w.Take();
}

Status DecodeHealthInfo(const std::string& payload, HealthInfo* out) {
  WireReader r(payload);
  uint8_t state = 0;
  uint8_t flags = 0;
  HealthInfo info;
  if (!r.U8(&state) || !r.U8(&flags) || !r.U64(&info.recovered_txns) ||
      !r.U64(&info.recovered_images) || !r.U64(&info.torn_tail_bytes) ||
      !r.U64(&info.active_sessions) || !r.U64(&info.in_flight_queries) ||
      !r.U64(&info.sessions_opened) || !r.Str(&info.detail)) {
    return Status::InvalidArgument("frame: truncated HealthInfo payload");
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument(
        "frame: trailing bytes after HealthInfo payload");
  }
  // A state from a newer server decodes as kUnknown, same compat rule as
  // the header byte.
  info.state = state <= static_cast<uint8_t>(HealthState::kReadOnly)
                   ? static_cast<HealthState>(state)
                   : HealthState::kUnknown;
  info.store_backed = (flags & kFlagStoreBacked) != 0;
  info.read_only = (flags & kFlagReadOnly) != 0;
  info.draining = (flags & kFlagDraining) != 0;
  *out = std::move(info);
  return Status::OK();
}

std::string EncodeWireError(const WireError& err) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(err.code));
  w.Str(err.message);
  return w.Take();
}

Status DecodeWireError(const std::string& payload, WireError* out) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  if (!r.U32(&code) || !r.Str(&message) || !r.AtEnd()) {
    return Status::InvalidArgument("frame: malformed WireError payload");
  }
  if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::InvalidArgument("frame: unknown status code " +
                                   std::to_string(code));
  }
  out->code = static_cast<StatusCode>(code);
  out->message = std::move(message);
  return Status::OK();
}

}  // namespace net
}  // namespace lyric

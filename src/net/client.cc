#include "net/client.h"

#include <chrono>
#include <thread>
#include <utility>

namespace lyric {
namespace net {

Status Client::Connect() {
  if (socket_.valid()) return Status::OK();
  Result<Socket> connected = Socket::Connect(options_.host, options_.port);
  if (!connected.ok()) return connected.status();
  const bool is_reconnect = stats_.sends > 0;
  socket_ = std::move(*connected);
  if (is_reconnect) ++stats_.reconnects;
  return Status::OK();
}

void Client::Close() { socket_.Close(); }

Result<QueryResponse> Client::Execute(const std::string& query) {
  QueryRequest request;
  request.query = query;
  request.deadline_ms = options_.deadline_ms;
  request.memory_budget = options_.memory_budget;
  request.max_rows = options_.max_rows;
  request.analyze_first = options_.analyze_first;
  return Execute(request);
}

Result<QueryResponse> Client::Execute(const QueryRequest& request) {
  ++stats_.requests;
  const std::string payload = EncodeQueryRequest(request);
  for (uint32_t attempt = 0;; ++attempt) {
    Result<QueryResponse> outcome = ExecuteOnce(payload);
    Status failure = Status::OK();
    if (outcome.ok()) {
      if (!outcome->status.IsUnavailable()) return outcome;
      // A typed shed: well-formed response, transient status, possibly
      // carrying the scheduler's retry-after hint.
      ++stats_.shed_responses;
      failure = outcome->status;
      if (!options_.retry.ShouldRetry(failure, attempt)) {
        return outcome;  // Hand the shed to the caller as data.
      }
    } else {
      // Transport/protocol failure: this connection is unusable. Drop
      // it; the retry (if any) reconnects from scratch.
      ++stats_.transport_errors;
      Close();
      failure = outcome.status();
      if (!options_.retry.ShouldRetry(failure, attempt)) {
        return failure;
      }
    }
    const uint64_t backoff_ms = options_.retry.BackoffMs(attempt, failure);
    stats_.backoff_ms_total += backoff_ms;
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
  }
}

Result<QueryResponse> Client::ExecuteOnce(const std::string& payload) {
  Status st = Connect();
  if (!st.ok()) return st;
  ++stats_.sends;
  st = SendFrame(FrameType::kQuery, payload);
  if (!st.ok()) return st;
  std::string response_payload;
  Result<FrameHeader> header = ReadFrame(&response_payload);
  if (!header.ok()) {
    // The query left this process whole; the answer never came back.
    // The server may or may not have accepted/executed it — exactly
    // the uncertainty the chaos harness quantifies.
    ++stats_.in_flight_at_disconnect;
    return header.status();
  }
  switch (header->type) {
    case FrameType::kResult: {
      QueryResponse response;
      st = DecodeQueryResponse(response_payload, &response);
      if (!st.ok()) return st;
      return response;
    }
    case FrameType::kError: {
      // The server names the protocol violation and closes; surface its
      // typed status as this attempt's failure.
      WireError error;
      st = DecodeWireError(response_payload, &error);
      if (!st.ok()) return st;
      return Status(error.code, "server: " + error.message);
    }
    default:
      return Status::InvalidArgument(
          "client: unexpected server frame type " +
          std::to_string(static_cast<int>(header->type)));
  }
}

Status Client::Health(HealthInfo* out) {
  Status st = Connect();
  if (!st.ok()) return st;
  st = SendFrame(FrameType::kHealth, std::string());
  if (!st.ok()) {
    Close();
    return st;
  }
  std::string payload;
  Result<FrameHeader> header = ReadFrame(&payload);
  if (!header.ok()) {
    Close();
    return header.status();
  }
  if (header->type != FrameType::kHealthInfo) {
    Close();
    return Status::InvalidArgument(
        "client: expected HEALTHINFO, got frame type " +
        std::to_string(static_cast<int>(header->type)));
  }
  st = DecodeHealthInfo(payload, out);
  if (!st.ok()) Close();
  return st;
}

Status Client::Ping() {
  Status st = Connect();
  if (!st.ok()) return st;
  st = SendFrame(FrameType::kPing, std::string());
  if (!st.ok()) {
    Close();
    return st;
  }
  std::string payload;
  Result<FrameHeader> header = ReadFrame(&payload);
  if (!header.ok()) {
    Close();
    return header.status();
  }
  if (header->type != FrameType::kPong || !payload.empty()) {
    Close();
    return Status::InvalidArgument("client: bad PONG");
  }
  return Status::OK();
}

Status Client::SendFrame(FrameType type, const std::string& payload) {
  char header_bytes[kFrameHeaderBytes];
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()), header_bytes);
  std::string frame(header_bytes, kFrameHeaderBytes);
  frame.append(payload);
  return socket_.WriteFull(frame.data(), frame.size());
}

Result<FrameHeader> Client::ReadFrame(std::string* payload) {
  char header_bytes[kFrameHeaderBytes];
  Status st = socket_.ReadFull(header_bytes, kFrameHeaderBytes);
  if (!st.ok()) return st;
  FrameHeader header;
  st = DecodeFrameHeader(header_bytes, kFrameHeaderBytes,
                         options_.max_payload_bytes, &header);
  if (!st.ok()) return st;
  last_server_health_ = header.health;
  payload->assign(header.payload_len, '\0');
  if (header.payload_len != 0) {
    st = socket_.ReadFull(payload->data(), payload->size());
    if (!st.ok()) return st;
  }
  return header;
}

}  // namespace net
}  // namespace lyric

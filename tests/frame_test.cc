// Unit tests for the wire protocol: header and payload round-trips, and
// the rejection contract for malformed bytes (the same code paths the
// fuzz harness drives at scale).

#include <gtest/gtest.h>

#include <string>

#include "net/frame.h"

namespace lyric {
namespace net {
namespace {

TEST(FrameHeader, RoundTrip) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kQuery, 12345, bytes);
  FrameHeader header;
  ASSERT_TRUE(
      DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header).ok());
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, FrameType::kQuery);
  EXPECT_EQ(header.payload_len, 12345u);
}

TEST(FrameHeader, RejectsBadMagic) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kPing, 0, bytes);
  bytes[1] = 'x';
  FrameHeader header;
  Status st = DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("magic"), std::string::npos);
}

TEST(FrameHeader, RejectsWrongVersion) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kPing, 0, bytes);
  bytes[4] = 9;
  FrameHeader header;
  Status st = DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(FrameHeader, RejectsUnknownType) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kPing, 0, bytes);
  bytes[5] = 77;
  FrameHeader header;
  Status st = DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header);
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(FrameHeader, RejectsOversizedPayload) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kQuery, kMaxPayloadBytes + 1, bytes);
  FrameHeader header;
  Status st = DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("cap"), std::string::npos);
}

TEST(FrameHeader, RejectsTruncatedHeader) {
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kQuery, 0, bytes);
  FrameHeader header;
  EXPECT_TRUE(DecodeFrameHeader(bytes, 7, kMaxPayloadBytes, &header)
                  .IsInvalidArgument());
}

TEST(FrameHeader, ReservedBytesIgnoredOnReceive) {
  // The forward-compat rule: senders write 0, receivers ignore.
  char bytes[kFrameHeaderBytes];
  EncodeFrameHeader(FrameType::kPing, 0, bytes);
  bytes[6] = static_cast<char>(0xAB);
  bytes[7] = static_cast<char>(0xCD);
  FrameHeader header;
  EXPECT_TRUE(
      DecodeFrameHeader(bytes, sizeof(bytes), kMaxPayloadBytes, &header).ok());
}

TEST(QueryRequestWire, RoundTripAllFields) {
  QueryRequest req;
  req.query = "SELECT O FROM Object_in_Room O";
  req.deadline_ms = 250;
  req.memory_budget = 1u << 20;
  req.max_rows = 99;
  req.analyze_first = true;
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(req), &back).ok());
  EXPECT_EQ(req, back);
}

// The u32 after the budget is a reserved slot: senders write 0 and
// receivers accept any value, so the layout keeps protocol version 1.
TEST(QueryRequestWire, ReservedSlotIsWrittenZeroAndIgnored) {
  QueryRequest req;
  req.query = "SELECT X FROM Desk X";
  req.max_rows = 7;
  std::string payload = EncodeQueryRequest(req);
  constexpr size_t kReservedAt = 1 + 8 + 8;  // flags, deadline, budget
  ASSERT_GT(payload.size(), kReservedAt + 4);
  EXPECT_EQ(payload.substr(kReservedAt, 4), std::string(4, '\0'));
  payload.replace(kReservedAt, 4, std::string(4, '\xff'));
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(payload, &back).ok());
  EXPECT_EQ(req, back);
}

TEST(QueryRequestWire, RoundTripUnsetOptionals) {
  QueryRequest req;
  req.query = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
  QueryRequest back;
  ASSERT_TRUE(DecodeQueryRequest(EncodeQueryRequest(req), &back).ok());
  EXPECT_EQ(req, back);
  EXPECT_FALSE(back.deadline_ms.has_value());
  EXPECT_FALSE(back.memory_budget.has_value());
}

TEST(QueryRequestWire, RejectsTruncationAtEveryPrefix) {
  QueryRequest req;
  req.query = "SELECT O FROM Object_in_Room O";
  req.deadline_ms = 7;
  const std::string full = EncodeQueryRequest(req);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    QueryRequest back;
    EXPECT_TRUE(DecodeQueryRequest(full.substr(0, cut), &back)
                    .IsInvalidArgument())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(QueryRequestWire, RejectsTrailingBytes) {
  QueryRequest req;
  req.query = "SELECT O FROM Object_in_Room O";
  QueryRequest back;
  EXPECT_TRUE(DecodeQueryRequest(EncodeQueryRequest(req) + "x", &back)
                  .IsInvalidArgument());
}

QueryResponse SampleResponse() {
  QueryResponse resp;
  resp.status = Status::OK();
  resp.rendered = "| O |\n| desk1 |\n-- PARTIAL: deadline";
  resp.row_count = 1;
  resp.truncated = true;
  resp.diagnostics = {"warning: W001 something", "note: N002 else"};
  resp.governor_code = 9;
  resp.governor_report = "governor: tripped deadline after 3ms";
  resp.admission_mode = "queued";
  resp.queue_wait_ns = 12345;
  resp.server_retries = 1;
  return resp;
}

TEST(QueryResponseWire, RoundTripFullResult) {
  const QueryResponse resp = SampleResponse();
  QueryResponse back;
  ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(resp), &back).ok());
  EXPECT_EQ(back.status.code(), resp.status.code());
  EXPECT_EQ(back.rendered, resp.rendered);
  EXPECT_EQ(back.row_count, resp.row_count);
  EXPECT_EQ(back.truncated, resp.truncated);
  EXPECT_EQ(back.diagnostics, resp.diagnostics);
  EXPECT_EQ(back.governor_code, resp.governor_code);
  EXPECT_EQ(back.governor_report, resp.governor_report);
  EXPECT_EQ(back.admission_mode, resp.admission_mode);
  EXPECT_EQ(back.queue_wait_ns, resp.queue_wait_ns);
  EXPECT_EQ(back.server_retries, resp.server_retries);
  EXPECT_EQ(back.Fingerprint(), resp.Fingerprint());
}

TEST(QueryResponseWire, RoundTripErrorWithRetryAfter) {
  QueryResponse resp;
  resp.status =
      Status::Unavailable("admission: queue full").WithRetryAfter(42);
  QueryResponse back;
  ASSERT_TRUE(DecodeQueryResponse(EncodeQueryResponse(resp), &back).ok());
  EXPECT_TRUE(back.status.IsUnavailable());
  EXPECT_EQ(back.status.message(), "admission: queue full");
  EXPECT_EQ(back.status.retry_after_ms(), 42u);
  EXPECT_TRUE(back.rendered.empty());
}

TEST(QueryResponseWire, RejectsTruncationAtEveryPrefix) {
  const std::string full = EncodeQueryResponse(SampleResponse());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    QueryResponse back;
    EXPECT_TRUE(DecodeQueryResponse(full.substr(0, cut), &back)
                    .IsInvalidArgument())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(QueryResponseWire, RejectsUnknownStatusCode) {
  std::string bytes = EncodeQueryResponse(SampleResponse());
  bytes[0] = 55;  // Status code far outside the enum.
  QueryResponse back;
  EXPECT_TRUE(DecodeQueryResponse(bytes, &back).IsInvalidArgument());
}

TEST(WireErrorWire, RoundTrip) {
  WireError err;
  err.code = StatusCode::kInvalidArgument;
  err.message = "frame: bad magic";
  WireError back;
  ASSERT_TRUE(DecodeWireError(EncodeWireError(err), &back).ok());
  EXPECT_EQ(back.code, err.code);
  EXPECT_EQ(back.message, err.message);
}

TEST(WireReaderTest, LyingStringLengthRejected) {
  WireWriter w;
  w.U32(1000);  // Claims 1000 bytes follow...
  std::string payload = w.Take();
  payload += "short";  // ...but only 5 do.
  WireReader r(payload);
  std::string s;
  EXPECT_FALSE(r.Str(&s));
}

}  // namespace
}  // namespace net
}  // namespace lyric

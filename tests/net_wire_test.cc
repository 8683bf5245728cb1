// Tests for the network front door's two protocols: the binary frame
// codec's opcode payloads (the framing itself — chunking, byte flips,
// garbage, length windows — is covered for every framed stream by
// framed_parser_test) and the incremental HTTP/1.1 parser (split-across-read
// headers, oversized request lines, pipelining, bad framing).

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/http.h"
#include "src/net/wire.h"
#include "src/spatial/shortest_path.h"

namespace tsdm {
namespace {

RouteQuery SampleQuery(int i) {
  RouteQuery q;
  q.source = 3 + i;
  q.target = 17 + 2 * i;
  q.k = 4;
  q.depart_seconds = 8 * 3600.0 + i;
  q.arrival_deadline_seconds = q.depart_seconds + 1500.0;
  return q;
}

// --- Binary frame codec ---------------------------------------------------

TEST(NetWireTest, FrameRoundTripAllOpcodes) {
  std::vector<uint8_t> bytes;
  EncodeNetFrame(7, NetOpcode::kPing, nullptr, 0, &bytes);

  std::vector<uint8_t> query_payload;
  EncodeRouteQueryPayload(SampleQuery(1), &query_payload);
  ASSERT_EQ(query_payload.size(), kRouteQueryPayloadSize);
  EncodeNetFrame(8, NetOpcode::kRouteQuery, query_payload.data(),
                 query_payload.size(), &bytes);

  RouteAnswer answer;
  answer.status = Status::OK();
  answer.cost_mean_seconds = 123.5;
  answer.on_time_probability = 0.75;
  answer.num_candidates = 3;
  answer.route.edges = {4, 9, 2};
  std::vector<uint8_t> answer_payload;
  EncodeRouteAnswerPayload(answer, &answer_payload);
  EncodeNetFrame(9, NetOpcode::kRouteAnswer, answer_payload.data(),
                 answer_payload.size(), &bytes);

  std::vector<uint8_t> error_payload;
  EncodeErrorPayload(Status::ResourceExhausted("queue full"), &error_payload);
  EncodeNetFrame(10, NetOpcode::kError, error_payload.data(),
                 error_payload.size(), &bytes);

  FrameParser parser;
  std::vector<NetFrame> frames;
  parser.Consume(bytes.data(), bytes.size(), &frames);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(parser.stats().RejectedTotal(), 0u);
  EXPECT_EQ(parser.stats().resync_bytes, 0u);
  EXPECT_EQ(parser.PendingBytes(), 0u);

  EXPECT_EQ(frames[0].request_id, 7u);
  EXPECT_EQ(static_cast<NetOpcode>(frames[0].opcode), NetOpcode::kPing);
  EXPECT_TRUE(frames[0].payload.empty());

  RouteQuery q;
  ASSERT_TRUE(DecodeRouteQueryPayload(frames[1].payload.data(),
                                      frames[1].payload.size(), &q)
                  .ok());
  const RouteQuery want = SampleQuery(1);
  EXPECT_EQ(q.source, want.source);
  EXPECT_EQ(q.target, want.target);
  EXPECT_EQ(q.k, want.k);
  EXPECT_DOUBLE_EQ(q.depart_seconds, want.depart_seconds);
  EXPECT_DOUBLE_EQ(q.arrival_deadline_seconds, want.arrival_deadline_seconds);

  WireRouteAnswer wa;
  ASSERT_TRUE(DecodeRouteAnswerPayload(frames[2].payload.data(),
                                       frames[2].payload.size(), &wa)
                  .ok());
  EXPECT_EQ(wa.status_code, StatusCode::kOk);
  EXPECT_DOUBLE_EQ(wa.cost_mean_seconds, 123.5);
  EXPECT_DOUBLE_EQ(wa.on_time_probability, 0.75);
  EXPECT_EQ(wa.num_candidates, 3);
  EXPECT_EQ(wa.edges, (std::vector<uint32_t>{4, 9, 2}));

  const Status err = DecodeErrorPayload(frames[3].payload.data(),
                                        frames[3].payload.size());
  EXPECT_EQ(err.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err.message(), "queue full");
}

// --- HTTP parser ----------------------------------------------------------

TEST(NetHttpTest, ParsesRequestSplitAcrossReads) {
  const std::string raw =
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
      "Content-Length: 13\r\n\r\n{\"source\": 1}";
  HttpParser parser;
  HttpRequest req;
  // Feed one byte at a time: every prefix must say kNeedMore, the full
  // request must parse exactly once.
  for (size_t i = 0; i + 1 < raw.size(); ++i) {
    parser.Feed(reinterpret_cast<const uint8_t*>(&raw[i]), 1);
    ASSERT_EQ(parser.Next(&req), HttpParser::Result::kNeedMore)
        << "after byte " << i;
  }
  parser.Feed(reinterpret_cast<const uint8_t*>(&raw[raw.size() - 1]), 1);
  ASSERT_EQ(parser.Next(&req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/query");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.Header("content-type"), "application/json");
  EXPECT_EQ(req.body, "{\"source\": 1}");
  EXPECT_EQ(parser.Next(&req), HttpParser::Result::kNeedMore);
  EXPECT_EQ(parser.BufferedBytes(), 0u);
}

TEST(NetHttpTest, PipelinedSecondRequestParsesFromLeftoverBytes) {
  const std::string raw =
      "GET /health HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpParser parser;
  parser.Feed(reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
  HttpRequest first, second;
  ASSERT_EQ(parser.Next(&first), HttpParser::Result::kRequest);
  EXPECT_EQ(first.target, "/health");
  ASSERT_EQ(parser.Next(&second), HttpParser::Result::kRequest);
  EXPECT_EQ(second.target, "/metrics");
  EXPECT_EQ(parser.Next(&second), HttpParser::Result::kNeedMore);
}

TEST(NetHttpTest, OversizedRequestLineIsTooLarge) {
  HttpParser parser;
  const std::string line = "GET /" + std::string(8192, 'a');
  parser.Feed(reinterpret_cast<const uint8_t*>(line.data()), line.size());
  HttpRequest req;
  EXPECT_EQ(parser.Next(&req), HttpParser::Result::kTooLarge);
  // Terminal until Reset: more bytes do not resurrect the connection.
  parser.Feed(reinterpret_cast<const uint8_t*>("\r\n\r\n"), 4);
  EXPECT_EQ(parser.Next(&req), HttpParser::Result::kTooLarge);
  parser.Reset();
  const std::string ok = "GET / HTTP/1.1\r\n\r\n";
  parser.Feed(reinterpret_cast<const uint8_t*>(ok.data()), ok.size());
  EXPECT_EQ(parser.Next(&req), HttpParser::Result::kRequest);
}

TEST(NetHttpTest, MalformedRequestLineAndContentLengthAreBadRequests) {
  {
    HttpParser parser;
    const std::string raw = "NOSPACES\r\n\r\n";
    parser.Feed(reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
    HttpRequest req;
    EXPECT_EQ(parser.Next(&req), HttpParser::Result::kBadRequest);
  }
  {
    HttpParser parser;
    const std::string raw =
        "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
    parser.Feed(reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
    HttpRequest req;
    EXPECT_EQ(parser.Next(&req), HttpParser::Result::kBadRequest);
  }
}

TEST(NetHttpTest, OversizedBodyIsTooLarge) {
  HttpParser::Limits limits;
  limits.max_body_bytes = 16;
  HttpParser parser(limits);
  const std::string raw =
      "POST /query HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
  parser.Feed(reinterpret_cast<const uint8_t*>(raw.data()), raw.size());
  HttpRequest req;
  EXPECT_EQ(parser.Next(&req), HttpParser::Result::kTooLarge);
}

TEST(NetHttpTest, ExtractJsonNumberHandlesFlatBodies) {
  const std::string body =
      "{\"source\": 3, \"target\":17, \"depart_seconds\": 28800.5, "
      "\"k\": 4}";
  double v = 0;
  EXPECT_TRUE(ExtractJsonNumber(body, "source", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
  EXPECT_TRUE(ExtractJsonNumber(body, "target", &v));
  EXPECT_DOUBLE_EQ(v, 17.0);
  EXPECT_TRUE(ExtractJsonNumber(body, "depart_seconds", &v));
  EXPECT_DOUBLE_EQ(v, 28800.5);
  EXPECT_FALSE(ExtractJsonNumber(body, "missing", &v));
  EXPECT_FALSE(ExtractJsonNumber("{\"source\": \"three\"}", "source", &v));
}

TEST(NetHttpTest, SplitTargetSeparatesPathAndQuery) {
  std::string path, query;
  SplitTarget("/debug/traces?n=5", &path, &query);
  EXPECT_EQ(path, "/debug/traces");
  EXPECT_EQ(query, "n=5");
  SplitTarget("/metrics", &path, &query);
  EXPECT_EQ(path, "/metrics");
  EXPECT_EQ(query, "");
  // Only the first '?' splits; the rest belongs to the query string.
  SplitTarget("/a?b=1?c=2", &path, &query);
  EXPECT_EQ(path, "/a");
  EXPECT_EQ(query, "b=1?c=2");
  // A bare trailing '?' leaves an empty query, not a missing one.
  SplitTarget("/a?", &path, &query);
  EXPECT_EQ(path, "/a");
  EXPECT_EQ(query, "");
}

TEST(NetHttpTest, ParseQueryParamU64AcceptsOnlyCleanIntegers) {
  uint64_t v = 0;
  EXPECT_EQ(ParseQueryParamU64("n=5", "n", &v), QueryParamResult::kOk);
  EXPECT_EQ(v, 5u);
  EXPECT_EQ(ParseQueryParamU64("a=1&n=42&b=2", "n", &v),
            QueryParamResult::kOk);
  EXPECT_EQ(v, 42u);
  // First occurrence wins.
  EXPECT_EQ(ParseQueryParamU64("n=7&n=9", "n", &v), QueryParamResult::kOk);
  EXPECT_EQ(v, 7u);
  // The full uint64 range round-trips.
  EXPECT_EQ(ParseQueryParamU64("n=18446744073709551615", "n", &v),
            QueryParamResult::kOk);
  EXPECT_EQ(v, UINT64_MAX);

  // Absent: the key simply is not there (a prefix match is not a match).
  EXPECT_EQ(ParseQueryParamU64("", "n", &v), QueryParamResult::kAbsent);
  EXPECT_EQ(ParseQueryParamU64("m=3", "n", &v), QueryParamResult::kAbsent);
  EXPECT_EQ(ParseQueryParamU64("nn=3", "n", &v), QueryParamResult::kAbsent);

  // Every hostile shape is kBad — the typed-400 bucket.
  EXPECT_EQ(ParseQueryParamU64("n", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=abc", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=5x", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=-1", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=+1", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=1.5", "n", &v), QueryParamResult::kBad);
  EXPECT_EQ(ParseQueryParamU64("n=18446744073709551616", "n", &v),
            QueryParamResult::kBad);  // UINT64_MAX + 1 overflows
}

TEST(NetHttpTest, WriteHttpResponseFramesBody) {
  std::vector<uint8_t> out;
  WriteHttpResponse(200, "application/json", "{\"a\":1}", &out);
  const std::string text(out.begin(), out.end());
  EXPECT_EQ(text.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(text.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: application/json\r\n"),
            std::string::npos);
  const size_t body_at = text.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(text.substr(body_at + 4), "{\"a\":1}");
}

}  // namespace
}  // namespace tsdm

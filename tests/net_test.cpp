// Network front-end tests (DESIGN.md §13): the wire protocol's strict
// incremental parser (truncation, garbage, lying lengths, CRC), and the
// epoll DocServer end to end over real loopback sockets — pipelined
// multi-connection byte-identity against direct DocService calls,
// poisoned-connection isolation, read backpressure, graceful drain with
// requests in flight, per-connection response order across priority
// classes and poll rounds, answers that never wait on another
// connection's slow decode, and the Stat command. The multi-threaded
// tests run under ThreadSanitizer via the `concurrency` ctest label.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "gated_archive.h"
#include "net/doc_server.h"
#include "net/net_client.h"
#include "net/protocol.h"
#include "serve/doc_service.h"
#include "serve/sharded_store.h"
#include "util/random.h"

namespace rlz {
namespace net {
namespace {

Collection TestCollection(size_t target_bytes, uint64_t seed) {
  CorpusOptions options;
  options.target_bytes = target_bytes;
  options.seed = seed;
  return GenerateCorpus(options).collection;
}

// ---------------------------------------------------------------------------
// Protocol: encoders against the strict parser.

// Runs one encoded buffer through ParseFrame + DecodeRequestBody.
Status ParseRequest(const std::string& wire, NetRequest* out) {
  MessageType type;
  uint8_t flags;
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  const ParseResult r =
      ParseFrame(wire, &type, &flags, &body, &consumed, &error);
  if (r != ParseResult::kFrame) return Status::InvalidArgument(error);
  EXPECT_EQ(consumed, wire.size());
  return DecodeRequestBody(type, flags, body, out);
}

ParseResult ParseOnly(std::string_view wire) {
  MessageType type;
  uint8_t flags;
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  return ParseFrame(wire, &type, &flags, &body, &consumed, &error);
}

TEST(ProtocolTest, RequestRoundTrips) {
  for (const bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc" : "plain");
    std::string wire;
    NetRequest req;

    wire.clear();
    EncodeGetRequest(42, RequestOptions{.crc = crc}, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.type, MessageType::kGet);
    EXPECT_EQ(req.id, 42u);

    wire.clear();
    const std::vector<uint64_t> ids = {0, 7, 1u << 20, ~0ull};
    EncodeMultiGetRequest(ids.data(), ids.size(), RequestOptions{.crc = crc},
                          &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.type, MessageType::kMultiGet);
    EXPECT_EQ(req.ids, ids);

    wire.clear();
    EncodeGetRangeRequest(9, 100, 400, RequestOptions{.crc = crc}, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.type, MessageType::kGetRange);
    EXPECT_EQ(req.id, 9u);
    EXPECT_EQ(req.offset, 100u);
    EXPECT_EQ(req.length, 400u);

    wire.clear();
    EncodeStatRequest(crc, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.type, MessageType::kStat);
  }
}

TEST(ProtocolTest, PriorityAndDeadlineRoundTrip) {
  for (const bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc" : "plain");
    std::string wire;
    NetRequest req;

    // High priority + deadline on every request kind that carries them.
    RequestOptions opts;
    opts.crc = crc;
    opts.priority = RequestPriority::kHigh;
    opts.deadline_ms = 750;
    wire.clear();
    EncodeGetRequest(42, opts, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.priority, RequestPriority::kHigh);
    EXPECT_EQ(req.deadline_ms, 750u);
    EXPECT_EQ(req.id, 42u);

    opts.priority = RequestPriority::kBestEffort;
    opts.deadline_ms = 0;
    wire.clear();
    EncodeGetRangeRequest(9, 100, 400, opts, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.priority, RequestPriority::kBestEffort);
    EXPECT_EQ(req.deadline_ms, 0u);
    EXPECT_EQ(req.offset, 100u);

    const std::vector<uint64_t> ids = {1, 2, 3};
    opts.priority = RequestPriority::kBestEffort;
    opts.deadline_ms = 1;
    wire.clear();
    EncodeMultiGetRequest(ids.data(), ids.size(), opts, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.priority, RequestPriority::kBestEffort);
    EXPECT_EQ(req.deadline_ms, 1u);
    EXPECT_EQ(req.ids, ids);

    // Default options encode a v1 frame: normal priority, no deadline —
    // an old client is indistinguishable from a normal-class one.
    wire.clear();
    EncodeGetRequest(7, RequestOptions{.crc = crc}, &wire);
    ASSERT_TRUE(ParseRequest(wire, &req).ok());
    EXPECT_EQ(req.priority, RequestPriority::kNormal);
    EXPECT_EQ(req.deadline_ms, 0u);
  }
}

TEST(ProtocolTest, ReservedPriorityAndTruncatedDeadlineAreErrors) {
  NetRequest req;
  // Wire priority 3 is reserved: the frame parses (the flags byte is
  // known) but the body decode rejects it.
  const uint8_t reserved = static_cast<uint8_t>(3 << kFlagPriorityShift);
  std::string body(8, '\0');  // a valid Get payload
  EXPECT_FALSE(
      DecodeRequestBody(MessageType::kGet, reserved, body, &req).ok());
  // kFlagDeadline promises a u32 prefix the payload does not carry.
  EXPECT_FALSE(DecodeRequestBody(MessageType::kGet, kFlagDeadline,
                                 std::string(2, '\0'), &req)
                   .ok());
  // With the prefix present, the same frame decodes.
  std::string with_deadline;
  const uint32_t deadline_ms = 250;
  with_deadline.append(reinterpret_cast<const char*>(&deadline_ms),
                       sizeof(deadline_ms));
  with_deadline.append(8, '\0');
  EXPECT_TRUE(DecodeRequestBody(MessageType::kGet, kFlagDeadline,
                                with_deadline, &req)
                  .ok());
  EXPECT_EQ(req.deadline_ms, 250u);
}

TEST(ProtocolTest, RejectResponsesCarryRetryAfterOnEveryType) {
  // A shed/rejected response of any request type round-trips its code,
  // message, and retry-after hint — including MultiGet and Stat, whose
  // OK layouts differ completely.
  for (const MessageType type :
       {MessageType::kGet, MessageType::kGetRange, MessageType::kMultiGet,
        MessageType::kStat}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::string wire;
    EncodeRejectResponse(type, WireCode::kUnavailable, 321, "overloaded",
                         /*crc=*/true, &wire);
    MessageType parsed_type;
    uint8_t flags;
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(wire, &parsed_type, &flags, &body, &consumed,
                         &error),
              ParseResult::kFrame);
    NetResponse resp;
    ASSERT_TRUE(DecodeResponseBody(parsed_type, flags, body, &resp).ok());
    EXPECT_EQ(resp.type, type);
    EXPECT_EQ(resp.code, WireCode::kUnavailable);
    EXPECT_EQ(resp.retry_after_ms, 321u);
    EXPECT_EQ(resp.payload, "overloaded");
  }
  // kDeadlineExceeded is a legal wire code in both directions.
  std::string wire;
  EncodeDocResponse(MessageType::kGet, WireCode::kDeadlineExceeded,
                    "expired in queue", /*crc=*/false, &wire);
  MessageType type;
  uint8_t flags;
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
            ParseResult::kFrame);
  NetResponse resp;
  ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
  EXPECT_EQ(resp.code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(resp.payload, "expired in queue");
}

TEST(NetClientTest, RetryBackoffPolicy) {
  Rng rng(7);
  // Grows exponentially from base, jittered into [nominal/2, nominal].
  for (int attempt = 0; attempt < 7; ++attempt) {
    const uint64_t nominal =
        std::min<uint64_t>(250, uint64_t{2} << attempt);
    for (int trial = 0; trial < 32; ++trial) {
      const uint32_t delay = RetryBackoffMs(attempt, 2, 250, 0, &rng);
      EXPECT_GE(delay, nominal / 2) << "attempt " << attempt;
      EXPECT_LE(delay, nominal) << "attempt " << attempt;
    }
  }
  // Saturates at the cap — even for shift-overflowing attempt counts.
  EXPECT_LE(RetryBackoffMs(31, 2, 250, 0, &rng), 250u);
  EXPECT_LE(RetryBackoffMs(40, 2, 250, 0, &rng), 250u);
  EXPECT_GE(RetryBackoffMs(40, 2, 250, 0, &rng), 125u);
  // The server's retry-after hint is a floor on the jittered value.
  for (int trial = 0; trial < 16; ++trial) {
    EXPECT_GE(RetryBackoffMs(0, 2, 250, 100, &rng), 100u);
  }
  // A zero-everything call still waits at least a millisecond.
  EXPECT_GE(RetryBackoffMs(0, 0, 0, 0, &rng), 1u);
}

TEST(ProtocolTest, BackToBackFramesParseIndividually) {
  std::string wire;
  EncodeGetRequest(1, RequestOptions{.crc = false}, &wire);
  const size_t first = wire.size();
  EncodeGetRequest(2, RequestOptions{.crc = true}, &wire);

  MessageType type;
  uint8_t flags;
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
            ParseResult::kFrame);
  EXPECT_EQ(consumed, first);
  ASSERT_EQ(ParseFrame(std::string_view(wire).substr(consumed), &type, &flags,
                       &body, &consumed, &error),
            ParseResult::kFrame);
  EXPECT_EQ(consumed, wire.size() - first);
  EXPECT_EQ(flags & kFlagCrc, kFlagCrc);
}

// A Stat entry list of both kinds whose every value differs, so an
// encoder and decoder that misplace any entry's value cannot round-trip
// it.
WireStats DistinctStats() {
  WireStats stats;
  stats.Add("serve.requests", uint64_t{1001});
  stats.Add("serve.latency_p99_us", 1002.25);
  stats.Add("net.batches", uint64_t{1003});
  stats.Add("archive.docs", uint64_t{1} << 40);
  stats.Add("serve.cpu_seconds", 0.5);
  stats.Add("x", uint64_t{0});
  stats.Add(std::string(255, 'n'), ~uint64_t{0});
  return stats;
}

void ExpectStatsEqual(const WireStats& got, const WireStats& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < want.entries.size(); ++i) {
    const StatEntry& g = got.entries[i];
    const StatEntry& w = want.entries[i];
    EXPECT_EQ(g.name, w.name) << "entry " << i;
    EXPECT_EQ(g.kind, w.kind) << w.name;
    EXPECT_EQ(g.u64, w.u64) << w.name;
    EXPECT_EQ(g.f64, w.f64) << w.name;
  }
}

TEST(ProtocolTest, ResponseRoundTrips) {
  for (const bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc" : "plain");
    std::string wire;
    NetResponse resp;

    // Document response, OK.
    wire.clear();
    EncodeDocResponse(MessageType::kGet, WireCode::kOk, "the doc", crc,
                      &wire);
    MessageType type;
    uint8_t flags;
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
              ParseResult::kFrame);
    ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.payload, "the doc");

    // Document response, error code + message.
    wire.clear();
    EncodeDocResponse(MessageType::kGetRange, WireCode::kNotFound, "gone",
                      crc, &wire);
    ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
              ParseResult::kFrame);
    ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
    EXPECT_EQ(resp.code, WireCode::kNotFound);
    EXPECT_EQ(resp.payload, "gone");

    // MultiGet response with mixed per-element codes.
    wire.clear();
    const MultiGetOut elements[] = {
        {WireCode::kOk, "alpha"},
        {WireCode::kNotFound, "no such doc"},
        {WireCode::kOk, ""},
    };
    EncodeMultiGetResponse(elements, 3, crc, &wire);
    ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
              ParseResult::kFrame);
    ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
    EXPECT_TRUE(resp.ok());
    ASSERT_EQ(resp.elements.size(), 3u);
    EXPECT_EQ(resp.elements[0].bytes, "alpha");
    EXPECT_EQ(resp.elements[1].code, WireCode::kNotFound);
    EXPECT_EQ(resp.elements[1].bytes, "no such doc");
    EXPECT_EQ(resp.elements[2].bytes, "");

    // Stat response: every entry survives the trip, in order, and the
    // lookups find each by name and kind.
    wire.clear();
    EncodeStatResponse(DistinctStats(), crc, &wire);
    ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
              ParseResult::kFrame);
    ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
    EXPECT_TRUE(resp.ok());
    ExpectStatsEqual(resp.stats, DistinctStats());
    EXPECT_EQ(resp.stats.U64("net.batches"), 1003u);
    EXPECT_EQ(resp.stats.U64("archive.docs"), uint64_t{1} << 40);
    const StatEntry* p99 = resp.stats.Find("serve.latency_p99_us");
    ASSERT_NE(p99, nullptr);
    EXPECT_EQ(p99->f64, 1002.25);
    EXPECT_EQ(resp.stats.U64("serve.latency_p99_us"), 0u);  // wrong kind
    EXPECT_EQ(resp.stats.Find("net.missing"), nullptr);

    // An empty entry list is a valid Stat.
    wire.clear();
    EncodeStatResponse(WireStats(), crc, &wire);
    ASSERT_EQ(ParseFrame(wire, &type, &flags, &body, &consumed, &error),
              ParseResult::kFrame);
    ASSERT_TRUE(DecodeResponseBody(type, flags, body, &resp).ok());
    EXPECT_TRUE(resp.stats.entries.empty());
  }
}

TEST(ProtocolTest, EveryTruncationIsNeedMoreNeverError) {
  // A strict parser must distinguish "short read" from "garbage": every
  // proper prefix of every valid frame asks for more bytes.
  std::vector<std::string> frames;
  std::string wire;
  const std::vector<uint64_t> ids = {1, 2, 3};
  for (const bool crc : {false, true}) {
    wire.clear();
    EncodeGetRequest(7, RequestOptions{.crc = crc}, &wire);
    frames.push_back(wire);
    wire.clear();
    EncodeMultiGetRequest(ids.data(), ids.size(), RequestOptions{.crc = crc},
                          &wire);
    frames.push_back(wire);
    wire.clear();
    EncodeGetRangeRequest(7, 8, 9, RequestOptions{.crc = crc}, &wire);
    frames.push_back(wire);
    wire.clear();
    EncodeStatRequest(crc, &wire);
    frames.push_back(wire);
    wire.clear();
    EncodeDocResponse(MessageType::kGet, WireCode::kOk, "payload", crc,
                      &wire);
    frames.push_back(wire);
  }
  for (const std::string& frame : frames) {
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_EQ(ParseOnly(std::string_view(frame).substr(0, cut)),
                ParseResult::kNeedMore)
          << "prefix of " << cut << " of " << frame.size();
    }
    EXPECT_EQ(ParseOnly(frame), ParseResult::kFrame);
  }
}

std::string FrameWithHeader(uint32_t body_len, uint8_t type, uint8_t flags,
                            std::string_view payload) {
  std::string wire;
  wire.append(reinterpret_cast<const char*>(&body_len), sizeof(body_len));
  wire.push_back(static_cast<char>(type));
  wire.push_back(static_cast<char>(flags));
  wire.append(payload.data(), payload.size());
  return wire;
}

TEST(ProtocolTest, MalformedFramesAreErrorsNotCrashes) {
  // Hostile length prefix: claims more than the protocol bound.
  EXPECT_EQ(ParseOnly(FrameWithHeader(kMaxFrameBytes + 1, 1, 0, "")),
            ParseResult::kError);
  // Length too short to hold the type/flags header.
  EXPECT_EQ(ParseOnly(FrameWithHeader(0, 1, 0, "")), ParseResult::kError);
  EXPECT_EQ(ParseOnly(FrameWithHeader(1, 1, 0, "")), ParseResult::kError);
  // Unknown type / unknown flag bits.
  EXPECT_EQ(ParseOnly(FrameWithHeader(2, 0, 0, "")), ParseResult::kError);
  EXPECT_EQ(ParseOnly(FrameWithHeader(2, 99, 0, "")), ParseResult::kError);
  EXPECT_EQ(ParseOnly(FrameWithHeader(2, 1, 0x80, "")), ParseResult::kError);
  // CRC flag on a frame too short to carry a CRC.
  EXPECT_EQ(ParseOnly(FrameWithHeader(4, 1, kFlagCrc, "xy")),
            ParseResult::kError);
  // Corrupted CRC: flip one payload byte of a valid CRC'd frame.
  std::string wire;
  EncodeGetRequest(7, RequestOptions{.crc = true}, &wire);
  wire[8] ^= 0x01;
  EXPECT_EQ(ParseOnly(wire), ParseResult::kError);
}

TEST(ProtocolTest, MalformedBodiesAreDecodeErrors) {
  NetRequest req;
  // Get payload of the wrong size.
  EXPECT_FALSE(
      DecodeRequestBody(MessageType::kGet, 0, "short", &req).ok());
  // MultiGet count that disagrees with the payload it brought.
  std::string body;
  const uint32_t lying_count = 10;
  body.append(reinterpret_cast<const char*>(&lying_count),
              sizeof(lying_count));
  body.append(8, '\0');  // one id, not ten
  EXPECT_FALSE(
      DecodeRequestBody(MessageType::kMultiGet, 0, body, &req).ok());
  // MultiGet count over the allocation bound.
  body.clear();
  const uint32_t huge_count = kMaxMultiGetIds + 1;
  body.append(reinterpret_cast<const char*>(&huge_count),
              sizeof(huge_count));
  EXPECT_FALSE(
      DecodeRequestBody(MessageType::kMultiGet, 0, body, &req).ok());
  // Stat with a payload, kError as a request.
  EXPECT_FALSE(DecodeRequestBody(MessageType::kStat, 0, "x", &req).ok());
  EXPECT_FALSE(DecodeRequestBody(MessageType::kError, 0, "", &req).ok());
  // GetRange short one field.
  EXPECT_FALSE(DecodeRequestBody(MessageType::kGetRange, 0,
                                 std::string(16, '\0'), &req)
                   .ok());

  // Stat responses: a valid payload cut short anywhere, with a trailing
  // byte, or tagged with the previous layout version (tests/fuzz_test.cpp
  // covers single-byte mutations and crafted entries).
  std::string wire;
  EncodeStatResponse(DistinctStats(), /*crc=*/false, &wire);
  MessageType type;
  uint8_t flags;
  std::string_view stat_body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ParseFrame(wire, &type, &flags, &stat_body, &consumed, &error),
            ParseResult::kFrame);
  NetResponse resp;
  ASSERT_TRUE(DecodeResponseBody(type, flags, stat_body, &resp).ok());
  for (size_t cut = 0; cut < stat_body.size(); ++cut) {
    EXPECT_EQ(DecodeResponseBody(type, flags, stat_body.substr(0, cut), &resp)
                  .code(),
              StatusCode::kInvalidArgument)
        << "cut at " << cut << " of " << stat_body.size();
  }
  std::string longer(stat_body);
  longer.push_back('\0');
  EXPECT_EQ(DecodeResponseBody(type, flags, longer, &resp).code(),
            StatusCode::kInvalidArgument);
  std::string version3(stat_body);
  ASSERT_EQ(version3[1], 4);  // [0] is the status byte, [1] the version
  version3[1] = 3;
  EXPECT_EQ(DecodeResponseBody(type, flags, version3, &resp).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, WireCodeRoundTripsStatus) {
  EXPECT_EQ(ToWireCode(Status::OK()), WireCode::kOk);
  EXPECT_EQ(ToWireCode(Status::NotFound("x")), WireCode::kNotFound);
  EXPECT_EQ(ToWireCode(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_EQ(ToWireCode(Status::OutOfRange("x")), WireCode::kOutOfRange);
  EXPECT_EQ(ToWireCode(Status::Unavailable("x")), WireCode::kUnavailable);
  EXPECT_STREQ(WireCodeToString(WireCode::kNotFound), "NotFound");
}

// ---------------------------------------------------------------------------
// DocServer end to end over loopback.

// A built store + service + started server, torn down in reverse order.
class ServerHarness {
 public:
  explicit ServerHarness(DocServerOptions server_options = {},
                         size_t corpus_bytes = 1 << 20)
      : collection_(TestCollection(corpus_bytes, /*seed=*/11)) {
    ShardedStoreOptions store_options;
    store_options.num_shards = 4;
    store_options.dict_bytes = collection_.size_bytes() / 64;
    store_ = ShardedStore::Build(collection_, store_options);
    DocServiceOptions service_options;
    service_options.num_threads = 4;
    service_options.cache_bytes = 8 << 20;
    service_ = std::make_unique<DocService>(store_.get(), service_options);
    server_ = std::make_unique<DocServer>(service_.get(), server_options);
    const Status started = server_->Start();
    RLZ_CHECK(started.ok()) << started.ToString();
  }

  ~ServerHarness() {
    server_->Shutdown();
    service_->Shutdown();
  }

  const Collection& collection() const { return collection_; }
  ShardedStore& store() { return *store_; }
  DocService& service() { return *service_; }
  DocServer& server() { return *server_; }
  uint16_t port() const { return server_->port(); }

  std::unique_ptr<NetClient> Connect(NetClientOptions options = {}) {
    auto client = NetClient::Connect(server_->port(), options);
    RLZ_CHECK(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

 private:
  Collection collection_;
  std::unique_ptr<ShardedStore> store_;
  std::unique_ptr<DocService> service_;
  std::unique_ptr<DocServer> server_;
};

TEST(DocServerTest, GetMatchesCollection) {
  ServerHarness harness;
  auto client = harness.Connect();
  for (const size_t id : {size_t{0}, size_t{1},
                          harness.collection().num_docs() - 1}) {
    auto doc = client->Get(id);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_EQ(*doc, harness.collection().doc(id)) << "doc " << id;
  }
}

TEST(DocServerTest, GetRangeMatchesSubstring) {
  ServerHarness harness;
  auto client = harness.Connect();
  const std::string_view doc = harness.collection().doc(3);
  ASSERT_GT(doc.size(), 10u);
  auto window = client->GetRange(3, 5, doc.size() - 7);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(*window, doc.substr(5, doc.size() - 7));
  // Degenerate range: empty but well-formed.
  auto empty = client->GetRange(3, 0, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(DocServerTest, ErrorsTravelAsWireCodes) {
  ServerHarness harness;
  auto client = harness.Connect();
  const size_t bogus = harness.collection().num_docs() + 100;
  // The wire result must carry the same status class as the direct call.
  const GetResult direct = harness.service().Get(bogus).get();
  ASSERT_FALSE(direct.ok());
  auto wire = client->Get(bogus);
  ASSERT_FALSE(wire.ok());
  EXPECT_EQ(wire.status().code(), direct.status.code());
  // A MultiGet mixing good and bad ids reports per-element codes.
  auto mixed = client->MultiGet({0, bogus, 1});
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->size(), 3u);
  EXPECT_EQ((*mixed)[0].code, WireCode::kOk);
  EXPECT_EQ((*mixed)[0].bytes, harness.collection().doc(0));
  EXPECT_EQ((*mixed)[1].code, ToWireCode(direct.status));
  EXPECT_EQ((*mixed)[2].code, WireCode::kOk);
  EXPECT_EQ((*mixed)[2].bytes, harness.collection().doc(1));
}

TEST(DocServerTest, CrcEndToEnd) {
  ServerHarness harness;
  NetClientOptions crc;
  crc.use_crc = true;
  auto client = harness.Connect(crc);
  // The server verifies the request CRC and answers with a CRC the
  // client's parser verifies in turn.
  auto doc = client->Get(2);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(2));
}

TEST(DocServerTest, ConcurrentPipelinedConnectionsMatchDirect) {
  // The acceptance bar of this subsystem: several connections, each
  // deeply pipelined, every payload byte-identical to the collection.
  ServerHarness harness;
  constexpr int kConnections = 6;
  constexpr int kRounds = 40;
  constexpr size_t kDepth = 8;
  const size_t num_docs = harness.collection().num_docs();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      auto client = harness.Connect();
      Rng rng(1000 + t);
      std::vector<uint64_t> ids(3);
      std::vector<std::vector<uint64_t>> inflight;
      for (int round = 0; round < kRounds; ++round) {
        inflight.clear();
        for (size_t d = 0; d < kDepth; ++d) {
          for (auto& id : ids) id = rng.Next() % num_docs;
          client->SendMultiGet(ids);
          inflight.push_back(ids);
        }
        for (size_t d = 0; d < kDepth; ++d) {
          auto response = client->Receive();
          if (!response.ok() || !response->ok() ||
              response->elements.size() != inflight[d].size()) {
            ++failures;
            return;
          }
          for (size_t i = 0; i < inflight[d].size(); ++i) {
            if (response->elements[i].code != WireCode::kOk ||
                response->elements[i].bytes !=
                    harness.collection().doc(inflight[d][i])) {
              ++failures;
              return;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const NetServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kConnections));
  EXPECT_EQ(stats.coalesced_requests,
            static_cast<uint64_t>(kConnections) * kRounds * kDepth * 3);
  EXPECT_EQ(stats.protocol_errors, 0u);
  // Pipelining must actually coalesce: strictly fewer batches than doc
  // requests (equality would mean no batching at all).
  EXPECT_LT(stats.batches, stats.coalesced_requests);
}

TEST(DocServerTest, MalformedFrameGetsErrorThenCloseOthersUnaffected) {
  ServerHarness harness;
  auto healthy = harness.Connect();
  auto hostile = harness.Connect();
  // An in-protocol request, then garbage with a valid length prefix.
  hostile->SendGet(0);
  hostile->SendRaw(FrameWithHeader(2, /*type=*/0x63, 0, ""));
  // The parsed request is answered...
  auto first = hostile->Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->ok());
  EXPECT_EQ(first->payload, harness.collection().doc(0));
  // ...the poison draws one kError frame...
  auto second = hostile->Receive();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->type, MessageType::kError);
  EXPECT_EQ(second->code, WireCode::kInvalidArgument);
  // ...and then the connection is gone.
  auto third = hostile->Receive();
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  // The healthy connection never notices.
  auto doc = healthy->Get(1);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(1));
  EXPECT_GE(harness.server().stats().protocol_errors, 1u);
}

TEST(DocServerTest, GarbageFloodsNeverCrash) {
  ServerHarness harness;
  Rng rng(77);
  for (int round = 0; round < 8; ++round) {
    auto client = harness.Connect();
    std::string junk(512, '\0');
    for (auto& c : junk) c = static_cast<char>(rng.Next());
    client->SendRaw(junk);
    // Whatever the junk decoded as, the server answers with frames or a
    // close — never a hang or a crash. Drain until the close.
    for (int i = 0; i < 64; ++i) {
      if (!client->Receive().ok()) break;
    }
  }
  // The server is still alive and serving.
  auto client = harness.Connect();
  auto doc = client->Get(0);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(0));
}

TEST(DocServerTest, BackpressurePausesReadsAndLosesNothing) {
  // Tiny outbound bound and pipelining cap: a deep burst must trip both
  // forms of backpressure, yet every response arrives intact and in
  // order once the client starts draining.
  DocServerOptions options;
  options.max_outbound_bytes = 1;      // clamps to the 4 KB floor
  options.max_pipelined_requests = 4;
  ServerHarness harness(options);
  EXPECT_EQ(harness.server().options().max_outbound_bytes, 4u << 10);
  auto client = harness.Connect();
  constexpr size_t kBurst = 64;
  for (size_t i = 0; i < kBurst; ++i) {
    client->SendGet(i % harness.collection().num_docs());
  }
  ASSERT_TRUE(client->Flush().ok());
  for (size_t i = 0; i < kBurst; ++i) {
    auto doc = client->Receive();
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_TRUE(doc->ok());
    EXPECT_EQ(doc->payload,
              harness.collection().doc(i % harness.collection().num_docs()))
        << "response " << i;
  }
  EXPECT_GE(harness.server().stats().reads_paused, 1u);
}

TEST(DocServerTest, DrainAnswersEverythingParsed) {
  ServerHarness harness;
  auto client = harness.Connect();
  constexpr size_t kBurst = 32;
  std::vector<uint64_t> ids = {0, 1, 2};
  for (size_t i = 0; i < kBurst; ++i) client->SendMultiGet(ids);
  ASSERT_TRUE(client->Flush().ok());
  // Shutdown races the in-flight burst: every request the server had
  // parsed must still be answered (correctly) before the close.
  harness.server().Shutdown();
  size_t answered = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    auto response = client->Receive();
    if (!response.ok()) break;
    ASSERT_TRUE(response->ok());
    ASSERT_EQ(response->elements.size(), ids.size());
    for (size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(response->elements[k].bytes,
                harness.collection().doc(ids[k]));
    }
    ++answered;
  }
  // No hard lower bound (the race decides how much was parsed), but the
  // server must have closed cleanly either way.
  auto after = client->Receive();
  EXPECT_FALSE(after.ok());
  SUCCEED() << answered << " of " << kBurst << " answered before close";
}

TEST(DocServerTest, ShutdownIsIdempotent) {
  ServerHarness harness;
  auto client = harness.Connect();
  ASSERT_TRUE(client->Get(0).ok());
  harness.server().Shutdown();
  harness.server().Shutdown();  // second call: no-op, no deadlock
}

TEST(DocServerTest, StatCarriesServiceAndNetworkCounters) {
  ServerHarness harness;
  auto client = harness.Connect();
  for (uint64_t id = 0; id < 5; ++id) ASSERT_TRUE(client->Get(id).ok());
  auto stats = client->Stat();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->U64("archive.docs"), harness.collection().num_docs());
  EXPECT_EQ(stats->U64("serve.num_threads"), 4u);
  EXPECT_GE(stats->U64("serve.requests"), 5u);
  EXPECT_GE(stats->U64("net.frames_received"), 6u);  // 5 Gets + the Stat
  EXPECT_GE(stats->U64("net.frames_sent"), 5u);
  EXPECT_EQ(stats->U64("net.connections_active"), 1u);
  EXPECT_GE(stats->U64("net.batches"), 1u);
  EXPECT_GE(stats->U64("net.coalesced_requests"), 5u);
  EXPECT_GT(stats->U64("net.bytes_received"), 0u);
  EXPECT_GT(stats->U64("net.bytes_sent"), 0u);
  EXPECT_EQ(stats->U64("serve.cache.capacity_bytes"),
            harness.service().Stats().cache.capacity_bytes);
  // The wire stats agree with the in-process service view.
  const ServiceStats direct = harness.service().Stats();
  EXPECT_GE(direct.requests, stats->U64("serve.requests") - 1);

  // Every field of both stats structs is on the wire under its
  // ForEachField name, with its kind, plus the archive's document count;
  // nothing else is. Each list has one entry per eight-byte field
  // (num_threads pads to eight), so a dropped entry fails too.
  std::set<std::string> want = {"archive.docs"};
  std::map<std::string, StatKind> want_kind = {
      {"archive.docs", StatKind::kU64}};
  size_t fields = 0;
  const auto expect = [&](const char* name, auto value) {
    ++fields;
    EXPECT_TRUE(want.insert(name).second) << "field list repeats " << name;
    want_kind[name] = std::is_floating_point_v<decltype(value)>
                          ? StatKind::kF64
                          : StatKind::kU64;
  };
  ServiceStats().ForEachField(expect);
  EXPECT_EQ(fields * sizeof(uint64_t), sizeof(ServiceStats));
  fields = 0;
  NetServerStats().ForEachField(expect);
  EXPECT_EQ(fields * sizeof(uint64_t), sizeof(NetServerStats));
  std::set<std::string> got;
  for (const StatEntry& e : stats->entries) {
    got.insert(e.name);
    EXPECT_EQ(e.kind, want_kind[e.name]) << e.name;
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), stats->entries.size());
  EXPECT_TRUE(got.count("serve.cached"));
  EXPECT_TRUE(got.count("serve.cache.capacity_bytes"));
}

// ---------------------------------------------------------------------------
// Overload protection end to end (DESIGN.md §14): wire priorities,
// parse-time shedding, client deadlines, and slow-client reaping.

TEST(DocServerTest, PriorityAndDeadlineTravelEndToEnd) {
  ServerHarness harness;
  NetClientOptions options;
  options.priority = RequestPriority::kHigh;
  options.deadline_ms = 5000;  // generous: exercises the wire, not expiry
  auto client = harness.Connect(options);
  auto doc = client->Get(3);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(3));
  EXPECT_GE(harness.server().stats().high_priority_frames, 1u);
  // Best-effort under light load is served normally, and counted.
  options.priority = RequestPriority::kBestEffort;
  options.deadline_ms = 0;
  auto bulk = harness.Connect(options);
  auto bulk_doc = bulk->Get(4);
  ASSERT_TRUE(bulk_doc.ok()) << bulk_doc.status().ToString();
  EXPECT_EQ(*bulk_doc, harness.collection().doc(4));
  EXPECT_GE(harness.server().stats().best_effort_frames, 1u);
}

TEST(DocServerTest, BestEffortBudgetShedsInOrderWithRetryAfter) {
  // A per-connection best-effort budget of one: a pipelined burst must
  // draw sheds (kUnavailable + retry-after) while every response — shed
  // or served — arrives in request order.
  DocServerOptions options;
  options.max_best_effort_per_conn = 1;
  ServerHarness harness(options);
  NetClientOptions client_options;
  client_options.priority = RequestPriority::kBestEffort;
  auto client = harness.Connect(client_options);
  constexpr size_t kBurst = 8;
  for (size_t i = 0; i < kBurst; ++i) client->SendGet(i);
  ASSERT_TRUE(client->Flush().ok());
  size_t served = 0;
  size_t shed = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->ok()) {
      // Positional pipelining: response i answers request i.
      EXPECT_EQ(response->payload, harness.collection().doc(i))
          << "response " << i;
      ++served;
    } else {
      EXPECT_EQ(response->code, WireCode::kUnavailable);
      EXPECT_GE(response->retry_after_ms, 1u);
      ++shed;
    }
  }
  EXPECT_GE(served, 1u);  // the budgeted request is always served
  EXPECT_GE(shed, 1u);    // a burst of 8 against a budget of 1 must shed
  EXPECT_EQ(served + shed, kBurst);
  EXPECT_GE(harness.server().stats().sheds, shed);
  // The connection itself is healthy: a paced request still works.
  auto doc = client->Get(0);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(0));
}

TEST(DocServerTest, IdleConnectionsReapedNewOnesUnaffected) {
  DocServerOptions options;
  options.idle_timeout_ms = 50;
  ServerHarness harness(options);
  auto idle = harness.Connect();
  // Long past the idle bound (the sweep tick is a fraction of it).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // A connection born after the reap serves normally.
  auto fresh = harness.Connect();
  auto doc = fresh->Get(1);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, harness.collection().doc(1));
  // The idle connection was closed by the server.
  auto dead = idle->Receive();
  EXPECT_FALSE(dead.ok());
  EXPECT_GE(harness.server().stats().idle_closed, 1u);
}

TEST(DocServerTest, SlowLorisReapedHealthyTrafficUnaffected) {
  // The attack the idle clock cannot catch: a partial frame trickled a
  // byte at a time resets activity forever. The header deadline reaps it.
  DocServerOptions options;
  options.header_timeout_ms = 60;
  options.idle_timeout_ms = 10'000;  // armed but far away: must not fire
  ServerHarness harness(options);
  auto healthy = harness.Connect();
  auto loris = harness.Connect();
  // A legal header promising a 1000-byte body (well under the frame
  // bound), then the body trickled one byte at a time — the frame never
  // completes and never turns malformed.
  loris->SendRaw(FrameWithHeader(1000, /*type=*/1, /*flags=*/0, ""));
  ASSERT_TRUE(loris->Flush().ok());
  bool reaped = false;
  for (int i = 0; i < 30 && !reaped; ++i) {
    loris->SendRaw("x");
    (void)loris->Flush();  // fails once the server closes: that's the reap
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    reaped = harness.server().stats().header_timeout_closed > 0;
    // Healthy traffic flows throughout the flood.
    auto doc = healthy->Get(i % 4);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  }
  const NetServerStats stats = harness.server().stats();
  EXPECT_GE(stats.header_timeout_closed, 1u);
  EXPECT_EQ(stats.idle_closed, 0u);
}

TEST(DocServerTest, StalledReaderReapedByWriteStallDeadline) {
  // A client that requests megabytes and never reads: the kernel buffers
  // fill, the server's outbound stops advancing, and the write-stall
  // deadline closes the connection instead of holding the memory forever.
  DocServerOptions options;
  options.write_stall_timeout_ms = 100;
  ServerHarness harness(options);
  auto client = harness.Connect();
  std::vector<uint64_t> ids;
  const size_t num_docs = harness.collection().num_docs();
  for (uint64_t id = 0; id < std::min<size_t>(num_docs, 16); ++id) {
    ids.push_back(id);
  }
  // 64 MultiGets of 16 docs each: megabytes of response payload, far
  // beyond loopback socket buffers, while small enough that the first
  // coalesced batch decodes promptly even on a loaded host (response
  // bytes must reach the outbound buffer before the stall clock arms).
  for (int i = 0; i < 64; ++i) client->SendMultiGet(ids);
  ASSERT_TRUE(client->Flush().ok());
  // Never read. The server must reap the stalled connection.
  for (int waited = 0; waited < 300; ++waited) {
    if (harness.server().stats().write_stall_closed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(harness.server().stats().write_stall_closed, 1u);
  // The server is alive and serving new connections.
  auto fresh = harness.Connect();
  auto doc = fresh->Get(0);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(DocServerTest, OrderHoldsAcrossClassesAndPollRounds) {
  // One connection pipelines requests of every class and kind, Stats and
  // a parse-time shed among them, over two poll rounds: every response
  // answers its own request, in request order, whichever class finishes
  // first.
  DocServerOptions options;
  options.max_best_effort_per_conn = 1;
  ServerHarness harness(options);
  auto client = harness.Connect();
  const Collection& collection = harness.collection();
  RequestOptions normal;
  RequestOptions high;
  high.priority = RequestPriority::kHigh;
  RequestOptions best_effort;
  best_effort.priority = RequestPriority::kBestEffort;
  const std::vector<uint64_t> ids = {0, 1, 4};

  // What each response must be, in request order.
  struct Expected {
    MessageType type;
    WireCode code;
    std::string payload;  // kGet/kGetRange
  };
  std::vector<Expected> expected;
  std::string wire;
  EncodeGetRequest(2, best_effort, &wire);
  expected.push_back({MessageType::kGet, WireCode::kOk,
                      std::string(collection.doc(2))});
  EncodeGetRangeRequest(3, 5, 40, high, &wire);
  expected.push_back({MessageType::kGetRange, WireCode::kOk,
                      std::string(collection.doc(3).substr(5, 40))});
  EncodeStatRequest(/*crc=*/false, &wire);
  expected.push_back({MessageType::kStat, WireCode::kOk, ""});
  EncodeMultiGetRequest(ids.data(), ids.size(), normal, &wire);
  expected.push_back({MessageType::kMultiGet, WireCode::kOk, ""});
  // The first best-effort Get still holds the budget of one: shed.
  EncodeGetRequest(5, best_effort, &wire);
  expected.push_back({MessageType::kGet, WireCode::kUnavailable, ""});
  client->SendRaw(wire);
  ASSERT_TRUE(client->Flush().ok());

  std::vector<NetResponse> responses;
  auto first = client->Receive();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  responses.push_back(std::move(first).value());

  // Second flush, a later poll round: the answered best-effort Get gave
  // its budget back, so this best-effort range is served.
  wire.clear();
  EncodeGetRequest(6, high, &wire);
  expected.push_back({MessageType::kGet, WireCode::kOk,
                      std::string(collection.doc(6))});
  EncodeGetRangeRequest(7, 0, 10, best_effort, &wire);
  expected.push_back({MessageType::kGetRange, WireCode::kOk,
                      std::string(collection.doc(7).substr(0, 10))});
  EncodeStatRequest(/*crc=*/false, &wire);
  expected.push_back({MessageType::kStat, WireCode::kOk, ""});
  EncodeMultiGetRequest(ids.data(), ids.size(), best_effort, &wire);
  expected.push_back({MessageType::kMultiGet, WireCode::kUnavailable, ""});
  client->SendRaw(wire);
  ASSERT_TRUE(client->Flush().ok());
  while (responses.size() < expected.size()) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    responses.push_back(std::move(response).value());
  }

  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    const NetResponse& r = responses[i];
    ASSERT_EQ(r.type, expected[i].type);
    ASSERT_EQ(r.code, expected[i].code) << r.payload;
    if (r.code == WireCode::kUnavailable) {
      EXPECT_GE(r.retry_after_ms, 1u);
    } else if (r.type == MessageType::kStat) {
      EXPECT_EQ(r.stats.U64("archive.docs"), collection.num_docs());
    } else if (r.type == MessageType::kMultiGet) {
      ASSERT_EQ(r.elements.size(), ids.size());
      for (size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(r.elements[k].bytes, collection.doc(ids[k]));
      }
    } else {
      EXPECT_EQ(r.payload, expected[i].payload);
    }
  }
  EXPECT_EQ(harness.server().stats().sheds, 2u);
}

TEST(DocServerTest, AnswersNeverWaitOnAnotherConnectionsDecode) {
  // Connection A's Get is held in a worker by a gated decode. A request
  // on connection B, parsed in a later poll round, must be answered
  // meanwhile: no coalescing window waits for an earlier one to finish.
  const Collection collection = TestCollection(1 << 18, 17);
  auto store = ShardedStore::Build(collection, {});
  GatedArchive gated(store.get(), /*gated_id=*/0);
  DocServiceOptions service_options;
  service_options.num_threads = 2;
  service_options.cache_bytes = 0;
  DocService service(&gated, service_options);
  DocServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  ReleaseOnExit release_on_exit(&gated);

  auto a = NetClient::Connect(server.port());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  (*a)->SendGet(0);
  ASSERT_TRUE((*a)->Flush().ok());
  ASSERT_TRUE(gated.WaitEntered());  // A's op is submitted and decoding

  // The receive deadline turns a server that holds B back into a
  // failure rather than a hang.
  NetClientOptions b_options;
  b_options.deadline_ms = 5000;
  auto b = NetClient::Connect(server.port(), b_options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto doc = (*b)->Get(1);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, collection.doc(1));

  gated.Release();
  auto held = (*a)->Receive();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(held->ok());
  EXPECT_EQ(held->payload, collection.doc(0));
}

TEST(DocServerTest, HitsKeepRequestOrderBehindAHeldMiss) {
  // Connection A pipelines a miss held in a worker, then two cache hits:
  // the hits are ready at parse time but are answered after the miss, in
  // request order. A hit on connection B is answered while A's decode is
  // still held.
  const Collection collection = TestCollection(1 << 18, 17);
  auto store = ShardedStore::Build(collection, {});
  constexpr size_t kHeld = 0;
  constexpr size_t kCached = 1;
  GatedArchive gated(store.get(), kHeld);
  DocServiceOptions service_options;
  service_options.num_threads = 2;
  DocService service(&gated, service_options);
  ASSERT_TRUE(service.Get(kCached).get().ok());  // now cached
  DocServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  ReleaseOnExit release_on_exit(&gated);

  auto a = NetClient::Connect(server.port());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  (*a)->SendGet(kHeld);
  (*a)->SendGetRange(kCached, 3, 50);
  (*a)->SendGet(kCached);
  ASSERT_TRUE((*a)->Flush().ok());
  ASSERT_TRUE(gated.WaitEntered());

  NetClientOptions b_options;
  b_options.deadline_ms = 5000;
  auto b = NetClient::Connect(server.port(), b_options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  auto range = (*b)->GetRange(kCached, 10, 20);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(*range, collection.doc(kCached).substr(10, 20));
  // B's hit and A's two were answered on the loop; only A's miss was
  // submitted.
  EXPECT_EQ(service.Stats().cached, 3u);
  EXPECT_EQ(server.stats().coalesced_requests, 1u);

  gated.Release();
  const std::string expected[] = {
      std::string(collection.doc(kHeld)),
      std::string(collection.doc(kCached).substr(3, 50)),
      std::string(collection.doc(kCached))};
  for (const std::string& want : expected) {
    auto response = (*a)->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->payload;
    EXPECT_EQ(response->payload, want);
  }
}

TEST(DocServerTest, CacheHitsCountOnceAndSkipTheBatch) {
  // Pipelined GetRanges over ids of which some are cached: every request
  // counts once in `requests` and is one cache lookup, hits are answered
  // on the loop, and only the misses reach a submitted batch.
  ServerHarness harness;
  const Collection& collection = harness.collection();
  constexpr size_t kCachedIds = 8;
  std::vector<size_t> warm(kCachedIds);
  for (size_t i = 0; i < kCachedIds; ++i) warm[i] = i;
  for (const GetResult& r : harness.service().MultiGet(warm)) {
    ASSERT_TRUE(r.ok()) << r.status.ToString();
  }
  const ServiceStats before = harness.service().Stats();
  auto client = harness.Connect();
  // Every fourth request asks for an uncached id. A range miss decodes
  // only the range and never fills the cache, so it misses every time.
  constexpr size_t kRequests = 64;
  std::vector<uint64_t> ids;
  size_t misses = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    const bool miss = i % 4 == 3;
    ids.push_back(miss ? kCachedIds + i % 5 : i % kCachedIds);
    misses += miss;
    client->SendGetRange(ids.back(), 2, 30);
  }
  ASSERT_TRUE(client->Flush().ok());
  for (size_t i = 0; i < kRequests; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok()) << response->payload;
    EXPECT_EQ(response->payload, collection.doc(ids[i]).substr(2, 30))
        << "response " << i;
  }
  auto wire = client->Stat();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  const ServiceStats after = harness.service().Stats();
  const size_t hits = kRequests - misses;
  EXPECT_EQ(after.requests - before.requests, kRequests);
  EXPECT_EQ(after.cached - before.cached, hits);
  EXPECT_EQ(after.cache.hits - before.cache.hits, hits);
  EXPECT_EQ(after.cache.misses - before.cache.misses, misses);
  EXPECT_EQ(wire->U64("serve.requests"), after.requests);
  EXPECT_EQ(wire->U64("serve.cached"), after.cached);
  EXPECT_EQ(wire->U64("serve.cache.hits") + wire->U64("serve.cache.misses"),
            before.cache.hits + before.cache.misses + kRequests);
  EXPECT_EQ(wire->U64("net.coalesced_requests"), misses);
}

TEST(DocServerTest, CachedDocumentAfterServiceShutdownIsUnavailable) {
  // A stopped service answers every request Unavailable, cache hits too.
  ServerHarness harness;
  auto client = harness.Connect();
  ASSERT_TRUE(client->Get(2).ok());  // the worker caches it
  ASSERT_TRUE(client->GetRange(2, 0, 8).ok());
  ASSERT_EQ(harness.service().Stats().cached, 1u);
  harness.service().Shutdown();
  EXPECT_EQ(client->Get(2).status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client->GetRange(2, 0, 8).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(harness.service().Stats().cached, 1u);
}

TEST(DocServerTest, DeletedDocumentIsNotAnsweredFromTheCache) {
  // Cached, then deleted: once Delete has returned, a Get or GetRange
  // answers NotFound.
  ServerHarness harness;
  auto client = harness.Connect();
  ASSERT_TRUE(client->Get(5).ok());
  ASSERT_TRUE(client->GetRange(5, 0, 10).ok());
  ASSERT_EQ(harness.service().Stats().cached, 1u);
  ASSERT_TRUE(harness.store().Delete(5).ok());
  EXPECT_EQ(client->Get(5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->GetRange(5, 0, 10).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(harness.service().Stats().cached, 1u);

  // The state a decode racing a Delete leaves for a moment (DoGet caches
  // it, then re-checks liveness): a deleted document still in the cache.
  // With the eviction hook unhooked, Delete leaves doc 6 cached, and only
  // the liveness check at lookup keeps it from being answered.
  ASSERT_TRUE(client->Get(6).ok());
  harness.store().SetEvictionListener(nullptr);
  ASSERT_TRUE(harness.store().Delete(6).ok());
  EXPECT_EQ(client->GetRange(6, 0, 10).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Get(6).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(harness.service().Stats().cached, 1u);
}

TEST(DocServerTest, DecodeHeldAcrossDeleteIsNeverAnsweredFromTheCache) {
  // A's Get decodes the document, then is held across its Delete. When
  // released, the worker caches those pre-delete bytes and only then
  // re-checks liveness and drops them. B asks for the document all along,
  // every request sent after Delete returned: each answer is NotFound.
  const Collection collection = TestCollection(1 << 18, 19);
  auto store = ShardedStore::Build(collection, {});
  constexpr size_t kVictim = 3;
  GatedArchive gated(store.get(), kVictim);
  DocServiceOptions service_options;
  service_options.num_threads = 2;
  DocService service(&gated, service_options);
  DocServer server(&service);
  ASSERT_TRUE(server.Start().ok());
  ReleaseOnExit release_on_exit(&gated);

  auto a = NetClient::Connect(server.port());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  (*a)->SendGet(kVictim);
  ASSERT_TRUE((*a)->Flush().ok());
  ASSERT_TRUE(gated.WaitEntered());
  ASSERT_TRUE(store->Delete(kVictim).ok());

  std::atomic<bool> held_answered{false};
  std::atomic<int> wrong{0};
  std::thread b_thread([&] {
    NetClientOptions b_options;
    b_options.deadline_ms = 5000;
    auto b = NetClient::Connect(server.port(), b_options);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Keep asking until a few rounds after A's answer came back.
    for (int after = 0; after < 20;) {
      if (held_answered.load()) ++after;
      for (int k = 0; k < 8; ++k) {
        if (k % 2 == 0) {
          (*b)->SendGet(kVictim);
        } else {
          (*b)->SendGetRange(kVictim, 0, 16);
        }
      }
      ASSERT_TRUE((*b)->Flush().ok());
      for (int k = 0; k < 8; ++k) {
        auto response = (*b)->Receive();
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        if (response->code != WireCode::kNotFound) wrong.fetch_add(1);
      }
    }
  });
  gated.Release();
  // A's decode started before the Delete: it answers the old bytes.
  auto held = (*a)->Receive();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(held->ok()) << held->payload;
  EXPECT_EQ(held->payload, collection.doc(kVictim));
  held_answered.store(true);
  b_thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(service.Get(kVictim).get().status.code(), StatusCode::kNotFound);
}

TEST(DocServerTest, CachedRangesStayExactUnderAppendsAndDeletes) {
  // The race the loop's cache answers add: connections hammer cached
  // GetRanges and Gets while a writer appends documents and deletes
  // others. Every served byte is the document's own; a deleted id may
  // answer NotFound once its Delete has started, and must once it has
  // returned. Runs under ThreadSanitizer (the `concurrency` label).
  const Collection collection = TestCollection(1 << 18, 23);
  ShardedStoreOptions store_options;
  store_options.num_shards = 2;
  store_options.dict_bytes = 1 << 16;
  store_options.live.tail_seal_bytes = 1 << 15;
  auto store = ShardedStore::Build(collection, store_options);
  const size_t built = store->num_docs();
  DocServiceOptions service_options;
  service_options.num_threads = 2;
  DocService service(store.get(), service_options);
  DocServer server(&service);
  ASSERT_TRUE(server.Start().ok());

  const Collection extra = TestCollection(1 << 15, 24);
  std::vector<std::string> expected;
  for (size_t i = 0; i < built; ++i) expected.emplace_back(collection.doc(i));
  for (size_t i = 0; i < extra.num_docs(); ++i) {
    expected.emplace_back(extra.doc(i));
  }
  std::vector<size_t> warm(built);
  for (size_t i = 0; i < built; ++i) warm[i] = i;
  for (const GetResult& r : service.MultiGet(warm)) ASSERT_TRUE(r.ok());
  // 1: Delete(id) has started; 2: it has returned.
  std::vector<std::atomic<int>> deleted(built);
  for (auto& state : deleted) state.store(0);
  std::atomic<size_t> appended{0};

  std::thread writer([&] {
    for (size_t i = 0; i < extra.num_docs(); ++i) {
      auto id = store->Append(extra.doc(i));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, built + i);
      appended.store(i + 1);
      if (i % 2 == 0 && 5 * i < built) {
        const size_t victim = 5 * i;
        deleted[victim].store(1);
        ASSERT_TRUE(store->Delete(victim).ok());
        deleted[victim].store(2);
      }
    }
  });
  constexpr int kConnections = 3;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      auto client = NetClient::Connect(server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      Rng rng(500 + c);
      struct Sent {
        size_t id, offset;
        int deleted_state;
      };
      std::vector<Sent> sent;
      for (int round = 0; round < 60; ++round) {
        sent.clear();
        const size_t limit = built + appended.load();
        for (int k = 0; k < 8; ++k) {
          const size_t id = rng.Uniform(limit);
          const size_t offset = rng.Uniform(64);
          const int state = id < built ? deleted[id].load() : 0;
          sent.push_back({id, offset, state});
          if (k == 0) {
            (*client)->SendGet(id);
          } else {
            (*client)->SendGetRange(id, offset, 100);
          }
        }
        ASSERT_TRUE((*client)->Flush().ok());
        for (size_t k = 0; k < sent.size(); ++k) {
          auto response = (*client)->Receive();
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          const Sent& s = sent[k];
          const std::string& doc = expected[s.id];
          if (response->ok()) {
            const std::string want =
                k == 0 ? doc
                       : doc.substr(std::min(s.offset, doc.size()), 100);
            if (s.deleted_state == 2 || response->payload != want) {
              wrong.fetch_add(1);
              ADD_FAILURE() << "id " << s.id << " served wrong bytes";
            }
          } else if (response->code != WireCode::kNotFound ||
                     s.id >= built || deleted[s.id].load() == 0) {
            wrong.fetch_add(1);
            ADD_FAILURE() << "id " << s.id << ": "
                          << WireCodeToString(response->code);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(service.Stats().cached, 0u);
  server.Shutdown();
  service.Shutdown();
}

TEST(NetClientTest, HungServerSurfacesDeadlineExceeded) {
  // A listener that never answers (connections sit in the accept
  // backlog): the client's receive deadline must fire instead of
  // blocking forever.
  uint16_t port = 0;
  auto listener = ListenLoopback(0, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  NetClientOptions options;
  options.deadline_ms = 100;
  auto client = NetClient::Connect(port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  auto doc = (*client)->Get(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kDeadlineExceeded)
      << doc.status().ToString();
  // Fired in deadline time, not TCP-timeout time.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// ---------------------------------------------------------------------------
// The BatchItem submission path the server's loop uses (mixed whole-doc
// and range requests in one ServeBatch).

TEST(DocServiceBatchItemTest, MixedItemsMatchDirectCalls) {
  const Collection collection = TestCollection(1 << 20, 13);
  ShardedStoreOptions store_options;
  store_options.num_shards = 4;
  store_options.dict_bytes = collection.size_bytes() / 64;
  auto store = ShardedStore::Build(collection, store_options);
  DocServiceOptions service_options;
  service_options.num_threads = 4;
  DocService service(store.get(), service_options);

  std::vector<BatchItem> items;
  BatchItem whole;
  whole.id = 2;
  items.push_back(whole);
  BatchItem range;
  range.id = 5;
  range.offset = 3;
  range.length = 40;
  range.is_range = true;
  items.push_back(range);
  BatchItem bogus;
  bogus.id = collection.num_docs() + 9;
  items.push_back(bogus);

  ServeBatch batch;
  service.SubmitBatch(items.data(), items.size(), &batch);
  const std::vector<GetResult>& results = batch.Wait();
  ASSERT_EQ(results.size(), items.size());
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0].text, collection.doc(2));
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(*results[1].text, collection.doc(5).substr(3, 40));
  EXPECT_FALSE(results[2].ok());

  // The live-backlog gauge exists and settles to zero once drained.
  service.Drain();
  EXPECT_EQ(service.Stats().queued, 0u);
  service.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace rlz

// Wire-protocol conformance suite (DESIGN.md §16).
//
// Pins the gorderd v1 wire format with byte-level golden vectors: every
// opcode's request frame, the response frame, both handshake directions
// and the error body are asserted against hand-written byte sequences,
// so an accidental layout change (field order, width, endianness) fails
// here before it can ship an incompatible daemon. The decode direction
// covers every DecodeResult and every error class a frame can provoke.

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/gorder_lib.h"

namespace gorder::serve {
namespace {

/// Builds a byte string from integer literals (values must fit a byte).
std::string Bytes(std::initializer_list<unsigned> bytes) {
  std::string out;
  out.reserve(bytes.size());
  for (unsigned b : bytes) {
    EXPECT_LT(b, 256u);
    out.push_back(static_cast<char>(static_cast<unsigned char>(b)));
  }
  return out;
}

std::string HexDump(const std::string& s) {
  std::string out;
  char buf[4];
  for (unsigned char c : s) {
    std::snprintf(buf, sizeof(buf), "%02x ", c);
    out += buf;
  }
  return out;
}

/// EXPECT_EQ on byte strings with a hex diff on failure.
void ExpectBytes(const std::string& got, const std::string& want) {
  EXPECT_EQ(HexDump(got), HexDump(want));
}

DecodeResult Decode(const std::string& frame, Request* out,
                    std::string* error = nullptr, std::size_t* consumed_out = nullptr) {
  std::size_t consumed = 0;
  DecodeResult d =
      DecodeRequest(reinterpret_cast<const std::byte*>(frame.data()),
                    frame.size(), &consumed, out, error);
  if (consumed_out != nullptr) *consumed_out = consumed;
  return d;
}

// ---- Handshake golden vectors ----

TEST(ServeProtocol, HandshakeGolden) {
  std::string hello;
  AppendHandshake(&hello);
  // "GRD1" little-endian magic, then version 1.
  ExpectBytes(hello, Bytes({'G', 'R', 'D', '1', 0x01, 0x00, 0x00, 0x00}));
  EXPECT_EQ(hello.size(), kHandshakeBytes);

  std::string accepted, rejected;
  AppendHandshakeAck(&accepted, true);
  AppendHandshakeAck(&rejected, false);
  ExpectBytes(accepted, Bytes({'G', 'R', 'D', '1', 0x01, 0x00, 0x00, 0x00}));
  // A rejection echoes the magic with version 0.
  ExpectBytes(rejected, Bytes({'G', 'R', 'D', '1', 0x00, 0x00, 0x00, 0x00}));
}

// ---- Request golden vectors, one per opcode ----

TEST(ServeProtocol, PingRequestGolden) {
  Request req;
  req.id = 0x0102030405060708ull;
  req.opcode = Opcode::kPing;
  std::string frame;
  AppendRequest(&frame, req);
  ExpectBytes(frame,
              Bytes({0x0c, 0x00, 0x00, 0x00,                    // len = 12
                     0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id
                     0x01, 0x00,                                // opcode
                     0x00, 0x00}));                             // reserved
  Request back;
  ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.opcode, Opcode::kPing);
}

TEST(ServeProtocol, InfoShutdownAndStatsRequestGolden) {
  for (auto op : {Opcode::kInfo, Opcode::kShutdown, Opcode::kStats}) {
    Request req;
    req.id = 1;
    req.opcode = op;
    std::string frame;
    AppendRequest(&frame, req);
    ExpectBytes(frame,
                Bytes({0x0c, 0x00, 0x00, 0x00,  //
                       0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       static_cast<unsigned>(op), 0x00,  //
                       0x00, 0x00}));
    Request back;
    ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
    EXPECT_EQ(back.opcode, op);
  }
}

TEST(ServeProtocol, NodeQueryRequestGolden) {
  // kDegree/kNeighbors/kBfs/kSp share the u32-node body.
  for (auto op :
       {Opcode::kDegree, Opcode::kNeighbors, Opcode::kBfs, Opcode::kSp}) {
    Request req;
    req.id = 0xAB;
    req.opcode = op;
    req.node = 0x00012345;
    std::string frame;
    AppendRequest(&frame, req);
    ExpectBytes(frame,
                Bytes({0x10, 0x00, 0x00, 0x00,  // len = 16
                       0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       static_cast<unsigned>(op), 0x00,  //
                       0x00, 0x00,                       //
                       0x45, 0x23, 0x01, 0x00}));        // node
    Request back;
    ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
    EXPECT_EQ(back.opcode, op);
    EXPECT_EQ(back.node, 0x00012345u);
  }
}

TEST(ServeProtocol, PageRankTopKRequestGolden) {
  Request req;
  req.id = 2;
  req.opcode = Opcode::kPageRankTopK;
  req.k = 3;
  req.iterations = 20;
  std::string frame;
  AppendRequest(&frame, req);
  ExpectBytes(frame,
              Bytes({0x14, 0x00, 0x00, 0x00,  // len = 20
                     0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x07, 0x00,               // opcode
                     0x00, 0x00,               //
                     0x03, 0x00, 0x00, 0x00,   // k
                     0x14, 0x00, 0x00, 0x00}));  // iterations
  Request back;
  ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
  EXPECT_EQ(back.k, 3u);
  EXPECT_EQ(back.iterations, 20u);
}

TEST(ServeProtocol, OrderRequestGolden) {
  Request req;
  req.id = 7;
  req.opcode = Opcode::kOrder;
  req.method = "BOBA";
  req.seed = 42;
  req.num_nodes = 3;
  req.edges = {{0, 1}, {1, 2}};
  std::string frame;
  AppendRequest(&frame, req);
  ExpectBytes(
      frame,
      Bytes({0x32, 0x00, 0x00, 0x00,  // len = 12 + 38 = 50
             0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // id
             0x08, 0x00,                                      // opcode
             0x00, 0x00,                                      // reserved
             0x04, 0x00,                                      // method_len
             'B', 'O', 'B', 'A',                              //
             0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seed
             0x03, 0x00, 0x00, 0x00,                          // num_nodes
             0x02, 0x00, 0x00, 0x00,                          // num_edges
             0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,  // edge 0->1
             0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00}));  // edge 1->2
  Request back;
  ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
  EXPECT_EQ(back.method, "BOBA");
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.num_nodes, 3u);
  EXPECT_EQ(back.edges, req.edges);
}

TEST(ServeProtocol, SwapPackRequestGolden) {
  Request req;
  req.id = 9;
  req.opcode = Opcode::kSwapPack;
  req.pack_path = "/p.gpack";
  std::string frame;
  AppendRequest(&frame, req);
  ExpectBytes(frame,
              Bytes({0x16, 0x00, 0x00, 0x00,  // len = 12 + 10 = 22
                     0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x09, 0x00,  //
                     0x00, 0x00,  //
                     0x08, 0x00,  // path_len
                     '/', 'p', '.', 'g', 'p', 'a', 'c', 'k'}));
  Request back;
  ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
  EXPECT_EQ(back.pack_path, "/p.gpack");
}

// ---- kStats reply body golden vector ----

TEST(ServeProtocol, StatsBodyGolden) {
  // `u32 json_len | json bytes` — the kStats reply body carried inside
  // the standard response frame.
  ExpectBytes(EncodeStatsBody("{\"a\":1}"),
              Bytes({0x07, 0x00, 0x00, 0x00,  // json_len = 7
                     '{', '"', 'a', '"', ':', '1', '}'}));
  std::string body = EncodeStatsBody("{\"a\":1}");
  std::string json;
  ASSERT_TRUE(DecodeStatsBody(reinterpret_cast<const std::byte*>(body.data()),
                              body.size(), &json));
  EXPECT_EQ(json, "{\"a\":1}");
}

TEST(ServeProtocol, StatsBodyDecodeRejectsMalformed) {
  std::string body = EncodeStatsBody("{}");
  std::string json;
  // Truncated length prefix, truncated payload, and trailing garbage.
  for (std::size_t n : {std::size_t{0}, std::size_t{3}, body.size() - 1}) {
    EXPECT_FALSE(
        DecodeStatsBody(reinterpret_cast<const std::byte*>(body.data()), n,
                        &json))
        << "prefix " << n;
  }
  std::string trailing = body + "x";
  EXPECT_FALSE(
      DecodeStatsBody(reinterpret_cast<const std::byte*>(trailing.data()),
                      trailing.size(), &json));
}

// ---- kStats / tracez JSON byte goldens (pure renderers, fixed input) ----

TEST(ServeProtocol, StatsJsonGolden) {
  ServerStatsView view;
  view.epoch = 2;
  view.queue_depth = 3;
  view.in_flight = 1;
  view.connections = 4;
  view.traces_sampled = 7;
  obs::MetricsDump metrics;
  metrics.counters = {{"serve.requests", 100}, {"serve.responses", 99}};
  metrics.gauges = {{"serve.queue_depth", 3}};
  obs::WindowedDump win;
  win.name = "serve.req_us.ping";
  win.short_window = {10, 500, 32, 64, 127};
  win.long_window = {60, 3000, 32, 127, 255};
  EXPECT_EQ(
      RenderStatsJson(view, metrics, {win}),
      "{\"schema\":\"gorder-stats\",\"schema_version\":1,"
      "\"epoch\":2,\"queue_depth\":3,\"in_flight\":1,\"connections\":4,"
      "\"traces_sampled\":7,"
      "\"counters\":{\"serve.requests\":100,\"serve.responses\":99},"
      "\"gauges\":{\"serve.queue_depth\":3},"
      "\"windows\":{\"serve.req_us.ping\":{"
      "\"10s\":{\"count\":10,\"sum\":500,\"p50\":32,\"p99\":64,"
      "\"p999\":127},"
      "\"60s\":{\"count\":60,\"sum\":3000,\"p50\":32,\"p99\":127,"
      "\"p999\":255}}}}");
}

TEST(ServeProtocol, TracezJsonGolden) {
  obs::ReqTraceRecord rec;
  rec.trace_id = 64;
  rec.start_us = 1000;
  rec.queue_us = 5;
  rec.exec_us = 40;
  rec.bytes_in = 16;
  rec.bytes_out = 22;
  rec.epoch = 1;
  rec.opcode = static_cast<std::uint16_t>(Opcode::kBfs);
  rec.status = static_cast<std::uint16_t>(Status::kOk);
  rec.slow = true;
  EXPECT_EQ(RenderTracezJson(3, {rec}),
            "{\"schema\":\"gorder-tracez\",\"total_pushed\":3,"
            "\"records\":[{\"trace_id\":64,\"opcode\":\"bfs\","
            "\"status\":\"ok\",\"start_us\":1000,\"queue_us\":5,"
            "\"exec_us\":40,\"bytes_in\":16,\"bytes_out\":22,"
            "\"epoch\":1,\"slow\":true}]}");
  EXPECT_EQ(RenderTracezJson(0, {}),
            "{\"schema\":\"gorder-tracez\",\"total_pushed\":0,"
            "\"records\":[]}");
}

// ---- Response golden vector ----

TEST(ServeProtocol, ResponseGolden) {
  std::string frame;
  AppendResponse(&frame, {5, Status::kOk, 9}, "hi");
  ExpectBytes(frame,
              Bytes({0x16, 0x00, 0x00, 0x00,  // len = 20 + 2 = 22
                     0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // id
                     0x00, 0x00,                                      // status
                     0x00, 0x00,  // reserved
                     0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch
                     'h', 'i'}));

  std::size_t consumed = 0;
  ResponseHeader header;
  const std::byte* body = nullptr;
  std::size_t body_len = 0;
  std::string error;
  ASSERT_EQ(DecodeResponse(reinterpret_cast<const std::byte*>(frame.data()),
                           frame.size(), &consumed, &header, &body, &body_len,
                           &error),
            DecodeResult::kOk);
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(header.id, 5u);
  EXPECT_EQ(header.status, Status::kOk);
  EXPECT_EQ(header.epoch, 9u);
  ASSERT_EQ(body_len, 2u);
  EXPECT_EQ(std::memcmp(body, "hi", 2), 0);
}

TEST(ServeProtocol, ErrorBodyGolden) {
  ExpectBytes(ErrorBody("oops"), Bytes({0x04, 0x00, 'o', 'o', 'p', 's'}));
  // Messages are truncated to what u16 can carry.
  std::string huge(100000, 'x');
  std::string body = ErrorBody(huge);
  EXPECT_EQ(body.size(), 2u + 0xFFFF);
}

// ---- Every opcode and status has a stable name ----

TEST(ServeProtocol, NamesAreStableAndTotal) {
  EXPECT_STREQ(OpcodeName(Opcode::kPing), "ping");
  EXPECT_STREQ(OpcodeName(Opcode::kInfo), "info");
  EXPECT_STREQ(OpcodeName(Opcode::kDegree), "degree");
  EXPECT_STREQ(OpcodeName(Opcode::kNeighbors), "neighbors");
  EXPECT_STREQ(OpcodeName(Opcode::kBfs), "bfs");
  EXPECT_STREQ(OpcodeName(Opcode::kSp), "sp");
  EXPECT_STREQ(OpcodeName(Opcode::kPageRankTopK), "pagerank_topk");
  EXPECT_STREQ(OpcodeName(Opcode::kOrder), "order");
  EXPECT_STREQ(OpcodeName(Opcode::kSwapPack), "swap_pack");
  EXPECT_STREQ(OpcodeName(Opcode::kShutdown), "shutdown");
  EXPECT_STREQ(OpcodeName(Opcode::kStats), "stats");
  EXPECT_STREQ(OpcodeName(static_cast<Opcode>(999)), "?");

  EXPECT_STREQ(StatusName(Status::kOk), "ok");
  EXPECT_STREQ(StatusName(Status::kBadFrame), "bad_frame");
  EXPECT_STREQ(StatusName(Status::kBadOpcode), "bad_opcode");
  EXPECT_STREQ(StatusName(Status::kBadRequest), "bad_request");
  EXPECT_STREQ(StatusName(Status::kTooLarge), "too_large");
  EXPECT_STREQ(StatusName(Status::kOverloaded), "overloaded");
  EXPECT_STREQ(StatusName(Status::kInternal), "internal");
  EXPECT_STREQ(StatusName(Status::kShuttingDown), "shutting_down");
  EXPECT_STREQ(StatusName(static_cast<Status>(999)), "?");
}

// ---- Decode error classes ----

TEST(ServeProtocol, NeedMoreDataOnEveryPrefixOfAValidFrame) {
  Request req;
  req.id = 3;
  req.opcode = Opcode::kDegree;
  req.node = 4;
  std::string frame;
  AppendRequest(&frame, req);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    Request back;
    std::size_t consumed = 1;
    EXPECT_EQ(Decode(frame.substr(0, n), &back, nullptr, &consumed),
              DecodeResult::kNeedMoreData)
        << "prefix length " << n;
    EXPECT_EQ(consumed, 0u) << "prefix length " << n;
  }
  Request back;
  EXPECT_EQ(Decode(frame, &back), DecodeResult::kOk);
}

TEST(ServeProtocol, TooLargeRejectsBeforeLookingAtPayload) {
  // Declared length over the cap, no payload behind it: the declaration
  // alone must be rejected (kNeedMoreData would mean "read 4 GiB more").
  std::string frame;
  PutU32(&frame, kMaxPayloadBytes + 1);
  Request back;
  std::string error;
  EXPECT_EQ(Decode(frame, &back, &error), DecodeResult::kTooLarge);
  EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, BadFrameOnNonzeroReserved) {
  Request req;
  req.id = 3;
  req.opcode = Opcode::kPing;
  std::string frame;
  AppendRequest(&frame, req);
  frame[14] = 0x01;  // reserved lo byte
  Request back;
  std::string error;
  std::size_t consumed = 0;
  EXPECT_EQ(Decode(frame, &back, &error, &consumed), DecodeResult::kBadFrame);
  // The whole frame is consumed so the stream can continue, and the id
  // was readable for the error reply.
  EXPECT_EQ(consumed, frame.size());
  EXPECT_EQ(back.id, 3u);
  EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, BadOpcodeOnUnknownValues) {
  for (unsigned raw : {0u, 12u, 255u, 0xFFFFu}) {
    std::string frame;
    PutU32(&frame, 12);
    PutU64(&frame, 77);                                  // id
    PutU16(&frame, static_cast<std::uint16_t>(raw));     // opcode
    PutU16(&frame, 0);                                   // reserved
    Request back;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(Decode(frame, &back, &error, &consumed), DecodeResult::kBadOpcode)
        << "opcode " << raw;
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(back.id, 77u);
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServeProtocol, BadFrameOnShortBody) {
  // kDegree declares a body one byte short of its u32 node.
  std::string frame;
  PutU32(&frame, 15);
  PutU64(&frame, 1);
  PutU16(&frame, static_cast<std::uint16_t>(Opcode::kDegree));
  PutU16(&frame, 0);
  frame += Bytes({0x01, 0x02, 0x03});
  Request back;
  std::string error;
  EXPECT_EQ(Decode(frame, &back, &error), DecodeResult::kBadFrame);
  EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, BadFrameOnPayloadShorterThanPrefix) {
  std::string frame;
  PutU32(&frame, 11);  // one byte short of the 12-byte request prefix
  frame.append(11, '\0');
  Request back;
  std::string error;
  EXPECT_EQ(Decode(frame, &back, &error), DecodeResult::kBadFrame);
}

TEST(ServeProtocol, BadFrameOnTrailingBytes) {
  Request req;
  req.id = 3;
  req.opcode = Opcode::kNeighbors;
  req.node = 1;
  std::string frame;
  AppendRequest(&frame, req);
  frame += '\0';
  frame[0] = static_cast<char>(frame.size() - 4);  // fix up the length
  Request back;
  std::string error;
  EXPECT_EQ(Decode(frame, &back, &error), DecodeResult::kBadFrame);
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(ServeProtocol, BadFrameOnOrderEdgeCountMismatch) {
  // num_edges claims more data than the payload carries: must be
  // rejected by arithmetic, never by reading out of bounds.
  Request req;
  req.id = 3;
  req.opcode = Opcode::kOrder;
  req.method = "Gorder";
  req.num_nodes = 10;
  req.edges = {{0, 1}};
  std::string frame;
  AppendRequest(&frame, req);
  // Patch num_edges (8 bytes from the end of a 1-edge frame) to 2^28.
  const std::size_t num_edges_at = frame.size() - sizeof(Edge) - 4;
  frame[num_edges_at + 3] = 0x10;
  Request back;
  std::string error;
  EXPECT_EQ(Decode(frame, &back, &error), DecodeResult::kBadFrame);
  EXPECT_NE(error.find("edge count"), std::string::npos);
}

// Regression: an empty destination vector hands WireReader::GetBytes a
// null pointer, and memcpy from or to null is undefined even for zero
// bytes (UBSan stops there). Two decodes reach it: a kOrder request with
// no edges, which the server decodes from client bytes, and a kNeighbors
// reply for a node without out-neighbours, read the way Client::Neighbors
// reads it.
TEST(ServeProtocol, EmptyEdgeListAndNeighborListDecode) {
  Request req;
  req.id = 4;
  req.opcode = Opcode::kOrder;
  req.method = "BOBA";
  req.num_nodes = 5;
  std::string frame;
  AppendRequest(&frame, req);
  Request back;
  ASSERT_EQ(Decode(frame, &back), DecodeResult::kOk);
  EXPECT_EQ(back.num_nodes, 5u);
  EXPECT_TRUE(back.edges.empty());

  std::string body;
  PutU32(&body, 0);  // count, then no ids
  std::string reply;
  AppendResponse(&reply, {6, Status::kOk, 1}, body);
  std::size_t consumed = 0;
  ResponseHeader header;
  const std::byte* reply_body = nullptr;
  std::size_t body_len = 0;
  ASSERT_EQ(DecodeResponse(reinterpret_cast<const std::byte*>(reply.data()),
                           reply.size(), &consumed, &header, &reply_body,
                           &body_len, nullptr),
            DecodeResult::kOk);
  WireReader r(reply_body, body_len);
  std::uint32_t count = 1;
  ASSERT_TRUE(r.GetU32(&count));
  EXPECT_EQ(count, 0u);
  std::vector<NodeId> neighbors(count);
  ASSERT_TRUE(r.GetBytes(neighbors.data(), r.remaining()));
  EXPECT_TRUE(r.exhausted());
}

TEST(ServeProtocol, TwoFramesBackToBackDecodeIndependently) {
  Request a, b;
  a.id = 1;
  a.opcode = Opcode::kPing;
  b.id = 2;
  b.opcode = Opcode::kDegree;
  b.node = 6;
  std::string stream;
  AppendRequest(&stream, a);
  const std::size_t first_len = stream.size();
  AppendRequest(&stream, b);

  Request back;
  std::size_t consumed = 0;
  ASSERT_EQ(Decode(stream, &back, nullptr, &consumed), DecodeResult::kOk);
  EXPECT_EQ(consumed, first_len);
  EXPECT_EQ(back.id, 1u);
  ASSERT_EQ(Decode(stream.substr(consumed), &back, nullptr, &consumed),
            DecodeResult::kOk);
  EXPECT_EQ(back.id, 2u);
  EXPECT_EQ(back.node, 6u);
}

// ---- Fingerprint hash golden values (FNV-1a 64) ----

TEST(ServeProtocol, HashBytes64Golden) {
  EXPECT_EQ(util::Fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);  // offset basis
  EXPECT_EQ(util::Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  std::vector<std::uint32_t> v = {1, 2, 3};
  EXPECT_EQ(HashVector64(v), util::Fnv1a64(v.data(), 12));
  EXPECT_NE(HashVector64(v), HashVector64(std::vector<std::uint32_t>{1, 2}));
}

TEST(ServeProtocol, WireReaderBoundsAreExact) {
  std::string data = Bytes({0x01, 0x02, 0x03, 0x04, 0x05, 0x06});
  WireReader r(reinterpret_cast<const std::byte*>(data.data()), data.size());
  std::uint32_t u32 = 0;
  ASSERT_TRUE(r.GetU32(&u32));
  EXPECT_EQ(u32, 0x04030201u);
  EXPECT_EQ(r.remaining(), 2u);
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.GetU64(&u64));  // only 2 bytes left
  std::uint16_t u16 = 0;
  ASSERT_TRUE(r.GetU16(&u16));
  EXPECT_EQ(u16, 0x0605u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_FALSE(r.GetU16(&u16));
  EXPECT_FALSE(r.Skip(1));
}

}  // namespace
}  // namespace gorder::serve

// Decoder-hardening fuzz for the gorderd wire protocol.
//
// Two layers:
//   1. Pure codec fuzz — random, truncated, bit-flipped and adversarial
//      frames through DecodeRequest/DecodeResponse. The contract under
//      attack: every outcome is a clean DecodeResult, declared sizes are
//      validated BEFORE any allocation (a hostile 4 GiB length prefix
//      must cost nothing), and no input reads out of bounds (the CI
//      fault-injection job runs this suite under ASan).
//   2. Live-socket torture — the same hostile byte streams against a
//      running Server: garbage frames, bad magic, wrong version, frames
//      truncated by disconnect, oversized declarations. After every
//      attack the server must still answer a fresh client's Ping.
//
// Determinism: all "random" bytes come from seeded Rng streams, so a
// failure reproduces from the seed logged in the assertion message.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/gorder_lib.h"

namespace gorder::serve {
namespace {

std::string RandomBytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

/// Decode that must terminate with a sane (result, consumed) pair no
/// matter what the bytes are.
void DecodeMustBeSane(const std::string& frame, std::uint64_t seed) {
  Request req;
  std::string error;
  std::size_t consumed = 0;
  DecodeResult d =
      DecodeRequest(reinterpret_cast<const std::byte*>(frame.data()),
                    frame.size(), &consumed, &req, &error);
  EXPECT_LE(consumed, frame.size()) << "seed " << seed;
  if (d == DecodeResult::kOk) {
    EXPECT_GT(consumed, 0u) << "seed " << seed;
  }
  if (d == DecodeResult::kNeedMoreData || d == DecodeResult::kTooLarge) {
    EXPECT_EQ(consumed, 0u) << "seed " << seed;
  }

  ResponseHeader header;
  const std::byte* body = nullptr;
  std::size_t body_len = 0;
  consumed = 0;
  DecodeResult r =
      DecodeResponse(reinterpret_cast<const std::byte*>(frame.data()),
                     frame.size(), &consumed, &header, &body, &body_len,
                     &error);
  EXPECT_LE(consumed, frame.size()) << "seed " << seed;
  if (r == DecodeResult::kOk) {
    EXPECT_LE(body_len, consumed) << "seed " << seed;
  }
}

std::vector<Request> SampleRequests() {
  std::vector<Request> reqs;
  for (unsigned op = 1; op <= 10; ++op) {
    Request r;
    r.id = 0x1000 + op;
    r.opcode = static_cast<Opcode>(op);
    r.node = 3;
    r.k = 4;
    r.iterations = 10;
    r.method = "Gorder";
    r.seed = 7;
    r.num_nodes = 8;
    r.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    r.pack_path = "/tmp/x.gpack";
    reqs.push_back(std::move(r));
  }
  return reqs;
}

TEST(ServeFuzz, RandomFramesNeverMisbehave) {
  Rng rng(0xF00D);
  for (int iter = 0; iter < 60000; ++iter) {
    DecodeMustBeSane(RandomBytes(rng, rng.Uniform(80)), 0xF00D);
  }
}

TEST(ServeFuzz, RandomFramesWithPlausiblePrefixes) {
  // Random bodies behind a length prefix that matches the buffer, so the
  // decoder gets past framing and into the per-opcode body parsers.
  Rng rng(0xBEEF);
  for (int iter = 0; iter < 60000; ++iter) {
    const std::size_t body = rng.Uniform(70);
    std::string frame;
    PutU32(&frame, static_cast<std::uint32_t>(body));
    frame += RandomBytes(rng, body);
    if (body >= kRequestPrefixBytes && rng.Uniform(2) == 0) {
      // Half the time, force a valid opcode and zero reserved so the
      // body parser itself is the thing being fuzzed.
      frame[12] = static_cast<char>(1 + rng.Uniform(10));
      frame[13] = 0;
      frame[14] = 0;
      frame[15] = 0;
    }
    DecodeMustBeSane(frame, 0xBEEF);
  }
}

TEST(ServeFuzz, EveryTruncationOfEveryOpcodeNeedsMoreData) {
  for (const Request& req : SampleRequests()) {
    std::string frame;
    AppendRequest(&frame, req);
    for (std::size_t n = 0; n < frame.size(); ++n) {
      Request out;
      std::string error;
      std::size_t consumed = 0;
      EXPECT_EQ(DecodeRequest(reinterpret_cast<const std::byte*>(frame.data()),
                              n, &consumed, &out, &error),
                DecodeResult::kNeedMoreData)
          << OpcodeName(req.opcode) << " truncated to " << n;
    }
  }
}

TEST(ServeFuzz, SingleByteCorruptionsNeverMisbehave) {
  Rng rng(0xC0FFEE);
  for (const Request& req : SampleRequests()) {
    std::string frame;
    AppendRequest(&frame, req);
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (int trial = 0; trial < 4; ++trial) {
        std::string mutated = frame;
        mutated[pos] ^= static_cast<char>(1 + rng.Uniform(255));
        DecodeMustBeSane(mutated, 0xC0FFEE);
      }
    }
  }
}

TEST(ServeFuzz, HostileLengthPrefixCostsNothing) {
  // Declared lengths way past the cap, with and without payload bytes
  // behind them: kTooLarge before any allocation, zero consumed.
  for (std::uint32_t declared :
       {kMaxPayloadBytes + 1, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    for (std::size_t behind : {std::size_t{0}, std::size_t{64}}) {
      std::string frame;
      PutU32(&frame, declared);
      frame.append(behind, '\x42');
      Request out;
      std::string error;
      std::size_t consumed = 0;
      EXPECT_EQ(DecodeRequest(reinterpret_cast<const std::byte*>(frame.data()),
                              frame.size(), &consumed, &out, &error),
                DecodeResult::kTooLarge)
          << declared;
      EXPECT_EQ(consumed, 0u);
    }
  }
  // At the cap exactly the declaration is legal framing (just incomplete
  // here) — the boundary must not be off by one.
  std::string frame;
  PutU32(&frame, kMaxPayloadBytes);
  Request out;
  std::string error;
  std::size_t consumed = 0;
  EXPECT_EQ(DecodeRequest(reinterpret_cast<const std::byte*>(frame.data()),
                          frame.size(), &consumed, &out, &error),
            DecodeResult::kNeedMoreData);
}

TEST(ServeFuzz, AdversarialOrderBodies) {
  // Inner size fields (method_len, num_edges) claiming more than the
  // payload carries must fail by arithmetic, not by reading past the
  // buffer or allocating the claimed amount.
  Request base;
  base.id = 1;
  base.opcode = Opcode::kOrder;
  base.method = "BOBA";
  base.num_nodes = 4;
  base.edges = {{0, 1}};
  std::string frame;
  AppendRequest(&frame, base);

  // method_len = 0xFFFF with only a handful of bytes behind it.
  {
    std::string mutated = frame;
    mutated[16] = '\xFF';
    mutated[17] = '\xFF';
    Request out;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(
        DecodeRequest(reinterpret_cast<const std::byte*>(mutated.data()),
                      mutated.size(), &consumed, &out, &error),
        DecodeResult::kBadFrame);
  }
  // num_edges = huge (would be a multi-GiB reserve if trusted).
  {
    std::string mutated = frame;
    const std::size_t num_edges_at = mutated.size() - sizeof(Edge) - 4;
    mutated[num_edges_at + 0] = '\xFF';
    mutated[num_edges_at + 1] = '\xFF';
    mutated[num_edges_at + 2] = '\xFF';
    mutated[num_edges_at + 3] = '\x7F';
    Request out;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(
        DecodeRequest(reinterpret_cast<const std::byte*>(mutated.data()),
                      mutated.size(), &consumed, &out, &error),
        DecodeResult::kBadFrame);
  }
}

TEST(ServeFuzz, ResponseDecoderSurvivesTruncationAndCorruption) {
  std::string frame;
  AppendResponse(&frame, {42, Status::kOk, 3}, std::string(33, 'z'));
  Rng rng(0xABCD);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    ResponseHeader header;
    const std::byte* body = nullptr;
    std::size_t body_len = 0;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeResponse(reinterpret_cast<const std::byte*>(frame.data()),
                             n, &consumed, &header, &body, &body_len, &error),
              DecodeResult::kNeedMoreData);
    std::string mutated = frame;
    mutated[n] ^= static_cast<char>(1 + rng.Uniform(255));
    DecodeMustBeSane(mutated, 0xABCD);
  }
}

// ---- Admin HTTP parser fuzz (pure function; ASan job hammers this) ----

TEST(AdminHttpFuzz, RandomBytesNeverMisbehave) {
  Rng rng(0xAD317);
  for (int iter = 0; iter < 60000; ++iter) {
    const std::string data = RandomBytes(rng, rng.Uniform(96));
    AdminRequest req;
    const AdminParse p = ParseAdminRequest(data, &req);
    if (p == AdminParse::kOk) {
      // A parsed request always carries a sane method and a /-rooted path.
      EXPECT_FALSE(req.method.empty()) << "iter " << iter;
      EXPECT_FALSE(req.path.empty()) << "iter " << iter;
      EXPECT_EQ(req.path[0], '/') << "iter " << iter;
    }
  }
}

TEST(AdminHttpFuzz, EveryPrefixOfAValidRequestNeedsMore) {
  const std::string request =
      "GET /metrics HTTP/1.0\r\nHost: x\r\nAccept: */*\r\n\r\n";
  for (std::size_t n = 0; n < request.size(); ++n) {
    AdminRequest req;
    EXPECT_EQ(ParseAdminRequest(request.substr(0, n), &req),
              AdminParse::kNeedMore)
        << "prefix " << n;
  }
  AdminRequest req;
  ASSERT_EQ(ParseAdminRequest(request, &req), AdminParse::kOk);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
}

TEST(AdminHttpFuzz, OversizedHeadIsRejectedAtTheCap) {
  // No blank line within the cap: must turn into kBad, not kNeedMore
  // (kNeedMore would let a hostile peer grow the buffer forever).
  std::string runaway = "GET /";
  runaway.append(kMaxAdminRequestBytes, 'a');
  AdminRequest req;
  EXPECT_EQ(ParseAdminRequest(runaway, &req), AdminParse::kBad);
}

TEST(AdminHttpFuzz, MalformedRequestLinesAreBad) {
  for (const char* bad :
       {"\r\n\r\n",                        // empty request line
        "GET\r\n\r\n",                     // no path
        "GET  HTTP/1.0\r\n\r\n",           // empty path
        "GET metrics HTTP/1.0\r\n\r\n",    // path not /-rooted
        "GET /a\x01/b HTTP/1.0\r\n\r\n",   // control char in path
        "G\x7f T / HTTP/1.0\r\n\r\n",      // control char in method
        "GET / FTP/9\r\n\r\n"}) {          // not an HTTP version
    AdminRequest req;
    EXPECT_EQ(ParseAdminRequest(bad, &req), AdminParse::kBad) << bad;
  }
  // Bare-LF termination (curl never sends it, netcat users do) is fine.
  AdminRequest req;
  EXPECT_EQ(ParseAdminRequest("GET /healthz HTTP/1.1\n\n", &req),
            AdminParse::kOk);
  EXPECT_EQ(req.path, "/healthz");
}

TEST(AdminHttpFuzz, RouterAlwaysAnswersWellFormedHttp) {
  AdminHandlers handlers;
  handlers.metrics_text = [] { return std::string("m 1\n"); };
  handlers.healthz_text = [] { return std::string("ok\n"); };
  handlers.tracez_json = [] { return std::string("{}"); };
  Rng rng(0x404);
  for (int iter = 0; iter < 20000; ++iter) {
    AdminRequest req;
    req.method = iter % 3 == 0 ? "GET" : RandomBytes(rng, rng.Uniform(8));
    req.path = '/' + RandomBytes(rng, rng.Uniform(24));
    const std::string response = HandleAdminRequest(req, handlers);
    EXPECT_EQ(response.rfind("HTTP/1.0 ", 0), 0u) << "iter " << iter;
    EXPECT_NE(response.find("Content-Length: "), std::string::npos);
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
  }
  // The three real routes, plus query-string stripping.
  AdminRequest req;
  req.method = "GET";
  for (const char* path : {"/metrics", "/healthz", "/tracez",
                           "/metrics?format=prometheus"}) {
    req.path = path;
    EXPECT_NE(HandleAdminRequest(req, handlers).find("200"),
              std::string::npos)
        << path;
  }
}

// ---- Live-socket torture ----

class ServeSocketFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sock_path_ = "/tmp/gorder_serve_fuzz_" + std::to_string(::getpid()) +
                 ".sock";
    std::vector<Edge> edges;
    for (NodeId v = 1; v < 32; ++v) edges.push_back({v / 2, v});
    ServerOptions opts;
    opts.listen.is_unix = true;
    opts.listen.path = sock_path_;
    opts.serve_threads = 2;
    // A random frame can decode as a well-formed kShutdown or kSwapPack;
    // the torture server must not honour either.
    opts.allow_shutdown = false;
    opts.allow_swap = false;
    server_ = std::make_unique<Server>(Graph::FromEdges(32, edges), opts);
    IoResult r = server_->Start();
    ASSERT_TRUE(r.ok) << r.error;
  }

  void TearDown() override { server_->Stop(); }

  /// The liveness probe every attack must leave intact.
  void ExpectServerStillServes() {
    Client client;
    IoResult r = client.Connect(Address(), 10.0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(client.Ping().ok());
  }

  util::NetAddress Address() const {
    util::NetAddress a;
    a.is_unix = true;
    a.path = sock_path_;
    return a;
  }

  /// Raw connect + client hello; returns the socket with the ack already
  /// consumed and validated as `accepted`.
  util::Socket RawHandshake(bool expect_accepted = true) {
    util::Socket s;
    IoResult r = util::ConnectSocket(Address(), &s, 10.0);
    EXPECT_TRUE(r.ok) << r.error;
    std::string hello;
    AppendHandshake(&hello);
    EXPECT_TRUE(util::WriteFull(s, hello.data(), hello.size()).ok);
    char ack[kHandshakeBytes];
    EXPECT_TRUE(util::ReadFull(s, ack, sizeof(ack)).ok);
    std::uint32_t version = 0;
    std::memcpy(&version, ack + 4, 4);
    EXPECT_EQ(version != 0, expect_accepted);
    return s;
  }

  /// Reads one length-prefixed response frame; returns false on EOF.
  bool ReadResponseFrame(const util::Socket& s, ResponseHeader* header) {
    std::uint32_t len = 0;
    bool clean_eof = false;
    if (!util::ReadFull(s, &len, 4, &clean_eof).ok) return false;
    EXPECT_LE(len, kMaxPayloadBytes);
    std::string payload(len, '\0');
    if (!util::ReadFull(s, payload.data(), len).ok) return false;
    std::string full;
    PutU32(&full, len);
    full += payload;
    const std::byte* body = nullptr;
    std::size_t body_len = 0;
    std::string error;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeResponse(reinterpret_cast<const std::byte*>(full.data()),
                             full.size(), &consumed, header, &body, &body_len,
                             &error),
              DecodeResult::kOk)
        << error;
    return true;
  }

  std::string sock_path_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeSocketFuzzTest, BadMagicIsRejectedAndRetired) {
  util::Socket s;
  ASSERT_TRUE(util::ConnectSocket(Address(), &s, 10.0).ok);
  std::string hello;
  PutU32(&hello, 0x58585858u);  // "XXXX", not the magic
  PutU32(&hello, kProtocolVersion);
  ASSERT_TRUE(util::WriteFull(s, hello.data(), hello.size()).ok);
  char ack[kHandshakeBytes];
  ASSERT_TRUE(util::ReadFull(s, ack, sizeof(ack)).ok);
  std::uint32_t version = 1;
  std::memcpy(&version, ack + 4, 4);
  EXPECT_EQ(version, 0u);  // rejected
  // The server closes after a rejection.
  char byte;
  bool clean_eof = false;
  EXPECT_FALSE(util::ReadFull(s, &byte, 1, &clean_eof).ok);
  ExpectServerStillServes();
}

TEST_F(ServeSocketFuzzTest, WrongVersionIsRejected) {
  util::Socket s;
  ASSERT_TRUE(util::ConnectSocket(Address(), &s, 10.0).ok);
  std::string hello;
  PutU32(&hello, kWireMagic);
  PutU32(&hello, 99);
  ASSERT_TRUE(util::WriteFull(s, hello.data(), hello.size()).ok);
  char ack[kHandshakeBytes];
  ASSERT_TRUE(util::ReadFull(s, ack, sizeof(ack)).ok);
  std::uint32_t version = 1;
  std::memcpy(&version, ack + 4, 4);
  EXPECT_EQ(version, 0u);
  ExpectServerStillServes();
}

TEST_F(ServeSocketFuzzTest, DisconnectMidHandshakeAndMidFrame) {
  {  // half a hello, then gone
    util::Socket s;
    ASSERT_TRUE(util::ConnectSocket(Address(), &s, 10.0).ok);
    ASSERT_TRUE(util::WriteFull(s, "GR", 2).ok);
  }
  {  // handshake, then half a length prefix, then gone
    util::Socket s = RawHandshake();
    ASSERT_TRUE(util::WriteFull(s, "\x0c\x00", 2).ok);
  }
  {  // handshake, full prefix, partial payload, then gone
    util::Socket s = RawHandshake();
    std::string partial;
    PutU32(&partial, 12);
    partial += "\x01\x02\x03";
    ASSERT_TRUE(util::WriteFull(s, partial.data(), partial.size()).ok);
  }
  ExpectServerStillServes();
}

TEST_F(ServeSocketFuzzTest, OversizedDeclarationGetsTooLargeThenClose) {
  util::Socket s = RawHandshake();
  std::string frame;
  PutU32(&frame, kMaxPayloadBytes + 1);
  ASSERT_TRUE(util::WriteFull(s, frame.data(), frame.size()).ok);
  ResponseHeader header;
  ASSERT_TRUE(ReadResponseFrame(s, &header));
  EXPECT_EQ(header.status, Status::kTooLarge);
  EXPECT_EQ(header.id, 0u);  // no id was readable
  // Framing is untrusted now: the server closes the connection.
  char byte;
  EXPECT_FALSE(util::ReadFull(s, &byte, 1).ok);
  ExpectServerStillServes();
}

TEST_F(ServeSocketFuzzTest, RandomFrameStormGetsOneReplyPerFrame) {
  Rng rng(0xDEAD);
  util::Socket s = RawHandshake();
  int survived = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t body = rng.Uniform(48);
    std::string frame;
    PutU32(&frame, static_cast<std::uint32_t>(body));
    frame += RandomBytes(rng, body);
    if (body >= kRequestPrefixBytes && rng.Uniform(2) == 0) {
      frame[12] = static_cast<char>(1 + rng.Uniform(10));
      frame[13] = 0;
      frame[14] = 0;
      frame[15] = 0;
    }
    if (!util::WriteFull(s, frame.data(), frame.size()).ok) break;
    ResponseHeader header;
    if (!ReadResponseFrame(s, &header)) break;  // server chose to retire us
    ++survived;
  }
  // Most random frames are answerable errors (kBadFrame / kBadOpcode /
  // kBadRequest), so the stream should survive a decent while.
  EXPECT_GT(survived, 0);
  ExpectServerStillServes();
}

TEST_F(ServeSocketFuzzTest, GarbageFloodViaClientCall) {
  // Client::Call pushes pre-framed bytes and decodes whatever comes
  // back; the server must answer every syntactically framed request.
  Client client;
  ASSERT_TRUE(client.Connect(Address(), 10.0).ok);
  Rng rng(0x5EED);
  for (int iter = 0; iter < 200; ++iter) {
    std::string frame;
    const std::size_t body =
        kRequestPrefixBytes + rng.Uniform(16);  // framed, hostile inside
    PutU32(&frame, static_cast<std::uint32_t>(body));
    frame += RandomBytes(rng, body);
    RawReply reply = client.Call(frame);
    if (!client.connected()) break;  // clean retirement is acceptable
    EXPECT_NE(reply.status, Status::kOk);  // nothing random should succeed
  }
  ExpectServerStillServes();
}

}  // namespace
}  // namespace gorder::serve

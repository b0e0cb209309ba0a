#include "serve/protocol.h"

#include <cstring>

namespace gorder::serve {

static_assert(sizeof(Edge) == 8, "Edge must be two packed u32s (wire format)");

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kInfo: return "info";
    case Opcode::kDegree: return "degree";
    case Opcode::kNeighbors: return "neighbors";
    case Opcode::kBfs: return "bfs";
    case Opcode::kSp: return "sp";
    case Opcode::kPageRankTopK: return "pagerank_topk";
    case Opcode::kOrder: return "order";
    case Opcode::kSwapPack: return "swap_pack";
    case Opcode::kShutdown: return "shutdown";
    case Opcode::kStats: return "stats";
  }
  return "?";
}

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadFrame: return "bad_frame";
    case Status::kBadOpcode: return "bad_opcode";
    case Status::kBadRequest: return "bad_request";
    case Status::kTooLarge: return "too_large";
    case Status::kOverloaded: return "overloaded";
    case Status::kInternal: return "internal";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "?";
}

void PutU16(std::string* out, std::uint16_t v) {
  char buf[2];
  std::memcpy(buf, &v, 2);
  out->append(buf, 2);
}

void PutU32(std::string* out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void PutF64(std::string* out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool WireReader::GetBytes(void* out, std::size_t n) {
  if (len_ - pos_ < n) return false;
  // An empty destination vector hands over a null `out`; memcpy must not
  // see it even for zero bytes.
  if (n > 0) std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::Skip(std::size_t n) {
  if (len_ - pos_ < n) return false;
  pos_ += n;
  return true;
}

bool WireReader::GetU16(std::uint16_t* v) { return GetBytes(v, 2); }
bool WireReader::GetU32(std::uint32_t* v) { return GetBytes(v, 4); }
bool WireReader::GetU64(std::uint64_t* v) { return GetBytes(v, 8); }
bool WireReader::GetF64(double* v) { return GetBytes(v, 8); }

void AppendHandshake(std::string* out) {
  PutU32(out, kWireMagic);
  PutU32(out, kProtocolVersion);
}

void AppendHandshakeAck(std::string* out, bool accepted) {
  PutU32(out, kWireMagic);
  PutU32(out, accepted ? kProtocolVersion : 0);
}

namespace {

std::string EncodeRequestBody(const Request& req) {
  std::string body;
  switch (req.opcode) {
    case Opcode::kPing:
    case Opcode::kInfo:
    case Opcode::kShutdown:
    case Opcode::kStats:
      break;
    case Opcode::kDegree:
    case Opcode::kNeighbors:
    case Opcode::kBfs:
    case Opcode::kSp:
      PutU32(&body, req.node);
      break;
    case Opcode::kPageRankTopK:
      PutU32(&body, req.k);
      PutU32(&body, req.iterations);
      break;
    case Opcode::kOrder: {
      PutU16(&body, static_cast<std::uint16_t>(req.method.size()));
      body.append(req.method);
      PutU64(&body, req.seed);
      PutU32(&body, req.num_nodes);
      PutU32(&body, static_cast<std::uint32_t>(req.edges.size()));
      body.append(reinterpret_cast<const char*>(req.edges.data()),
                  req.edges.size() * sizeof(Edge));
      break;
    }
    case Opcode::kSwapPack:
      PutU16(&body, static_cast<std::uint16_t>(req.pack_path.size()));
      body.append(req.pack_path);
      break;
  }
  return body;
}

}  // namespace

void AppendRequest(std::string* out, const Request& req) {
  const std::string body = EncodeRequestBody(req);
  PutU32(out, static_cast<std::uint32_t>(kRequestPrefixBytes + body.size()));
  PutU64(out, req.id);
  PutU16(out, static_cast<std::uint16_t>(req.opcode));
  PutU16(out, 0);  // reserved
  out->append(body);
}

void AppendResponse(std::string* out, const ResponseHeader& header,
                    const std::string& body) {
  PutU32(out, static_cast<std::uint32_t>(kResponsePrefixBytes + body.size()));
  PutU64(out, header.id);
  PutU16(out, static_cast<std::uint16_t>(header.status));
  PutU16(out, 0);  // reserved
  PutU64(out, header.epoch);
  out->append(body);
}

std::string ErrorBody(const std::string& message) {
  const std::size_t n = std::min<std::size_t>(message.size(), 0xFFFF);
  std::string body;
  PutU16(&body, static_cast<std::uint16_t>(n));
  body.append(message.data(), n);
  return body;
}

namespace {

bool ValidOpcode(std::uint16_t raw) {
  return raw >= static_cast<std::uint16_t>(Opcode::kPing) &&
         raw <= static_cast<std::uint16_t>(Opcode::kStats);
}

DecodeResult Fail(DecodeResult kind, std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
  return kind;
}

}  // namespace

DecodeResult DecodeRequest(const std::byte* data, std::size_t len,
                           std::size_t* consumed, Request* out,
                           std::string* error) {
  *consumed = 0;
  if (len < 4) return DecodeResult::kNeedMoreData;
  std::uint32_t payload_len;
  std::memcpy(&payload_len, data, 4);
  // The cap check comes before *any* use of the declared size: a hostile
  // prefix never drives an allocation or a long read loop.
  if (payload_len > kMaxPayloadBytes) {
    return Fail(DecodeResult::kTooLarge, error,
                "declared payload exceeds kMaxPayloadBytes");
  }
  if (len < 4 + static_cast<std::size_t>(payload_len)) {
    return DecodeResult::kNeedMoreData;
  }
  *consumed = 4 + static_cast<std::size_t>(payload_len);
  if (payload_len < kRequestPrefixBytes) {
    return Fail(DecodeResult::kBadFrame, error,
                "payload shorter than the request prefix");
  }
  WireReader r(data + 4, payload_len);
  std::uint16_t raw_opcode = 0, reserved = 0;
  r.GetU64(&out->id);
  r.GetU16(&raw_opcode);
  r.GetU16(&reserved);
  if (reserved != 0) {
    return Fail(DecodeResult::kBadFrame, error, "reserved field must be zero");
  }
  if (!ValidOpcode(raw_opcode)) {
    return Fail(DecodeResult::kBadOpcode, error, "unknown opcode");
  }
  out->opcode = static_cast<Opcode>(raw_opcode);
  switch (out->opcode) {
    case Opcode::kPing:
    case Opcode::kInfo:
    case Opcode::kShutdown:
    case Opcode::kStats:
      break;
    case Opcode::kDegree:
    case Opcode::kNeighbors:
    case Opcode::kBfs:
    case Opcode::kSp:
      if (!r.GetU32(&out->node)) {
        return Fail(DecodeResult::kBadFrame, error, "truncated node id");
      }
      break;
    case Opcode::kPageRankTopK:
      if (!r.GetU32(&out->k) || !r.GetU32(&out->iterations)) {
        return Fail(DecodeResult::kBadFrame, error, "truncated pagerank body");
      }
      break;
    case Opcode::kOrder: {
      std::uint16_t method_len = 0;
      if (!r.GetU16(&method_len) || r.remaining() < method_len) {
        return Fail(DecodeResult::kBadFrame, error, "truncated method name");
      }
      out->method.resize(method_len);
      r.GetBytes(out->method.data(), method_len);
      std::uint32_t num_edges = 0;
      if (!r.GetU64(&out->seed) || !r.GetU32(&out->num_nodes) ||
          !r.GetU32(&num_edges)) {
        return Fail(DecodeResult::kBadFrame, error, "truncated order header");
      }
      // The declared edge count must account for the remaining bytes
      // exactly — and the remaining bytes are already under the payload
      // cap, so the resize below is bounded by what was actually sent.
      if (static_cast<std::uint64_t>(num_edges) * sizeof(Edge) !=
          r.remaining()) {
        return Fail(DecodeResult::kBadFrame, error,
                    "edge count disagrees with payload size");
      }
      out->edges.resize(num_edges);
      r.GetBytes(out->edges.data(), r.remaining());
      break;
    }
    case Opcode::kSwapPack: {
      std::uint16_t path_len = 0;
      if (!r.GetU16(&path_len) || r.remaining() < path_len) {
        return Fail(DecodeResult::kBadFrame, error, "truncated pack path");
      }
      out->pack_path.resize(path_len);
      r.GetBytes(out->pack_path.data(), path_len);
      break;
    }
  }
  if (!r.exhausted()) {
    return Fail(DecodeResult::kBadFrame, error, "trailing bytes after body");
  }
  return DecodeResult::kOk;
}

DecodeResult DecodeResponse(const std::byte* data, std::size_t len,
                            std::size_t* consumed, ResponseHeader* header,
                            const std::byte** body, std::size_t* body_len,
                            std::string* error) {
  *consumed = 0;
  if (len < 4) return DecodeResult::kNeedMoreData;
  std::uint32_t payload_len;
  std::memcpy(&payload_len, data, 4);
  if (payload_len > kMaxPayloadBytes) {
    return Fail(DecodeResult::kTooLarge, error,
                "declared payload exceeds kMaxPayloadBytes");
  }
  if (len < 4 + static_cast<std::size_t>(payload_len)) {
    return DecodeResult::kNeedMoreData;
  }
  *consumed = 4 + static_cast<std::size_t>(payload_len);
  if (payload_len < kResponsePrefixBytes) {
    return Fail(DecodeResult::kBadFrame, error,
                "payload shorter than the response prefix");
  }
  WireReader r(data + 4, payload_len);
  std::uint16_t raw_status = 0, reserved = 0;
  r.GetU64(&header->id);
  r.GetU16(&raw_status);
  r.GetU16(&reserved);
  r.GetU64(&header->epoch);
  if (reserved != 0) {
    return Fail(DecodeResult::kBadFrame, error, "reserved field must be zero");
  }
  header->status = static_cast<Status>(raw_status);
  *body = data + 4 + kResponsePrefixBytes;
  *body_len = payload_len - kResponsePrefixBytes;
  return DecodeResult::kOk;
}

std::string EncodeStatsBody(const std::string& json) {
  std::string body;
  PutU32(&body, static_cast<std::uint32_t>(json.size()));
  body.append(json);
  return body;
}

bool DecodeStatsBody(const std::byte* body, std::size_t len,
                     std::string* json) {
  WireReader r(body, len);
  std::uint32_t json_len = 0;
  if (!r.GetU32(&json_len) || r.remaining() < json_len) return false;
  json->resize(json_len);
  r.GetBytes(json->data(), json_len);
  return r.exhausted();
}

}  // namespace gorder::serve

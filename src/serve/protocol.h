#ifndef GORDER_SERVE_PROTOCOL_H_
#define GORDER_SERVE_PROTOCOL_H_

/// gorderd wire protocol v1 (DESIGN.md §16).
///
/// Everything here is pure byte-shuffling — no sockets, no allocation
/// beyond the decoded values — so the conformance suite can pin golden
/// frames and the fuzzer can feed adversarial bytes without a live
/// server.
///
/// Connection lifecycle: the client opens a stream socket and sends an
/// 8-byte hello (`magic` + `version`, both little-endian u32). The
/// server answers with the same 8-byte shape; `version == 0` in the
/// reply means "rejected" and the server closes. After an accepted
/// handshake both directions carry length-prefixed frames:
///
///   request  = u32 payload_len | payload
///   payload  = u64 request_id | u16 opcode | u16 reserved(0) | body
///
///   response = u32 payload_len | payload
///   payload  = u64 request_id | u16 status | u16 reserved(0) |
///              u64 epoch | body
///
/// `payload_len` counts the bytes after the length field and is bounded
/// by kMaxPayloadBytes — the decoder rejects larger declarations
/// *before* allocating anything, so a hostile 4 GiB length prefix costs
/// nothing. `request_id` is echoed verbatim (responses may arrive out
/// of order under pipelining). `epoch` identifies the graph snapshot
/// that served the request, which is what makes artifact hot-swaps
/// observable and testable. All integers are little-endian; floats are
/// IEEE-754 binary64 bit patterns.
///
/// Error responses (status != kOk) carry `u16 message_len | message`
/// as their body.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/hash.h"
#include "util/types.h"

namespace gorder::serve {

/// "GRD1" on the wire (little-endian u32).
inline constexpr std::uint32_t kWireMagic = 0x31445247u;
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Hard cap on a declared payload length, request or response. Checked
/// before any allocation; a frame declaring more is answered with
/// kTooLarge and the connection is closed (stream framing can no longer
/// be trusted).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// Fixed payload prefixes (before the opcode-specific body).
inline constexpr std::size_t kRequestPrefixBytes = 12;   // id + op + rsvd
inline constexpr std::size_t kResponsePrefixBytes = 20;  // + epoch
inline constexpr std::size_t kHandshakeBytes = 8;

enum class Opcode : std::uint16_t {
  kPing = 1,          // liveness probe; empty body both ways
  kInfo = 2,          // -> n, m, serve threads, protocol version
  kDegree = 3,        // u32 node -> out_degree, in_degree
  kNeighbors = 4,     // u32 node -> count, out-neighbour ids
  kBfs = 5,           // u32 source -> reached, sum_levels, levels hash
  kSp = 6,            // u32 source -> reached, ecc, rounds, dist hash
  kPageRankTopK = 7,  // u32 k, u32 iters -> total_mass, top-k (node, rank)
  kOrder = 8,         // uploaded edge list -> permutation
  kSwapPack = 9,      // pack path -> publishes new snapshot (epoch bumps)
  kShutdown = 10,     // graceful daemon shutdown
  kStats = 11,        // -> u32 json_len | JSON metrics snapshot
};

enum class Status : std::uint16_t {
  kOk = 0,
  kBadFrame = 1,      // malformed body (short, trailing bytes, reserved!=0)
  kBadOpcode = 2,     // unknown opcode value
  kBadRequest = 3,    // well-formed but unservable (node out of range, ...)
  kTooLarge = 4,      // declared payload over the cap (connection closes)
  kOverloaded = 5,    // admission control: request queue full, try later
  kInternal = 6,      // server-side failure (e.g. swap pack unreadable)
  kShuttingDown = 7,  // daemon is draining; no new work accepted
};

/// Stable names for logs, tests and counter keys ("ping", "ok", ...).
const char* OpcodeName(Opcode op);      // "?" for unknown values
const char* StatusName(Status status);  // "?" for unknown values

/// A decoded request. Only the fields of the active opcode are
/// meaningful.
struct Request {
  std::uint64_t id = 0;
  Opcode opcode = Opcode::kPing;

  NodeId node = 0;               // kDegree/kNeighbors/kBfs/kSp
  std::uint32_t k = 0;           // kPageRankTopK
  std::uint32_t iterations = 0;  // kPageRankTopK
  std::string method;            // kOrder: ordering method name
  std::uint64_t seed = 0;        // kOrder
  NodeId num_nodes = 0;          // kOrder
  std::vector<Edge> edges;       // kOrder
  std::string pack_path;         // kSwapPack
};

struct ResponseHeader {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::uint64_t epoch = 0;
};

// ---- Encoding (appends to `out`; never fails) ----

void AppendHandshake(std::string* out);                 // client hello
void AppendHandshakeAck(std::string* out, bool accepted);  // server reply
void AppendRequest(std::string* out, const Request& req);
/// Encodes a complete response frame with an already-built body.
void AppendResponse(std::string* out, const ResponseHeader& header,
                    const std::string& body);
/// Error-response body: u16 message_len | message (truncated to 64 KiB).
std::string ErrorBody(const std::string& message);

// ---- Little-endian primitives (shared by server/client body codecs) ----

void PutU16(std::string* out, std::uint16_t v);
void PutU32(std::string* out, std::uint32_t v);
void PutU64(std::string* out, std::uint64_t v);
void PutF64(std::string* out, double v);

/// Bounded cursor over a received payload. Get* return false once the
/// reader has over-run or under-run; no partial state is exposed.
class WireReader {
 public:
  WireReader(const std::byte* data, std::size_t len)
      : data_(data), len_(len) {}

  bool GetU16(std::uint16_t* v);
  bool GetU32(std::uint32_t* v);
  bool GetU64(std::uint64_t* v);
  bool GetF64(double* v);
  bool GetBytes(void* out, std::size_t n);
  bool Skip(std::size_t n);
  std::size_t remaining() const { return len_ - pos_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  const std::byte* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// ---- Decoding ----

enum class DecodeResult {
  kOk,            // one frame consumed, *out filled
  kNeedMoreData,  // buffer ends mid-frame; read more and retry
  kBadFrame,      // malformed payload — answer kBadFrame, keep the stream
  kBadOpcode,     // unknown opcode — answer kBadOpcode, keep the stream
  kTooLarge,      // hostile length prefix — answer kTooLarge, close
};

/// Decodes one request frame from `data`. On kOk sets `*consumed` to the
/// full frame size (length field included). On kBadFrame/kBadOpcode the
/// frame is still fully consumed (its declared length is trusted — it
/// passed the cap) so the caller can answer and continue; `*error` gets
/// a diagnostic and, when the prefix was readable, `out->id` carries the
/// request id to echo. Declared sizes are validated against both
/// kMaxPayloadBytes and the actual payload length before any allocation.
DecodeResult DecodeRequest(const std::byte* data, std::size_t len,
                           std::size_t* consumed, Request* out,
                           std::string* error);

/// Splits one response frame into header + body view. Same contract as
/// DecodeRequest; kBadOpcode is never returned.
DecodeResult DecodeResponse(const std::byte* data, std::size_t len,
                            std::size_t* consumed, ResponseHeader* header,
                            const std::byte** body, std::size_t* body_len,
                            std::string* error);

/// kStats response body: `u32 json_len | json` (a UTF-8 JSON document,
/// shape documented in DESIGN.md §17). Length-prefixed rather than
/// "rest of payload" so the body can grow trailing fields compatibly.
std::string EncodeStatsBody(const std::string& json);
/// False on a malformed body (short prefix, length disagreeing with the
/// payload size).
bool DecodeStatsBody(const std::byte* body, std::size_t len,
                     std::string* json);

/// FNV-1a 64 (util::Fnv1a64) over a result vector's bytes — the
/// fingerprint carried in kBfs/kSp responses so clients can assert
/// bit-identity without shipping O(n) arrays.
template <typename T>
std::uint64_t HashVector64(const std::vector<T>& v) {
  return util::Fnv1a64(v.data(), v.size() * sizeof(T));
}

}  // namespace gorder::serve

#endif  // GORDER_SERVE_PROTOCOL_H_

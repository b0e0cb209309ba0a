#include "graph/edgelist_io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <vector>

#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"

namespace gorder {

namespace {

GORDER_FAILPOINT_DEFINE(fp_read_open, "graph.read_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_read_read, "graph.read_edgelist.read");
GORDER_FAILPOINT_DEFINE(fp_read_alloc, "graph.read_edgelist.alloc");
GORDER_FAILPOINT_DEFINE(fp_write_open, "graph.write_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_write_write, "graph.write_edgelist.write");

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Parse state carried from one chunk of text to the next.
struct EdgeTextParse {
  std::vector<Edge> edges;  // the current chunk's edges, in text order
  NodeId max_node = 0;      // largest id seen; valid when saw_node
  bool saw_node = false;
  std::size_t line = 1;              // number of the next line to parse
  const char* error_kind = nullptr;  // null until a line fails to parse
};

/// Appends the edges of the lines in data[0, end) to out->edges. `end`
/// is at a line boundary or the end of the text. Returns false at the
/// first malformed line, with out->line at its number and
/// out->error_kind set.
bool ParseEdgeText(const char* data, std::size_t end, EdgeTextParse* out) {
  std::vector<Edge>& edges = out->edges;
  NodeId max_node = out->max_node;
  bool saw_node = out->saw_node;
  std::size_t line = out->line;
  auto fail = [&](const char* kind) {
    out->line = line;
    out->error_kind = kind;
    return false;
  };
  std::size_t p = 0;
  while (p < end) {
    while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
    if (p < end && (data[p] == '#' || data[p] == '%' || data[p] == '\n' ||
                    data[p] == '\0' || data[p] == '\r')) {
      while (p < end && data[p] != '\n') ++p;
      if (p < end) {  // consume '\n'
        ++p;
        ++line;
      }
      continue;
    }
    if (p >= end) break;  // blank tail with no newline
    std::uint64_t ids[2];
    for (int k = 0; k < 2; ++k) {
      while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
      if (p >= end || data[p] < '0' || data[p] > '9') {
        return fail("malformed edge line");
      }
      std::uint64_t value = 0;
      while (p < end && data[p] >= '0' && data[p] <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(data[p] - '0');
        if (value > 0xFFFFFFFFFULL) value = 0xFFFFFFFFFULL;  // clamp, reject
        ++p;
      }
      ids[k] = value;
    }
    if (ids[0] > 0xFFFFFFFEULL || ids[1] > 0xFFFFFFFEULL) {
      return fail("node id out of 32-bit range");
    }
    const NodeId src = static_cast<NodeId>(ids[0]);
    const NodeId dst = static_cast<NodeId>(ids[1]);
    edges.push_back({src, dst});
    const NodeId hi = std::max(src, dst);
    if (!saw_node || hi > max_node) max_node = hi;
    saw_node = true;
    while (p < end && data[p] != '\n') ++p;  // ignore the rest of the line
    if (p < end) {
      ++p;
      ++line;
    }
  }
  out->max_node = max_node;
  out->saw_node = saw_node;
  out->line = line;
  return true;
}

}  // namespace

IoResult StreamEdgeList(const std::string& path, const EdgeSink& sink,
                        NodeId* max_node, bool* saw_node) {
  if (GORDER_FAILPOINT(fp_read_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoResult::Error("cannot open " + path);

  // Lines are parsed whole: the buffer holds the longest line seen, and
  // grows (rarely) up to this ceiling rather than split a token.
  constexpr std::size_t kMaxLine = 64u << 20;
  std::vector<char> buf;
  auto resize = [&](std::size_t bytes) {
    try {
      GORDER_FAULT_ALLOC(fp_read_alloc);
      buf.resize(bytes);
      return true;
    } catch (const std::bad_alloc&) {
      return false;
    }
  };
  if (!resize(1u << 20)) {
    return IoResult::Error("cannot allocate read buffer for " + path);
  }
  EdgeTextParse parse;
  std::size_t carry = 0;  // bytes of an unfinished line from the last read
  while (true) {
    const std::size_t want = buf.size() - carry;
    // A short count here is legitimate (EOF), so a real error is only
    // detectable via ferror — and an injected fault via the mismatch
    // between the real transfer and the faulted one.
    const std::size_t real = std::fread(buf.data() + carry, 1, want, f.get());
    const std::size_t got = GORDER_FAULT_IO(fp_read_read, want, real);
    if (got != real || std::ferror(f.get())) {
      return IoResult::Error("short read from " + path);
    }
    const std::size_t filled = carry + got;
    const bool eof = got < want;
    // Parse up to the last complete line (or everything at EOF).
    std::size_t region = filled;
    if (!eof) {
      while (region > 0 && buf[region - 1] != '\n') --region;
      if (region == 0) {  // a full buffer without a newline: grow it
        if (buf.size() >= kMaxLine) {
          return IoResult::Error(path + ": line exceeds " +
                                 std::to_string(kMaxLine) + " bytes");
        }
        if (!resize(buf.size() * 2)) {
          return IoResult::Error("cannot allocate read buffer for " + path);
        }
        carry = filled;
        continue;
      }
    }
    parse.edges.clear();
    if (!ParseEdgeText(buf.data(), region, &parse)) {
      return IoResult::Error(path + ":" + std::to_string(parse.line) + ": " +
                             parse.error_kind);
    }
    if (!parse.edges.empty()) {
      if (IoResult r = sink(parse.edges.data(), parse.edges.size()); !r.ok) {
        return r;
      }
    }
    carry = filled - region;
    if (carry > 0) std::memmove(buf.data(), buf.data() + region, carry);
    if (eof) break;
  }
  if (max_node != nullptr) *max_node = parse.max_node;
  if (saw_node != nullptr) *saw_node = parse.saw_node;
  return IoResult::Ok();
}

IoResult ReadEdgeList(const std::string& path, Graph* graph) {
  GORDER_OBS_SPAN(span, "io.read_edgelist");
  std::vector<Edge> edges;
  NodeId max_node = 0;
  bool saw_node = false;
  IoResult r = StreamEdgeList(
      path,
      [&](const Edge* chunk, std::size_t count) {
        edges.insert(edges.end(), chunk, chunk + count);
        return IoResult::Ok();
      },
      &max_node, &saw_node);
  if (!r.ok) return r;
  *graph = Graph::FromEdges(saw_node ? max_node + 1 : 0, std::move(edges));
  return IoResult::Ok();
}

namespace {

/// Appends the decimal form of `v` to `buf` at `pos`.
inline std::size_t AppendU32(char* buf, std::size_t pos, std::uint32_t v) {
  char digits[10];
  int len = 0;
  do {
    digits[len++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (len > 0) buf[pos++] = digits[--len];
  return pos;
}

/// Writes `header`, then one "a b" line per emit(a, b) call that
/// `for_each_pair(emit)` makes, through a ~1MB formatting buffer (one
/// fwrite per buffer, not per line; a line needs at most 22 bytes).
/// Stages + renames like every other artifact writer: a failed or
/// crashed write never leaves a truncated file at the final path.
template <typename ForEachPair>
IoResult WriteIdPairLines(const std::string& path, const std::string& header,
                          const ForEachPair& for_each_pair) {
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_write_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  FilePtr f(std::fopen(tmp.c_str(), "w"));
  if (!f) return IoResult::Error("cannot open " + tmp + " for writing");
  std::vector<char> buf(1 << 20);
  std::size_t pos = 0;
  // After the first failed write `ok` stays false and nothing more is
  // written.
  bool ok = std::fputs(header.c_str(), f.get()) >= 0;
  auto flush = [&] {
    ok = ok && GORDER_FAULT_IO(fp_write_write, pos,
                               std::fwrite(buf.data(), 1, pos, f.get())) ==
                   pos;
    pos = 0;
  };
  for_each_pair([&](NodeId a, NodeId b) {
    if (pos + 24 > buf.size()) flush();
    pos = AppendU32(buf.data(), pos, a);
    buf[pos++] = ' ';
    pos = AppendU32(buf.data(), pos, b);
    buf[pos++] = '\n';
  });
  if (pos > 0) flush();
  ok = ok && util::FlushAndSync(f.get());
  f.reset();
  if (!ok) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  }
  return util::CommitStagedFile(tmp, path);
}

}  // namespace

IoResult WriteEdgeList(const std::string& path, const Graph& graph) {
  GORDER_OBS_SPAN(span, "io.write_edgelist");
  char header[80];
  std::snprintf(header, sizeof(header),
                "# Directed graph: %u nodes, %" PRIu64 " edges\n",
                graph.NumNodes(), graph.NumEdges());
  return WriteIdPairLines(path, header, [&graph](const auto& emit) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      for (NodeId w : graph.OutNeighbors(v)) emit(v, w);
    }
  });
}

IoResult WritePermutationMap(const std::string& path,
                             const std::vector<NodeId>& perm) {
  return WriteIdPairLines(path, "# old_id new_id\n",
                          [&perm](const auto& emit) {
                            for (NodeId v = 0; v < perm.size(); ++v) {
                              emit(v, perm[v]);
                            }
                          });
}

}  // namespace gorder

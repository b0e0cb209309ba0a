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
#include "util/parallel.h"

namespace gorder {

namespace {

GORDER_FAILPOINT_DEFINE(fp_read_open, "graph.read_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_read_stat, "graph.read_edgelist.stat");
GORDER_FAILPOINT_DEFINE(fp_read_read, "graph.read_edgelist.read");
GORDER_FAILPOINT_DEFINE(fp_read_alloc, "graph.read_edgelist.alloc");
GORDER_FAILPOINT_DEFINE(fp_write_open, "graph.write_edgelist.open");
GORDER_FAILPOINT_DEFINE(fp_write_write, "graph.write_edgelist.write");
GORDER_FAILPOINT_DEFINE(fp_wbin_open, "graph.write_binary.open");
GORDER_FAILPOINT_DEFINE(fp_wbin_write, "graph.write_binary.write");
GORDER_FAILPOINT_DEFINE(fp_rbin_open, "graph.read_binary.open");
GORDER_FAILPOINT_DEFINE(fp_rbin_stat, "graph.read_binary.stat");
GORDER_FAILPOINT_DEFINE(fp_rbin_read, "graph.read_binary.read");
GORDER_FAILPOINT_DEFINE(fp_rbin_alloc, "graph.read_binary.alloc");

constexpr char kBinaryMagic[8] = {'G', 'O', 'R', 'D', 'E', 'R', '0', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::size_t LineNumberAt(const std::vector<char>& data, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(data.begin(),
                            data.begin() + static_cast<std::ptrdiff_t>(offset),
                            '\n'));
}

}  // namespace

bool ParseEdgeText(const char* data, std::size_t begin, std::size_t end,
                   EdgeTextParse* out) {
  std::vector<Edge>& edges = out->edges;
  NodeId max_node = out->max_node;
  bool saw_node = out->saw_node;
  auto fail = [&](std::size_t line_start, const char* kind) {
    out->error_offset = line_start;
    out->error_kind = kind;
    return false;
  };
  std::size_t p = begin;
  while (p < end) {
    const std::size_t line_start = p;
    while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
    if (p < end && (data[p] == '#' || data[p] == '%' || data[p] == '\n' ||
                    data[p] == '\0' || data[p] == '\r')) {
      while (p < end && data[p] != '\n') ++p;
      if (p < end) ++p;  // consume '\n'
      continue;
    }
    if (p >= end) break;  // blank tail with no newline
    std::uint64_t ids[2];
    for (int k = 0; k < 2; ++k) {
      while (p < end && (data[p] == ' ' || data[p] == '\t')) ++p;
      if (p >= end || data[p] < '0' || data[p] > '9') {
        return fail(line_start, "malformed edge line");
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
      return fail(line_start, "node id out of 32-bit range");
    }
    const NodeId src = static_cast<NodeId>(ids[0]);
    const NodeId dst = static_cast<NodeId>(ids[1]);
    edges.push_back({src, dst});
    const NodeId hi = std::max(src, dst);
    if (!saw_node || hi > max_node) max_node = hi;
    saw_node = true;
    while (p < end && data[p] != '\n') ++p;  // ignore the rest of the line
    if (p < end) ++p;
  }
  out->max_node = max_node;
  out->saw_node = saw_node;
  return true;
}

IoResult ReadEdgeList(const std::string& path, Graph* graph) {
  GORDER_OBS_SPAN(span, "io.read_edgelist");
  if (GORDER_FAILPOINT(fp_read_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoResult::Error("cannot open " + path);
  if (GORDER_FAILPOINT(fp_read_stat) != util::FaultKind::kNone ||
      std::fseek(f.get(), 0, SEEK_END) != 0) {
    return IoResult::Error("cannot seek " + path);
  }
  long size = std::ftell(f.get());
  if (size < 0) return IoResult::Error("cannot stat " + path);
  std::rewind(f.get());
  std::vector<char> data;
  try {
    GORDER_FAULT_ALLOC(fp_read_alloc);
    data.resize(static_cast<std::size_t>(size));
  } catch (const std::bad_alloc&) {
    return IoResult::Error("cannot allocate " + std::to_string(size) +
                           " bytes reading " + path);
  }
  if (!data.empty() &&
      GORDER_FAULT_IO(fp_read_read, data.size(),
                      std::fread(data.data(), 1, data.size(), f.get())) !=
          data.size()) {
    return IoResult::Error("short read from " + path);
  }
  f.reset();

  // Split into chunks at line boundaries; each chunk parses into a local
  // buffer, merged in file order below, so the edge sequence (and the
  // graph) is independent of the chunk count and thread schedule.
  const int threads = NumThreads();
  const std::size_t want_chunks =
      threads == 1 ? 1
                   : std::min<std::size_t>(static_cast<std::size_t>(threads) * 4,
                                           std::max<std::size_t>(
                                               data.size() / (1 << 16), 1));
  std::vector<std::size_t> bounds;  // chunk i is [bounds[i], bounds[i+1])
  bounds.push_back(0);
  const std::size_t stride = data.size() / want_chunks + 1;
  for (std::size_t c = 1; c < want_chunks; ++c) {
    std::size_t pos = std::min(c * stride, data.size());
    pos = std::max(pos, bounds.back());
    while (pos < data.size() && data[pos] != '\n') ++pos;
    if (pos < data.size()) ++pos;  // start just past the newline
    if (pos > bounds.back()) bounds.push_back(pos);
  }
  bounds.push_back(data.size());

  const std::size_t num_chunks = bounds.size() - 1;
  std::vector<EdgeTextParse> parts(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      ParseEdgeText(data.data(), bounds[c], bounds[c + 1], &parts[c]);
    }
  });

  for (const EdgeTextParse& part : parts) {
    if (part.error_kind != nullptr) {
      return IoResult::Error(path + ":" +
                             std::to_string(LineNumberAt(data, part.error_offset)) +
                             ": " + part.error_kind);
    }
  }

  std::size_t total = 0;
  NodeId num_nodes = 0;
  for (const EdgeTextParse& part : parts) {
    total += part.edges.size();
    if (part.saw_node && part.max_node + 1 > num_nodes) {
      num_nodes = part.max_node + 1;
    }
  }
  std::vector<Edge> edges(total);
  std::size_t pos = 0;
  std::vector<std::size_t> starts(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    starts[c] = pos;
    pos += parts[c].edges.size();
  }
  ParallelFor(0, num_chunks, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      std::copy(parts[c].edges.begin(), parts[c].edges.end(),
                edges.begin() + static_cast<std::ptrdiff_t>(starts[c]));
    }
  });
  *graph = Graph::FromEdges(num_nodes, std::move(edges));
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

}  // namespace

IoResult WriteEdgeList(const std::string& path, const Graph& graph) {
  GORDER_OBS_SPAN(span, "io.write_edgelist");
  // Stage + rename like every other artifact writer: a failed or
  // crashed write never leaves a truncated edge list at the final path.
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_write_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  FilePtr f(std::fopen(tmp.c_str(), "w"));
  if (!f) return IoResult::Error("cannot open " + tmp + " for writing");
  auto fail = [&] {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  };
  if (std::fprintf(f.get(), "# Directed graph: %u nodes, %" PRIu64 " edges\n",
                   graph.NumNodes(), graph.NumEdges()) < 0) {
    return fail();
  }
  // Buffered formatting: one fwrite per ~1MB instead of one fprintf per
  // edge ("src dst\n" needs at most 22 bytes).
  std::vector<char> buf(1 << 20);
  std::size_t pos = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      if (pos + 24 > buf.size()) {
        if (GORDER_FAULT_IO(fp_write_write, pos,
                            std::fwrite(buf.data(), 1, pos, f.get())) != pos) {
          return fail();
        }
        pos = 0;
      }
      pos = AppendU32(buf.data(), pos, v);
      buf[pos++] = ' ';
      pos = AppendU32(buf.data(), pos, w);
      buf[pos++] = '\n';
    }
  }
  if (pos > 0 &&
      GORDER_FAULT_IO(fp_write_write, pos,
                      std::fwrite(buf.data(), 1, pos, f.get())) != pos) {
    return fail();
  }
  if (!util::FlushAndSync(f.get())) return fail();
  f.reset();
  return util::CommitStagedFile(tmp, path);
}

IoResult WriteBinary(const std::string& path, const Graph& graph) {
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_wbin_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return IoResult::Error("cannot open " + tmp + " for writing");
  std::uint64_t n = graph.NumNodes();
  std::uint64_t m = graph.NumEdges();
  auto write_raw = [&](const void* data, std::size_t item_bytes,
                       std::size_t items) {
    return GORDER_FAULT_IO(fp_wbin_write, items,
                           std::fwrite(data, item_bytes, items, f.get())) ==
           items;
  };
  bool ok = write_raw(kBinaryMagic, 1, 8) && write_raw(&n, sizeof n, 1) &&
            write_raw(&m, sizeof m, 1);
  auto write_vec = [&](const auto& v) {
    return v.empty() || write_raw(v.data(), sizeof(v[0]), v.size());
  };
  ok = ok && write_vec(graph.out_offsets()) && write_vec(graph.out_neighbors());
  ok = ok && util::FlushAndSync(f.get());
  if (!ok) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return IoResult::Error("short write to " + tmp);
  }
  f.reset();
  return util::CommitStagedFile(tmp, path);
}

IoResult ReadBinary(const std::string& path, Graph* graph) {
  if (GORDER_FAILPOINT(fp_rbin_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return IoResult::Error("cannot open " + path);
  // File size first: the n/m header fields are untrusted and must be
  // bounded against it before they size any allocation.
  if (GORDER_FAILPOINT(fp_rbin_stat) != util::FaultKind::kNone ||
      std::fseek(f.get(), 0, SEEK_END) != 0) {
    return IoResult::Error("cannot seek " + path);
  }
  const long ssize = std::ftell(f.get());
  if (ssize < 0) return IoResult::Error("cannot stat " + path);
  std::rewind(f.get());
  const auto file_bytes = static_cast<std::uint64_t>(ssize);
  char magic[8];
  std::uint64_t n = 0, m = 0;
  auto read_raw = [&](void* data, std::size_t item_bytes, std::size_t items) {
    return GORDER_FAULT_IO(fp_rbin_read, items,
                           std::fread(data, item_bytes, items, f.get())) ==
           items;
  };
  if (!read_raw(magic, 1, 8) || std::memcmp(magic, kBinaryMagic, 8) != 0) {
    return IoResult::Error(path + ": bad magic (not a gorder binary graph)");
  }
  if (!read_raw(&n, sizeof n, 1) || !read_raw(&m, sizeof m, 1)) {
    return IoResult::Error(path + ": truncated header");
  }
  if (n > 0xFFFFFFFFULL) return IoResult::Error(path + ": node count too big");
  // Bound both counts by what the file could possibly hold before
  // allocating: a crafted header with m near 2^62 would otherwise ask
  // std::vector for a multi-exabyte buffer (bad_alloc at best, OOM kill
  // at worst) before any other check runs. n is capped above, so
  // (n + 1) * sizeof(EdgeId) cannot wrap; m is divided, not multiplied,
  // so the comparison cannot wrap either.
  constexpr std::uint64_t kHeaderBytes = 8 + sizeof n + sizeof m;
  const std::uint64_t payload_bytes =
      file_bytes > kHeaderBytes ? file_bytes - kHeaderBytes : 0;
  const std::uint64_t offsets_bytes = (n + 1) * sizeof(EdgeId);
  if (offsets_bytes > payload_bytes) {
    return IoResult::Error(path + ": node count implausible for file size");
  }
  if (m > (payload_bytes - offsets_bytes) / sizeof(NodeId)) {
    return IoResult::Error(path + ": edge count implausible for file size");
  }
  std::vector<EdgeId> offsets;
  std::vector<NodeId> neigh;
  try {
    GORDER_FAULT_ALLOC(fp_rbin_alloc);
    offsets.resize(n + 1);
    neigh.resize(m);
  } catch (const std::bad_alloc&) {
    return IoResult::Error(path + ": cannot allocate CSR buffers");
  }
  if (!read_raw(offsets.data(), sizeof(EdgeId), offsets.size())) {
    return IoResult::Error(path + ": truncated offsets");
  }
  if (m > 0 && !read_raw(neigh.data(), sizeof(NodeId), neigh.size())) {
    return IoResult::Error(path + ": truncated neighbours");
  }
  if (offsets[0] != 0 || offsets[n] != m) {
    return IoResult::Error(path + ": inconsistent CSR offsets");
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return IoResult::Error(path + ": non-monotone CSR offsets");
    }
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      if (neigh[e] >= n) return IoResult::Error(path + ": neighbour id >= n");
      edges.push_back({static_cast<NodeId>(v), neigh[e]});
    }
  }
  *graph = Graph::FromEdges(static_cast<NodeId>(n), std::move(edges),
                            /*keep_self_loops=*/true,
                            /*keep_duplicates=*/true);
  return IoResult::Ok();
}

}  // namespace gorder

#include "store/gpack.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/fingerprint.h"
#include "store/mapped_file.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/failpoint.h"
#include "util/parallel.h"

namespace gorder::store {

namespace {

GORDER_FAILPOINT_DEFINE(fp_pack_open, "store.pack_write.open");
GORDER_FAILPOINT_DEFINE(fp_pack_write, "store.pack_write.write");
GORDER_FAILPOINT_DEFINE(fp_pack_load_alloc, "store.pack_load.alloc");

// The on-disk layout is little-endian by definition; the structs below
// are written/read as raw bytes, which is only correct on LE hosts.
static_assert(std::endian::native == std::endian::little,
              "gpack I/O assumes a little-endian host");

GORDER_OBS_COUNTER(c_pack_write, "store.pack_write");
GORDER_OBS_COUNTER(c_pack_write_bytes, "store.pack_write_bytes");
GORDER_OBS_COUNTER(c_mmap_load, "store.mmap_load");
GORDER_OBS_COUNTER(c_mmap_load_bytes, "store.mmap_load_bytes");
GORDER_OBS_COUNTER(c_copy_load, "store.copy_load");

constexpr char kMagic[8] = {'G', 'P', 'A', 'C', 'K', 'B', 'I', 'N'};
constexpr std::uint64_t kFlagHasInCsr = 1;
constexpr std::uint32_t kSectionAlign = 64;
constexpr std::uint32_t kMaxSections = 64;

// Section ids, fixed for format version 1.
enum SectionId : std::uint32_t {
  kOutOffsets = 1,
  kOutNeighbors = 2,
  kInOffsets = 3,
  kInNeighbors = 4,
};

struct GpackHeader {
  char magic[8];
  std::uint32_t format_version;
  std::uint32_t header_bytes;
  std::uint64_t flags;
  std::uint64_t num_nodes;
  std::uint64_t num_edges;
  std::uint64_t fingerprint;
  std::uint32_t section_count;
  std::uint32_t header_crc;  // CRC32 of header (this field zeroed) + table
  std::uint8_t reserved[8];
};
static_assert(sizeof(GpackHeader) == 64);

struct GpackSectionEntry {
  std::uint32_t id;
  std::uint32_t item_bytes;
  std::uint64_t offset;
  std::uint64_t bytes;
  std::uint32_t crc32;
  std::uint32_t reserved;
};
static_assert(sizeof(GpackSectionEntry) == 32);

const char* SectionName(std::uint32_t id) {
  switch (id) {
    case kOutOffsets: return "out_offsets";
    case kOutNeighbors: return "out_neighbors";
    case kInOffsets: return "in_offsets";
    case kInNeighbors: return "in_neighbors";
    default: return "unknown";
  }
}

std::uint64_t AlignUp(std::uint64_t v, std::uint64_t a) {
  return (v + a - 1) / a * a;
}

constexpr int kNumSections = 4;

/// The four sections in file order (PackWriter's section index).
struct SectionFormat {
  std::uint32_t id;
  std::uint32_t item_bytes;
  bool offsets;  // n + 1 offsets, else m neighbours
};
constexpr SectionFormat kSections[kNumSections] = {
    {kOutOffsets, sizeof(EdgeId), true},
    {kOutNeighbors, sizeof(NodeId), false},
    {kInOffsets, sizeof(EdgeId), true},
    {kInNeighbors, sizeof(NodeId), false},
};

std::uint64_t SectionItems(int section, std::uint64_t n, std::uint64_t m) {
  return kSections[section].offsets ? n + 1 : m;
}

constexpr std::uint64_t kTableEnd =
    sizeof(GpackHeader) + kNumSections * sizeof(GpackSectionEntry);

/// Where each section's payload starts, and the file size: a section
/// starts at the first 64-byte boundary after the header, the table and
/// the sections before it, and the file ends at the last payload byte.
struct Layout {
  std::uint64_t offset[kNumSections];
  std::uint64_t file_bytes;
};

Layout ComputeLayout(std::uint64_t n, std::uint64_t m) {
  Layout layout = {};
  std::uint64_t end = kTableEnd;
  for (int s = 0; s < kNumSections; ++s) {
    layout.offset[s] = AlignUp(end, kSectionAlign);
    end = layout.offset[s] + SectionItems(s, n, m) * kSections[s].item_bytes;
  }
  layout.file_bytes = end;
  return layout;
}

/// CRC of the header (crc field zeroed) followed by the section table.
std::uint32_t HeaderCrc(GpackHeader header,
                        const std::vector<GpackSectionEntry>& table) {
  header.header_crc = 0;
  std::uint32_t crc = Crc32(&header, sizeof header);
  return table.empty()
             ? crc
             : Crc32(table.data(), table.size() * sizeof(GpackSectionEntry),
                     crc);
}

/// Validated view of a pack file: header, table and section extents all
/// checked against the mapped size. Populated by ParseAndCheck.
struct PackView {
  GpackHeader header;
  std::vector<GpackSectionEntry> table;
  // Section payloads by id (index 0 unused), bounds-checked.
  const std::byte* payload[5] = {};
};

/// Parses and validates everything except the payload CRCs (those are an
/// O(data) scan, done separately so ReadPackInfo stays cheap). Any
/// failure returns a clean diagnostic; no out-of-bounds reads happen on
/// the way (every access is preceded by a size check).
IoResult ParseAndCheck(const std::string& path, const MappedFile& file,
                       PackView* view) {
  const std::byte* base = file.data();
  const std::uint64_t size = file.size();
  if (size < sizeof(GpackHeader)) {
    return IoResult::Error(path + ": truncated gpack (no header)");
  }
  std::memcpy(&view->header, base, sizeof(GpackHeader));
  const GpackHeader& h = view->header;
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    return IoResult::Error(path + ": bad magic (not a gpack file)");
  }
  if (h.format_version != kGpackFormatVersion) {
    return IoResult::Error(
        path + ": gpack format version " + std::to_string(h.format_version) +
        " not supported (this build reads version " +
        std::to_string(kGpackFormatVersion) + ")");
  }
  if (h.header_bytes != sizeof(GpackHeader)) {
    return IoResult::Error(path + ": unexpected header size");
  }
  if (h.section_count == 0 || h.section_count > kMaxSections) {
    return IoResult::Error(path + ": implausible section count");
  }
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(h.section_count) * sizeof(GpackSectionEntry);
  if (size < sizeof(GpackHeader) + table_bytes) {
    return IoResult::Error(path + ": truncated gpack (no section table)");
  }
  view->table.resize(h.section_count);
  std::memcpy(view->table.data(), base + sizeof(GpackHeader),
              static_cast<std::size_t>(table_bytes));
  if (HeaderCrc(h, view->table) != h.header_crc) {
    return IoResult::Error(path + ": header checksum mismatch (corrupt)");
  }
  if (h.num_nodes > 0xFFFFFFFFULL) {
    return IoResult::Error(path + ": node count exceeds 32-bit id space");
  }
  // Bound num_edges by the file size before it enters any size
  // arithmetic: an unchecked 2^62 would wrap `items * item_bytes` below,
  // let zero-length neighbor sections pass, and the CSR scan would then
  // read far past the mapping. (num_nodes is already capped above, so
  // (n + 1) * sizeof(EdgeId) cannot wrap.)
  if (h.num_edges > size / sizeof(NodeId)) {
    return IoResult::Error(path + ": edge count implausible for file size");
  }
  if ((h.flags & kFlagHasInCsr) == 0) {
    return IoResult::Error(path + ": pack lacks the in-CSR (flag unset)");
  }

  for (int s = 0; s < kNumSections; ++s) {
    const SectionFormat& want = kSections[s];
    const std::uint64_t items = SectionItems(s, h.num_nodes, h.num_edges);
    const GpackSectionEntry* entry = nullptr;
    for (const GpackSectionEntry& e : view->table) {
      if (e.id == want.id) {
        if (entry != nullptr) {
          return IoResult::Error(path + ": duplicate section " +
                                 SectionName(want.id));
        }
        entry = &e;
      }
    }
    if (entry == nullptr) {
      return IoResult::Error(path + ": missing section " +
                             SectionName(want.id));
    }
    if (entry->item_bytes != want.item_bytes ||
        entry->bytes != items * want.item_bytes) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " has inconsistent size");
    }
    if (entry->offset % want.item_bytes != 0) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " is misaligned");
    }
    if (entry->offset > size || entry->bytes > size - entry->offset) {
      return IoResult::Error(path + ": section " + SectionName(want.id) +
                             " extends past end of file (truncated?)");
    }
    view->payload[want.id] = base + entry->offset;
  }
  return IoResult::Ok();
}

/// Verifies the payload CRCs of the four CSR sections (parallel across
/// sections).
IoResult CheckSectionCrcs(const std::string& path, const MappedFile& file,
                          const PackView& view) {
  std::atomic<const char*> bad{nullptr};
  auto check = [&](std::uint32_t id) {
    for (const GpackSectionEntry& e : view.table) {
      if (e.id != id) continue;
      if (Crc32(file.data() + e.offset,
                static_cast<std::size_t>(e.bytes)) != e.crc32) {
        bad.store(SectionName(id), std::memory_order_relaxed);
      }
      return;
    }
  };
  ParallelInvoke([&] { check(kOutOffsets); }, [&] { check(kOutNeighbors); },
                 [&] { check(kInOffsets); }, [&] { check(kInNeighbors); });
  if (const char* name = bad.load()) {
    return IoResult::Error(path + ": section " + name +
                           " checksum mismatch (corrupt)");
  }
  return IoResult::Ok();
}

/// Deep CSR validation of one side: offsets start at 0, end at m, are
/// monotone; neighbour lists are sorted ascending with all ids < n.
/// Guarantees every later array access in the algorithms stays in
/// bounds.
bool ValidCsrSide(std::uint64_t n, std::uint64_t m, const EdgeId* offsets,
                  const NodeId* neigh) {
  if (offsets[0] != 0 || offsets[n] != m) return false;
  std::atomic<bool> ok{true};
  ParallelFor(0, static_cast<std::size_t>(n), 1 << 12,
              [&](std::size_t b, std::size_t e) {
                bool good = true;
                for (std::size_t v = b; v < e && good; ++v) {
                  const EdgeId lo = offsets[v], hi = offsets[v + 1];
                  if (lo > hi || hi > m) {
                    good = false;
                    break;
                  }
                  for (EdgeId i = lo; i < hi; ++i) {
                    if (neigh[i] >= n || (i > lo && neigh[i] < neigh[i - 1])) {
                      good = false;
                      break;
                    }
                  }
                }
                if (!good) ok.store(false, std::memory_order_relaxed);
              });
  return ok.load();
}

IoResult CheckCsrInvariants(const std::string& path, const PackView& view) {
  const std::uint64_t n = view.header.num_nodes;
  const std::uint64_t m = view.header.num_edges;
  const auto* out_off = reinterpret_cast<const EdgeId*>(view.payload[kOutOffsets]);
  const auto* out_nbr = reinterpret_cast<const NodeId*>(view.payload[kOutNeighbors]);
  const auto* in_off = reinterpret_cast<const EdgeId*>(view.payload[kInOffsets]);
  const auto* in_nbr = reinterpret_cast<const NodeId*>(view.payload[kInNeighbors]);
  if (!ValidCsrSide(n, m, out_off, out_nbr)) {
    return IoResult::Error(path + ": out-CSR violates format invariants");
  }
  if (!ValidCsrSide(n, m, in_off, in_nbr)) {
    return IoResult::Error(path + ": in-CSR violates format invariants");
  }
  return IoResult::Ok();
}

}  // namespace

std::uint64_t PackFileBytes(std::uint64_t num_nodes, std::uint64_t num_edges) {
  return ComputeLayout(num_nodes, num_edges).file_bytes;
}

IoResult PackWriter::Begin(const std::string& path, std::uint64_t num_nodes,
                           std::uint64_t num_edges) {
  Abort();
  path_ = path;
  num_nodes_ = num_nodes;
  num_edges_ = num_edges;
  section_ = -1;
  items_ = 0;
  pos_ = 0;
  std::fill(std::begin(crcs_), std::end(crcs_), 0);
  fingerprint_ = GraphFingerprinter(num_nodes, num_edges);

  // Stage to a writer-unique temp file next to the target, fsync, and
  // rename on commit: a crashed or concurrent writer can never leave a
  // half-written pack under the final name, and the rename only happens
  // once the bytes are on stable storage.
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  const std::string tmp = util::StagingPath(path);
  if (GORDER_FAILPOINT(fp_pack_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  file_ = std::fopen(tmp.c_str(), "wb");
  if (file_ == nullptr) {
    return IoResult::Error("cannot open " + tmp + " for writing");
  }
  tmp_ = tmp;
  return IoResult::Ok();
}

IoResult PackWriter::AppendOutOffsets(const EdgeId* offsets,
                                      std::size_t count) {
  return Append(0, offsets, count);
}

IoResult PackWriter::AppendOutNeighbors(const NodeId* neighbors,
                                        std::size_t count) {
  return Append(1, neighbors, count);
}

IoResult PackWriter::AppendInOffsets(const EdgeId* offsets,
                                     std::size_t count) {
  return Append(2, offsets, count);
}

IoResult PackWriter::AppendInNeighbors(const NodeId* neighbors,
                                       std::size_t count) {
  return Append(3, neighbors, count);
}

template <typename T>
IoResult PackWriter::Append(int section, const T* items, std::size_t count) {
  if (IoResult r = Enter(section); !r.ok) return Fail(r);
  const std::uint64_t want = SectionItems(section, num_nodes_, num_edges_);
  if (count > want - items_) {
    return Fail(IoResult::Error(path_ + ": section " +
                                SectionName(kSections[section].id) +
                                " given more than its " +
                                std::to_string(want) + " items"));
  }
  crcs_[section] = Crc32(items, count * sizeof(T), crcs_[section]);
  if (section < 2) fingerprint_.Add(items, count);  // the out-CSR
  if (!Write(items, count * sizeof(T))) {
    return Fail(IoResult::Error("short write to " + tmp_));
  }
  items_ += count;
  return IoResult::Ok();
}

/// Moves on to `section` (kNumSections: past the last one). Every section
/// left behind must hold exactly its item count; each one entered starts
/// with the zero padding up to its 64-byte aligned offset.
IoResult PackWriter::Enter(int section) {
  if (file_ == nullptr) {
    return IoResult::Error(path_ + ": no pack write in progress");
  }
  if (section < section_) {
    return IoResult::Error(path_ + ": section " +
                           SectionName(kSections[section].id) +
                           " written out of file order");
  }
  static const char kZeros[kTableEnd] = {};
  while (section_ < section) {
    if (section_ >= 0) {
      const std::uint64_t want =
          SectionItems(section_, num_nodes_, num_edges_);
      if (items_ != want) {
        return IoResult::Error(
            path_ + ": section " + SectionName(kSections[section_].id) +
            " holds " + std::to_string(items_) + " of its " +
            std::to_string(want) + " items");
      }
    }
    ++section_;
    items_ = 0;
    if (section_ == kNumSections) break;
    // At most the header and table (before the first section), which
    // Commit overwrites, or under 64 bytes of alignment.
    const std::uint64_t pad =
        ComputeLayout(num_nodes_, num_edges_).offset[section_] - pos_;
    if (!Write(kZeros, static_cast<std::size_t>(pad))) {
      return IoResult::Error("short write to " + tmp_);
    }
  }
  return IoResult::Ok();
}

bool PackWriter::Write(const void* data, std::size_t bytes) {
  if (bytes == 0) return true;
  if (GORDER_FAULT_IO(fp_pack_write, bytes,
                      std::fwrite(data, 1, bytes, file_)) != bytes) {
    return false;
  }
  pos_ += bytes;
  return true;
}

IoResult PackWriter::Commit() {
  if (IoResult r = Enter(kNumSections); !r.ok) return Fail(r);
  const std::uint64_t file_bytes = pos_;
  const Layout layout = ComputeLayout(num_nodes_, num_edges_);

  GpackHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.format_version = kGpackFormatVersion;
  header.header_bytes = sizeof(GpackHeader);
  header.flags = kFlagHasInCsr;
  header.num_nodes = num_nodes_;
  header.num_edges = num_edges_;
  header.fingerprint = fingerprint_.Digest();
  header.section_count = kNumSections;
  std::vector<GpackSectionEntry> table(kNumSections);
  for (int s = 0; s < kNumSections; ++s) {
    table[s].id = kSections[s].id;
    table[s].item_bytes = kSections[s].item_bytes;
    table[s].offset = layout.offset[s];
    table[s].bytes =
        SectionItems(s, num_nodes_, num_edges_) * kSections[s].item_bytes;
    table[s].crc32 = crcs_[s];
    table[s].reserved = 0;
  }
  header.header_crc = HeaderCrc(header, table);

  const bool ok = std::fseek(file_, 0, SEEK_SET) == 0 &&
                  Write(&header, sizeof header) &&
                  Write(table.data(), table.size() * sizeof(table[0])) &&
                  util::FlushAndSync(file_);
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!ok || !closed) return Fail(IoResult::Error("short write to " + tmp_));
  const std::string tmp = std::move(tmp_);
  tmp_.clear();
  if (IoResult r = util::CommitStagedFile(tmp, path_); !r.ok) return r;
  GORDER_OBS_INC(c_pack_write);
  GORDER_OBS_ADD(c_pack_write_bytes, file_bytes);
  return IoResult::Ok();
}

IoResult PackWriter::Fail(IoResult error) {
  Abort();
  return error;
}

void PackWriter::Abort() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!tmp_.empty()) {
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);
    tmp_.clear();
  }
}

IoResult WritePack(const std::string& path, const Graph& graph) {
  GORDER_OBS_SPAN(span, "store.pack_write");
  PackWriter writer;
  IoResult r = writer.Begin(path, graph.NumNodes(), graph.NumEdges());
  if (r.ok) {
    r = writer.AppendOutOffsets(graph.out_offsets().data(),
                                graph.out_offsets().size());
  }
  if (r.ok) {
    r = writer.AppendOutNeighbors(graph.out_neighbors().data(),
                                  graph.out_neighbors().size());
  }
  if (r.ok) {
    r = writer.AppendInOffsets(graph.in_offsets().data(),
                               graph.in_offsets().size());
  }
  if (r.ok) {
    r = writer.AppendInNeighbors(graph.in_neighbors().data(),
                                 graph.in_neighbors().size());
  }
  return r.ok ? writer.Commit() : r;
}

namespace {

/// LoadPack, also handing back the fingerprint from the validated header
/// so VerifyPack need not map and parse the file a second time.
IoResult LoadPackWithFingerprint(const std::string& path, Graph* graph,
                                 LoadMode mode,
                                 std::uint64_t* header_fingerprint) {
  GORDER_OBS_SPAN(span, "store.mmap_load");
  std::shared_ptr<MappedFile> file;
  IoResult r = MappedFile::Map(path, &file);
  if (!r.ok) return r;
  PackView view;
  if (r = ParseAndCheck(path, *file, &view); !r.ok) return r;
  if (r = CheckSectionCrcs(path, *file, view); !r.ok) return r;
  if (r = CheckCsrInvariants(path, view); !r.ok) return r;

  const auto n = static_cast<NodeId>(view.header.num_nodes);
  const auto n_off = static_cast<std::size_t>(view.header.num_nodes) + 1;
  const std::uint64_t m = view.header.num_edges;
  const auto* out_off = reinterpret_cast<const EdgeId*>(view.payload[kOutOffsets]);
  const auto* out_nbr = reinterpret_cast<const NodeId*>(view.payload[kOutNeighbors]);
  const auto* in_off = reinterpret_cast<const EdgeId*>(view.payload[kInOffsets]);
  const auto* in_nbr = reinterpret_cast<const NodeId*>(view.payload[kInNeighbors]);
  const auto count = static_cast<std::size_t>(m);

  if (mode == LoadMode::kMmap) {
    *graph = Graph::FromMapped(
        n, ArrayRef<EdgeId>(out_off, n_off, file),
        ArrayRef<NodeId>(out_nbr, count, file),
        ArrayRef<EdgeId>(in_off, n_off, file),
        ArrayRef<NodeId>(in_nbr, count, file));
    GORDER_OBS_INC(c_mmap_load);
    GORDER_OBS_ADD(c_mmap_load_bytes, file->size());
  } else {
    try {
      GORDER_FAULT_ALLOC(fp_pack_load_alloc);
      *graph = Graph::FromMapped(
          n, ArrayRef<EdgeId>(std::vector<EdgeId>(out_off, out_off + n_off)),
          ArrayRef<NodeId>(std::vector<NodeId>(out_nbr, out_nbr + count)),
          ArrayRef<EdgeId>(std::vector<EdgeId>(in_off, in_off + n_off)),
          ArrayRef<NodeId>(std::vector<NodeId>(in_nbr, in_nbr + count)));
    } catch (const std::bad_alloc&) {
      return IoResult::Error(path + ": cannot allocate CSR copy buffers");
    }
    GORDER_OBS_INC(c_copy_load);
  }
  *header_fingerprint = view.header.fingerprint;
  return IoResult::Ok();
}

}  // namespace

IoResult LoadPack(const std::string& path, Graph* graph, LoadMode mode) {
  std::uint64_t header_fingerprint = 0;
  return LoadPackWithFingerprint(path, graph, mode, &header_fingerprint);
}

IoResult ReadPackInfo(const std::string& path, GpackInfo* info) {
  std::shared_ptr<MappedFile> file;
  IoResult r = MappedFile::Map(path, &file);
  if (!r.ok) return r;
  PackView view;
  if (r = ParseAndCheck(path, *file, &view); !r.ok) return r;
  info->format_version = view.header.format_version;
  info->flags = view.header.flags;
  info->num_nodes = view.header.num_nodes;
  info->num_edges = view.header.num_edges;
  info->fingerprint = view.header.fingerprint;
  info->file_bytes = file->size();
  info->sections.clear();
  for (const GpackSectionEntry& e : view.table) {
    info->sections.push_back({SectionName(e.id), e.id, e.item_bytes, e.offset,
                              e.bytes, e.crc32});
  }
  return IoResult::Ok();
}

IoResult VerifyPack(const std::string& path) {
  Graph g;
  std::uint64_t header_fingerprint = 0;
  IoResult r =
      LoadPackWithFingerprint(path, &g, LoadMode::kMmap, &header_fingerprint);
  if (!r.ok) return r;
  if (GraphFingerprint(g) != header_fingerprint) {
    return IoResult::Error(path +
                           ": content fingerprint mismatch (header does not "
                           "match payload)");
  }
  return IoResult::Ok();
}

}  // namespace gorder::store

#ifndef GORDER_STORE_GPACK_H_
#define GORDER_STORE_GPACK_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/edgelist_io.h"  // IoResult
#include "graph/graph.h"
#include "store/fingerprint.h"

namespace gorder::store {

/// gpack: the versioned binary CSR graph container (DESIGN.md §12).
///
/// Little-endian layout, 64-byte aligned sections:
///
///   [ 0,  64)  header: magic "GPACKBIN", format version, flags,
///              n, m, content fingerprint, section count, header CRC32
///   [64, ...)  section table: one 32-byte entry per section
///              (id, element width, file offset, byte length, CRC32)
///   aligned    section payloads: out_offsets, out_neighbors,
///              in_offsets, in_neighbors — raw CSR arrays, padded to
///              64-byte boundaries so a zero-copy mmap load can cast
///              them in place.
///
/// The header CRC covers the header and the whole section table; every
/// payload carries its own CRC. A pack either loads fully validated
/// (structure, checksums, CSR invariants — monotone offsets, in-range
/// sorted neighbour lists) or fails with a clean IoResult; no load path
/// reads past the mapped bounds, and corrupt input can never abort or
/// invoke UB.
inline constexpr std::uint32_t kGpackFormatVersion = 1;

/// How LoadPack materialises the CSR arrays.
enum class LoadMode {
  kMmap,  // zero-copy: Graph borrows the mapped sections (default)
  kCopy,  // deep copy into owned vectors (mapping released immediately)
};

struct GpackSectionInfo {
  std::string name;       // "out_offsets", "out_neighbors", ...
  std::uint32_t id = 0;
  std::uint32_t item_bytes = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc32 = 0;
};

struct GpackInfo {
  std::uint32_t format_version = 0;
  std::uint64_t flags = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t fingerprint = 0;  // GraphFingerprint of the content
  std::uint64_t file_bytes = 0;
  std::vector<GpackSectionInfo> sections;
};

/// Size in bytes of the pack PackWriter writes for `num_nodes` nodes and
/// `num_edges` edges.
std::uint64_t PackFileBytes(std::uint64_t num_nodes, std::uint64_t num_edges);

/// The one gpack writer. Every pack, whether written from an in-memory
/// graph (WritePack) or streamed by the external build (src/extmem),
/// passes through it, so it alone knows the format. It takes the four
/// CSR sections in file order (out_offsets, out_neighbors, in_offsets,
/// in_neighbors), each in chunks of any size, and writes them
/// sequentially: zero padding up to each 64-byte section start, the
/// section CRCs and the content fingerprint built up as the bytes pass,
/// and the header and section table written last, at offset 0.
///
/// Each section must receive exactly its n + 1 offsets or m neighbours:
/// an append past that count, or moving on from a section before it is
/// full, is an error. The pack is staged to a writer-unique temp file
/// next to `path` and published by Commit() (fsync, atomic rename). Any
/// error, or destroying the writer without a commit, removes the
/// staging file, so `path` only ever holds a complete pack.
class PackWriter {
 public:
  PackWriter() = default;
  ~PackWriter() { Abort(); }
  PackWriter(const PackWriter&) = delete;
  PackWriter& operator=(const PackWriter&) = delete;

  /// Starts a pack of `num_nodes` nodes and `num_edges` edges at `path`,
  /// creating the parent directory if needed.
  IoResult Begin(const std::string& path, std::uint64_t num_nodes,
                 std::uint64_t num_edges);

  IoResult AppendOutOffsets(const EdgeId* offsets, std::size_t count);
  IoResult AppendOutNeighbors(const NodeId* neighbors, std::size_t count);
  IoResult AppendInOffsets(const EdgeId* offsets, std::size_t count);
  IoResult AppendInNeighbors(const NodeId* neighbors, std::size_t count);

  /// Checks that every section is complete, writes the header and table,
  /// fsyncs and renames the pack onto its final path.
  IoResult Commit();

 private:
  template <typename T>
  IoResult Append(int section, const T* items, std::size_t count);
  IoResult Enter(int section);
  bool Write(const void* data, std::size_t bytes);
  IoResult Fail(IoResult error);
  void Abort();

  std::string path_;
  std::string tmp_;  // staging file; empty once committed or removed
  std::FILE* file_ = nullptr;
  std::uint64_t num_nodes_ = 0;
  std::uint64_t num_edges_ = 0;
  int section_ = -1;         // section being written, in file order
  std::uint64_t items_ = 0;  // items appended to it so far
  std::uint64_t pos_ = 0;    // bytes written so far
  std::uint32_t crcs_[4] = {};
  GraphFingerprinter fingerprint_{0, 0};
};

/// Writes `graph` as a gpack at `path` through PackWriter.
IoResult WritePack(const std::string& path, const Graph& graph);

/// Loads a gpack. kMmap (default) maps the file and hands the Graph
/// borrowed, shared-ownership views of the sections — O(validation), no
/// copies; kCopy materialises owned vectors. Both modes fully validate
/// (header + section CRCs, CSR invariants) before constructing.
IoResult LoadPack(const std::string& path, Graph* graph,
                  LoadMode mode = LoadMode::kMmap);

/// Reads and validates only the header + section table (cheap; does not
/// touch the payloads).
IoResult ReadPackInfo(const std::string& path, GpackInfo* info);

/// Full integrity check: everything LoadPack validates, plus recomputes
/// the content fingerprint and compares it to the header.
IoResult VerifyPack(const std::string& path);

}  // namespace gorder::store

#endif  // GORDER_STORE_GPACK_H_

#ifndef GORDER_EXTMEM_EXT_CSR_H_
#define GORDER_EXTMEM_EXT_CSR_H_

/// External-memory CSR build (DESIGN.md §18).
///
/// ExtPackBuilder turns an unbounded edge stream into a finished .gpack
/// without ever materialising a global edge list or CSR in RAM:
///
///   ingest     Add() feeds an ExternalEdgeSorter (bounded buffer,
///              sorted runs on disk). Self-loops are dropped here but
///              still grow the node count, matching Graph::Builder.
///   pass A     k-way merge replay #1: counts m and the out-/in-degrees
///              (O(n) RAM) and spills the transposed edges (dst, src)
///              into a second sorter for the in-CSR.
///   pass B     degrees prefix-sum into offsets; the four sections go
///              to store::PackWriter in file order: out_offsets, merge
///              replay #2 as out_neighbors, in_offsets, then the
///              transposed merge as in_neighbors, each replay through a
///              bounded buffer.
///   commit     PackWriter::Commit: header written last, fsync, atomic
///              rename.
///
/// store::WritePack writes through the same PackWriter, and the sort
/// and dedup semantics match Graph::Builder, so the result is
/// byte-identical to WritePack of the equivalent in-memory graph, which
/// the differential test asserts file-for-file.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "extmem/edge_stream.h"
#include "graph/edgelist_io.h"
#include "graph/graph.h"
#include "util/io_result.h"

namespace gorder::extmem {

class ExtPackBuilder {
 public:
  explicit ExtPackBuilder(const ExtmemOptions& options = {});

  /// Starts a build targeting `pack_path`. Scratch directories are
  /// created next to it (or in options.scratch_dir when set).
  IoResult Begin(const std::string& pack_path);

  /// Ensures the graph has at least `n` nodes (isolated nodes allowed).
  void ReserveNodes(NodeId n);

  /// Adds one directed edge. Node ids grow the graph like
  /// Graph::Builder::AddEdge (self-loops count toward n, then drop).
  IoResult Add(NodeId src, NodeId dst);
  IoResult AddBatch(const Edge* edges, std::size_t count);

  /// Runs the merge passes, writes and commits the pack. After Finish()
  /// the builder is spent; stats() reports what happened.
  IoResult Finish();

  const ExtBuildStats& stats() const { return stats_; }

 private:
  IoResult FinishImpl();

  ExtmemOptions options_;
  std::string pack_path_;
  std::string scratch_prefix_;
  ExternalEdgeSorter forward_;
  ExtBuildStats stats_;
  NodeId reserved_nodes_ = 0;
  NodeId max_node_ = 0;
  bool saw_node_ = false;
  bool begun_ = false;
};

/// One-call ingest: streams a text edge list through StreamEdgeList
/// (graph/edgelist_io.h, the reader ReadEdgeList uses) into an extmem
/// pack build. The bounded-memory replacement for ReadEdgeList +
/// WritePack.
IoResult StreamEdgeListToPack(const std::string& edge_path,
                              const std::string& pack_path,
                              const ExtmemOptions& options = {},
                              ExtBuildStats* stats = nullptr);

/// An edge-producing stream: invoked once with a sink, pushes every
/// edge chunk through it, propagating the first sink error. The chunked
/// generators (gen/chunked.h) curry into this shape:
///   [&](const auto& sink) { return gen::StreamRmat(p, seed, opt, sink); }
using EdgeStreamFn = std::function<IoResult(const EdgeSink&)>;

/// Sink adapter from any edge stream to a finished pack: begins an
/// external build, reserves `reserve_nodes`, feeds every chunk the
/// stream produces into the builder, then merges and commits. A
/// 10^9-edge generator output packs to .gpack through this without a
/// global edge list ever existing in RAM.
IoResult BuildPackFromEdgeStream(const EdgeStreamFn& stream,
                                 NodeId reserve_nodes,
                                 const std::string& pack_path,
                                 const ExtmemOptions& options = {},
                                 ExtBuildStats* stats = nullptr);

/// Peak-memory estimates for a graph of the given size, used by
/// `gorder_cli --cmd=info` to tell users when `--extmem` is warranted.
/// All figures are estimates of the dominant terms, not guarantees.
struct MemoryEstimates {
  std::uint64_t pack_file_bytes = 0;  // mmap address space of a mapped load
  std::uint64_t copy_load_bytes = 0;  // heap for LoadMode::kCopy
  std::uint64_t inmem_build_peak_bytes = 0;  // edge list + CSR (FromEdges)
  std::uint64_t extmem_build_bytes = 0;      // vertex state + stream budget
  // Semi-external Gorder: vertex state plus the kernel's out-list copy.
  std::uint64_t gorder_state_bytes = 0;
};
MemoryEstimates EstimateMemory(std::uint64_t num_nodes,
                               std::uint64_t num_edges,
                               const ExtmemOptions& options = {});

}  // namespace gorder::extmem

#endif  // GORDER_EXTMEM_EXT_CSR_H_

#ifndef GORDER_COMPRESS_COMPRESSED_GRAPH_H_
#define GORDER_COMPRESS_COMPRESSED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "compress/varint.h"
#include "graph/graph.h"

namespace gorder::compress {

/// Gap-encoded immutable out-adjacency, in the WebGraph spirit (Boldi &
/// Vigna 2004, the compression scheme the paper's discussion section
/// points at): each node's sorted neighbour list is stored as
///
///   zigzag(first - v) , gap_2 - 1 , gap_3 - 1 , ...
///
/// in LEB128 varints. The encoded size is a direct function of the
/// numbering's locality — exactly what node orderings optimise — so
/// `BitsPerEdge()` doubles as a compression-quality metric for any
/// ordering (see bench/ext_compression and the web_graph_compression
/// example).
///
/// The in-adjacency is not stored; decompress to a `Graph` when both
/// directions are needed. Requires a simple graph (strictly ascending
/// neighbour lists, i.e. no parallel edges), which `Graph::Builder`
/// produces by default.
class CompressedGraph {
 public:
  CompressedGraph() = default;

  /// Encodes the out-adjacency of `graph`.
  static CompressedGraph FromGraph(const Graph& graph);

  NodeId NumNodes() const { return num_nodes_; }
  EdgeId NumEdges() const { return num_edges_; }

  NodeId OutDegree(NodeId v) const { return degree_[v]; }

  /// Streams v's out-neighbours (ascending) into `fn(NodeId)`.
  template <typename Fn>
  void ForEachOutNeighbor(NodeId v, Fn&& fn) const;

  /// Full round-trip back to CSR (loses nothing: lists were sorted).
  Graph Decompress() const;

  /// Encoded payload size (gap bytes only; excludes the offset index).
  std::size_t PayloadBytes() const { return bytes_.size(); }
  double BitsPerEdge() const {
    return num_edges_ == 0
               ? 0.0
               : 8.0 * static_cast<double>(PayloadBytes()) /
                     static_cast<double>(num_edges_);
  }

 private:
  NodeId num_nodes_ = 0;
  EdgeId num_edges_ = 0;
  std::vector<std::uint64_t> offsets_;  // byte offset of each node's run
  std::vector<NodeId> degree_;
  std::vector<std::uint8_t> bytes_;
};

// ---- Implementation of the template member ----

template <typename Fn>
void CompressedGraph::ForEachOutNeighbor(NodeId v, Fn&& fn) const {
  std::size_t pos = offsets_[v];
  NodeId remaining = degree_[v];
  if (remaining == 0) return;
  std::int64_t first =
      static_cast<std::int64_t>(v) + ZigZagDecode(ReadVarint(bytes_, pos));
  auto current = static_cast<NodeId>(first);
  fn(current);
  while (--remaining > 0) {
    current += static_cast<NodeId>(ReadVarint(bytes_, pos)) + 1;
    fn(current);
  }
}

}  // namespace gorder::compress

#endif  // GORDER_COMPRESS_COMPRESSED_GRAPH_H_

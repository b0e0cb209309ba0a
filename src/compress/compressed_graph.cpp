#include "compress/compressed_graph.h"

#include "compress/varint.h"
#include "util/logging.h"

namespace gorder::compress {

CompressedGraph CompressedGraph::FromGraph(const Graph& graph) {
  CompressedGraph cg;
  cg.num_nodes_ = graph.NumNodes();
  cg.num_edges_ = graph.NumEdges();
  cg.offsets_.resize(cg.num_nodes_);
  cg.degree_.resize(cg.num_nodes_);
  cg.bytes_.reserve(graph.NumEdges());  // >= 1 byte per edge lower bound
  for (NodeId v = 0; v < cg.num_nodes_; ++v) {
    cg.offsets_[v] = cg.bytes_.size();
    auto nbrs = graph.OutNeighbors(v);  // sorted ascending by CSR invariant
    cg.degree_[v] = static_cast<NodeId>(nbrs.size());
    if (nbrs.empty()) continue;
    std::int64_t first_gap = static_cast<std::int64_t>(nbrs[0]) -
                             static_cast<std::int64_t>(v);
    AppendVarint(ZigZagEncode(first_gap), cg.bytes_);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      GORDER_DCHECK(nbrs[i] > nbrs[i - 1]);
      AppendVarint(nbrs[i] - nbrs[i - 1] - 1, cg.bytes_);
    }
  }
  return cg;
}

Graph CompressedGraph::Decompress() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    ForEachOutNeighbor(v, [&](NodeId w) { edges.push_back({v, w}); });
  }
  return Graph::FromEdges(num_nodes_, std::move(edges),
                          /*keep_self_loops=*/true,
                          /*keep_duplicates=*/true);
}

}  // namespace gorder::compress

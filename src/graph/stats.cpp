#include "graph/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace gorder {

GraphStats ComputeStats(const Graph& graph) {
  GraphStats s;
  s.num_nodes = graph.NumNodes();
  s.num_edges = graph.NumEdges();
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    s.max_out_degree = std::max(s.max_out_degree, graph.OutDegree(v));
    s.max_in_degree = std::max(s.max_in_degree, graph.InDegree(v));
  }
  s.avg_degree = s.num_nodes == 0
                     ? 0.0
                     : static_cast<double>(s.num_edges) / s.num_nodes;
  s.memory_bytes = graph.MemoryBytes();
  return s;
}

double LinearArrangementCost(const Graph& graph) {
  double total = 0.0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      total += std::abs(static_cast<double>(v) - static_cast<double>(w));
    }
  }
  return total;
}

double LogArrangementCost(const Graph& graph) {
  double total = 0.0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      double gap = std::abs(static_cast<double>(v) - static_cast<double>(w));
      if (gap > 0) total += std::log2(gap);
    }
  }
  return total;
}

NodeId Bandwidth(const Graph& graph) {
  NodeId best = 0;
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    for (NodeId w : graph.OutNeighbors(v)) {
      NodeId gap = v > w ? v - w : w - v;
      best = std::max(best, gap);
    }
  }
  return best;
}

namespace {

std::size_t SortedIntersectionSize(std::span<const NodeId> a,
                                   std::span<const NodeId> b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

}  // namespace

std::uint64_t GorderScoreUnderPermutation(const Graph& graph,
                                          const std::vector<NodeId>& perm,
                                          NodeId window) {
  GORDER_CHECK(window >= 1);
  CheckPermutation(perm, graph.NumNodes());
  std::vector<NodeId> order = InvertPermutation(perm);
  // O(n * w * average in-degree): evaluates every in-window pair directly.
  // Used for validation and ablation at test scale, not on hot paths.
  std::uint64_t score = 0;
  for (NodeId i = 0; i < graph.NumNodes(); ++i) {
    NodeId u = order[i];
    NodeId lo = i >= window ? i - window : 0;
    for (NodeId j = lo; j < i; ++j) {
      NodeId v = order[j];
      std::uint64_t sn = (graph.HasEdge(u, v) ? 1 : 0) +
                         (graph.HasEdge(v, u) ? 1 : 0);
      std::uint64_t ss =
          SortedIntersectionSize(graph.InNeighbors(u), graph.InNeighbors(v));
      score += sn + ss;
    }
  }
  return score;
}

std::uint64_t GorderScore(const Graph& graph, NodeId window) {
  return GorderScoreUnderPermutation(graph,
                                     IdentityPermutation(graph.NumNodes()),
                                     window);
}

}  // namespace gorder

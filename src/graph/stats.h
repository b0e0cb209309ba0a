#ifndef GORDER_GRAPH_STATS_H_
#define GORDER_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gorder {

/// Summary statistics for a dataset row (Table 1 stand-in).
struct GraphStats {
  NodeId num_nodes = 0;
  EdgeId num_edges = 0;
  NodeId max_out_degree = 0;
  NodeId max_in_degree = 0;
  double avg_degree = 0.0;
  std::size_t memory_bytes = 0;
};

GraphStats ComputeStats(const Graph& graph);

/// Locality metrics of the *current numbering* — these are the objective
/// functions the ordering methods optimise, evaluated directly:
///
/// - `LinearArrangementCost`:   sum |pi_u - pi_v| over directed edges
///   (MinLA energy).
/// - `LogArrangementCost`:      sum log2 |pi_u - pi_v| (MinLogA energy).
/// - `Bandwidth`:               max |pi_u - pi_v| (RCM objective).
/// - `GorderScore`:             F(pi) = sum_{0 < pi_u - pi_v <= w} S(u,v)
///   with S = sibling (common in-neighbour) + neighbour counts, the
///   quantity Gorder greedily maximises (paper §3).
double LinearArrangementCost(const Graph& graph);
double LogArrangementCost(const Graph& graph);
NodeId Bandwidth(const Graph& graph);
std::uint64_t GorderScore(const Graph& graph, NodeId window);

/// GorderScore for a candidate permutation without materialising the
/// relabelled graph. `perm[old] = new`.
std::uint64_t GorderScoreUnderPermutation(const Graph& graph,
                                          const std::vector<NodeId>& perm,
                                          NodeId window);

}  // namespace gorder

#endif  // GORDER_GRAPH_STATS_H_

#ifndef GORDER_ORDER_GORDER_H_
#define GORDER_ORDER_GORDER_H_

#include <vector>

#include "graph/graph.h"
#include "order/ordering.h"

namespace gorder::order {

/// Gorder (Wei et al., SIGMOD 2016): greedy window ordering.
///
/// Maintains a sliding window of the last `w` placed nodes and repeatedly
/// places the unplaced node v maximising
///     S(v, window) = sum_{u in window} Ss(v, u) + Sn(v, u)
/// where Sn counts direct edges between v and u (0..2) and Ss counts
/// common in-neighbours. Priorities live in a UnitHeap: placing a node
/// increments the key of every node it relates to, and a node falling out
/// of the window decrements the same keys, so each score update is O(1).
///
/// The sibling update through an in-neighbour u costs O(outdeg(u)); for
/// power-law graphs the paper caps this at high-degree nodes, and so does
/// `params.gorder_hub_cap` (0 disables the cap). The greedy is seeded
/// with the maximum in-degree node, and re-seeds implicitly on key-0
/// extractions when the graph is disconnected.
///
/// Per-phase cost breakdown of one GorderOrder run, for
/// `gorder_cli --cmd=order --verbose` and profiling. Collecting it
/// selects a timed kernel instantiation (two clock reads per placement);
/// the permutation is bit-identical with or without stats.
struct GorderPhaseStats {
  double total_seconds = 0.0;
  double init_seconds = 0.0;     // heap build + seed selection
  double score_seconds = 0.0;    // window entry/exit score updates
  double extract_seconds = 0.0;  // ExtractMax + lazy refiles
  double window_seconds = 0.0;   // window ring + bookkeeping (residual)
  std::uint64_t places = 0;
  std::uint64_t score_updates = 0;
  std::uint64_t lazy_refiles = 0;
};

/// Returns `perm[old] = new`. The paper proves the window greedy is a
/// 1/(2w)-approximation of the optimal F(pi).
///
/// The inner loop is compiled per (neighbor score, sibling score, lazy
/// decrements, timed) configuration, with the per-vertex heap state
/// packed into single cache-line slots (see UnitHeap) and software
/// prefetch over the window's adjacency scans. It scans a private copy
/// of the out-lists (4 B per edge plus 8 B per node, freed on return)
/// that each scan compacts to the ids still unplaced; the permutation is
/// the one a scan of the graph's own lists gives. Any window w >= n
/// orders like w = n.
std::vector<NodeId> GorderOrder(const Graph& graph,
                                const OrderingParams& params = {},
                                GorderPhaseStats* stats = nullptr);

}  // namespace gorder::order

#endif  // GORDER_ORDER_GORDER_H_

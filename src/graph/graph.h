#ifndef GORDER_GRAPH_GRAPH_H_
#define GORDER_GRAPH_GRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "util/array_ref.h"
#include "util/types.h"

namespace gorder {

/// An edge (src -> dst) in a directed graph.
struct Edge {
  NodeId src = 0;
  NodeId dst = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// FromEdges and Relabel sort an adjacency list of up to this many ids
/// with std::sort and a longer one with util::RadixSort: the measured
/// length where the radix sort's fixed cost (clearing and summing its
/// digit counters) stops outweighing std::sort's n log n (DESIGN.md §9).
inline constexpr std::size_t kListRadixCrossover = 64;

/// Immutable directed graph in Compressed Sparse Row format.
///
/// Both out-adjacency and in-adjacency are materialised: the paper's
/// workloads need out-neighbours (traversals, NQ, SP), in-neighbours
/// (PageRank pull, InDegSort, Gorder's sibling score) and the undirected
/// view (RCM, SlashBurn, K-core, Dominating Set).
///
/// Neighbour lists are sorted ascending, which the benchmark algorithms
/// rely on for deterministic "lexicographic" tie-breaking (replication
/// §2.1) and which maximises the benefit of locality-aware orderings.
///
/// Construction goes through `Builder` (dedups, strips self-loops by
/// default) or `FromEdges`. Copy is expensive and therefore explicit via
/// `Clone`; the type itself is move-only.
///
/// `FromEdges` and `Relabel` run on the shared parallel runtime
/// (util/parallel.h): counting-sort scatter plus per-node sorts, with the
/// out- and in-CSR built concurrently. Results are bit-identical at any
/// thread count; `SetNumThreads(1)` gives a fully serial build.
class Graph {
 public:
  /// Incremental builder. Collects edges, then `Build()` produces the CSR.
  class Builder {
   public:
    explicit Builder(NodeId num_nodes = 0) : num_nodes_(num_nodes) {}

    /// Adds a directed edge, growing the node count as needed.
    void AddEdge(NodeId src, NodeId dst);

    /// Ensures the graph has at least `n` nodes (isolated nodes allowed).
    void ReserveNodes(NodeId n);
    void ReserveEdges(std::size_t m) { edges_.reserve(m); }

    std::size_t num_pending_edges() const { return edges_.size(); }

    /// Finalises into a Graph. `keep_self_loops` / `keep_duplicates`
    /// default to false to match the simple-directed-graph datasets used
    /// in the paper.
    Graph Build(bool keep_self_loops = false, bool keep_duplicates = false);

   private:
    NodeId num_nodes_;
    std::vector<Edge> edges_;
  };

  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Builds directly from an edge list.
  static Graph FromEdges(NodeId num_nodes, std::vector<Edge> edges,
                         bool keep_self_loops = false,
                         bool keep_duplicates = false);

  /// Wraps pre-built CSR arrays — typically borrowed from a memory-mapped
  /// gpack (src/store) — without copying. The caller is responsible for
  /// deep validation (monotone offsets, in-range sorted neighbours);
  /// store::LoadPack performs it before constructing. Only cheap
  /// structural invariants are re-checked here.
  static Graph FromMapped(NodeId num_nodes, ArrayRef<EdgeId> out_offsets,
                          ArrayRef<NodeId> out_neighbors,
                          ArrayRef<EdgeId> in_offsets,
                          ArrayRef<NodeId> in_neighbors);

  /// Deep copy (explicit because it is O(n + m)).
  Graph Clone() const;

  NodeId NumNodes() const { return num_nodes_; }
  EdgeId NumEdges() const { return static_cast<EdgeId>(out_neigh_.size()); }

  NodeId OutDegree(NodeId v) const {
    return static_cast<NodeId>(out_offsets_[v + 1] - out_offsets_[v]);
  }
  NodeId InDegree(NodeId v) const {
    return static_cast<NodeId>(in_offsets_[v + 1] - in_offsets_[v]);
  }
  /// Degree of the undirected view (out + in, double-counting reciprocal
  /// edges; cheap and monotone, which is all the degree-based orderings
  /// need).
  NodeId UndirectedDegree(NodeId v) const {
    return OutDegree(v) + InDegree(v);
  }

  std::span<const NodeId> OutNeighbors(NodeId v) const {
    return {out_neigh_.data() + out_offsets_[v],
            out_neigh_.data() + out_offsets_[v + 1]};
  }
  std::span<const NodeId> InNeighbors(NodeId v) const {
    return {in_neigh_.data() + in_offsets_[v],
            in_neigh_.data() + in_offsets_[v + 1]};
  }

  /// Raw CSR access, used by the cache-traced algorithm variants to model
  /// the exact memory layout the paper's implementation touches. The
  /// arrays are owned-or-borrowed (util/array_ref.h): vector-backed for
  /// built graphs, mapping-backed for graphs loaded zero-copy from a
  /// gpack. Indexing cost is identical either way.
  const ArrayRef<EdgeId>& out_offsets() const { return out_offsets_; }
  const ArrayRef<NodeId>& out_neighbors() const { return out_neigh_; }
  const ArrayRef<EdgeId>& in_offsets() const { return in_offsets_; }
  const ArrayRef<NodeId>& in_neighbors() const { return in_neigh_; }

  /// True when the CSR arrays borrow from a shared mapping (zero-copy
  /// load) rather than owning their storage.
  bool IsMapped() const { return out_neigh_.borrowed(); }

  /// True if the directed edge (src, dst) exists (binary search).
  bool HasEdge(NodeId src, NodeId dst) const;

  /// Returns the renumbered graph under `perm`, where `perm[old] = new`.
  /// Direct CSR -> CSR permutation (no intermediate edge list); neighbour
  /// lists of the result are re-sorted. O(n + m).
  Graph Relabel(const std::vector<NodeId>& perm) const;

  /// Materialises the edge list (src/dst pairs, sorted by src then dst).
  std::vector<Edge> ToEdges() const;

  /// Total bytes of the CSR arrays (reported in Table 1 stand-in).
  std::size_t MemoryBytes() const;

 private:
  NodeId num_nodes_ = 0;
  ArrayRef<EdgeId> out_offsets_{std::vector<EdgeId>{0}};
  ArrayRef<NodeId> out_neigh_;
  ArrayRef<EdgeId> in_offsets_{std::vector<EdgeId>{0}};
  ArrayRef<NodeId> in_neigh_;
};

/// Validates that `perm` is a permutation of [0, n). Aborts otherwise.
void CheckPermutation(const std::vector<NodeId>& perm, NodeId n);

/// Returns the inverse permutation: if `perm[old] = new`, the result maps
/// `result[new] = old`.
std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm);

/// The identity permutation on n nodes.
std::vector<NodeId> IdentityPermutation(NodeId n);

}  // namespace gorder

#endif  // GORDER_GRAPH_GRAPH_H_

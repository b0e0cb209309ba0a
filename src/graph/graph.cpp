#include "graph/graph.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/radix_sort.h"

namespace gorder {

namespace {

// CSR phase telemetry: edges processed by construction vs relabel. Both
// count the directed edge instances written per side (out + in), so one
// FromEdges on m clean edges adds 2m to `csr.build_edges`.
GORDER_OBS_COUNTER(c_build_edges, "csr.build_edges");
GORDER_OBS_COUNTER(c_relabel_edges, "csr.relabel_edges");

}  // namespace

void Graph::Builder::AddEdge(NodeId src, NodeId dst) {
  edges_.push_back({src, dst});
  NodeId hi = std::max(src, dst);
  if (hi >= num_nodes_) num_nodes_ = hi + 1;
}

void Graph::Builder::ReserveNodes(NodeId n) {
  if (n > num_nodes_) num_nodes_ = n;
}

Graph Graph::Builder::Build(bool keep_self_loops, bool keep_duplicates) {
  return Graph::FromEdges(num_nodes_, std::move(edges_), keep_self_loops,
                          keep_duplicates);
}

namespace {

constexpr std::size_t kEdgeGrain = 1 << 15;
constexpr std::size_t kNodeGrain = 1 << 11;

/// The radix sort's buffers, owned by one ParallelFor chunk and reused
/// from list to list. Allocating the histograms once per chunk instead
/// of once per list also keeps those small blocks from fragmenting the
/// heap the large CSR arrays are carved from.
struct SortScratch {
  std::vector<NodeId> ids;
  std::vector<std::size_t> counts;
};

/// Sorts one adjacency list ascending: std::sort up to
/// kListRadixCrossover ids, util::RadixSort over the bits the list's ids
/// use above it. A long list that is already in order (FromEdges of a
/// sorted edge list) is left as it is: the radix passes would cost more
/// there than std::sort's best case.
void SortList(NodeId* first, NodeId* last, SortScratch& scratch) {
  const auto len = static_cast<std::size_t>(last - first);
  if (len <= kListRadixCrossover) {
    std::sort(first, last);
    return;
  }
  NodeId ids = *first;
  bool in_order = true;
  for (const NodeId* p = first + 1; p != last; ++p) {
    ids |= *p;
    in_order &= p[-1] <= *p;
  }
  if (in_order) return;
  if (scratch.ids.size() < len) scratch.ids.resize(len);
  const NodeId* sorted = util::RadixSort(
      first, scratch.ids.data(), len, std::bit_width(ids),
      [](NodeId v) { return v; }, scratch.counts);
  if (sorted != first) std::copy(sorted, sorted + len, first);
}

/// Builds one CSR side directly from the unsorted edge list: counting-sort
/// scatter into per-node buckets, per-node sort, optional in-place
/// per-node dedup — no global O(m log m) sort. `reverse=false` keys on src
/// (out-CSR), `reverse=true` keys on dst (in-CSR); the two sides are
/// independent, so FromEdges runs them concurrently.
///
/// The count and the scatter are plain loops: split across threads they
/// need an atomic increment per edge on shared counters, and that ran
/// slower at every thread count above one (DESIGN.md §9). The per-node
/// passes below run on the pool.
///
/// Deterministic at any thread count: the scatter fills every bucket in
/// edge-list order, every bucket is sorted afterwards, and the dedup keeps
/// one copy of each distinct value, so the final arrays depend only on the
/// edge multiset.
void BuildCsr(NodeId num_nodes, const std::vector<Edge>& edges, bool reverse,
              bool keep_self_loops, bool keep_duplicates,
              std::vector<EdgeId>& offsets, std::vector<NodeId>& neigh) {
  const std::size_t n = num_nodes;
  offsets.assign(n + 1, 0);
  for (const Edge& edge : edges) {
    if (!keep_self_loops && edge.src == edge.dst) continue;
    ++offsets[(reverse ? edge.dst : edge.src) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  neigh.resize(offsets[n]);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& edge : edges) {
    if (!keep_self_loops && edge.src == edge.dst) continue;
    const NodeId key = reverse ? edge.dst : edge.src;
    neigh[cursor[key]++] = reverse ? edge.src : edge.dst;
  }
  if (keep_duplicates) {
    ParallelFor(0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
      SortScratch scratch;
      for (std::size_t v = b; v < e; ++v) {
        SortList(neigh.data() + offsets[v], neigh.data() + offsets[v + 1],
                 scratch);
      }
    });
    return;
  }
  // Sort + dedup each bucket, then compact the survivors into fresh
  // arrays — skipped entirely when nothing was removed (clean inputs).
  std::vector<EdgeId> kept(n + 1, 0);
  ParallelFor(0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
    SortScratch scratch;
    for (std::size_t v = b; v < e; ++v) {
      NodeId* first = neigh.data() + offsets[v];
      NodeId* last = neigh.data() + offsets[v + 1];
      SortList(first, last, scratch);
      kept[v + 1] = static_cast<EdgeId>(std::unique(first, last) - first);
    }
  });
  for (std::size_t v = 0; v < n; ++v) kept[v + 1] += kept[v];
  if (kept[n] == offsets[n]) return;  // no duplicates: already dense
  std::vector<NodeId> packed(kept[n]);
  ParallelFor(0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      std::copy_n(neigh.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                  kept[v + 1] - kept[v],
                  packed.begin() + static_cast<std::ptrdiff_t>(kept[v]));
    }
  });
  offsets = std::move(kept);
  neigh = std::move(packed);
}

/// Direct CSR -> CSR renumbering under `perm[old] = new`: degree
/// permutation, prefix sum, disjoint scatter of the mapped neighbour
/// lists, per-bucket sort. O(n + m), no intermediate edge list. Each new
/// bucket is filled by exactly one old node, so the scatter and the sort
/// fuse into one pass. Reads through ArrayRef so the source side can be
/// an mmap-backed graph; the output is always freshly owned.
void RelabelCsr(NodeId num_nodes, const ArrayRef<EdgeId>& old_offsets,
                const ArrayRef<NodeId>& old_neigh,
                const std::vector<NodeId>& perm, std::vector<EdgeId>& offsets,
                std::vector<NodeId>& neigh) {
  const std::size_t n = num_nodes;
  offsets.assign(n + 1, 0);
  ParallelFor(0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      offsets[perm[v] + 1] = old_offsets[v + 1] - old_offsets[v];
    }
  });
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  neigh.resize(old_neigh.size());
  ParallelFor(0, n, kNodeGrain, [&](std::size_t b, std::size_t e) {
    SortScratch scratch;
    for (std::size_t v = b; v < e; ++v) {
      EdgeId out = offsets[perm[v]];
      for (EdgeId i = old_offsets[v]; i < old_offsets[v + 1]; ++i) {
        neigh[out++] = perm[old_neigh[i]];
      }
      SortList(neigh.data() + offsets[perm[v]], neigh.data() + out, scratch);
    }
  });
}

}  // namespace

Graph Graph::FromEdges(NodeId num_nodes, std::vector<Edge> edges,
                       bool keep_self_loops, bool keep_duplicates) {
  GORDER_OBS_SPAN(span, "graph.from_edges");
  ParallelFor(0, edges.size(), kEdgeGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      GORDER_CHECK(edges[i].src < num_nodes && edges[i].dst < num_nodes);
    }
  });
  Graph g;
  g.num_nodes_ = num_nodes;
  // The two sides are built from the same immutable edge list with
  // identical filter semantics, so they always agree on the edge multiset.
  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<NodeId> out_neigh, in_neigh;
  ParallelInvoke(
      [&] {
        BuildCsr(num_nodes, edges, /*reverse=*/false, keep_self_loops,
                 keep_duplicates, out_offsets, out_neigh);
      },
      [&] {
        BuildCsr(num_nodes, edges, /*reverse=*/true, keep_self_loops,
                 keep_duplicates, in_offsets, in_neigh);
      });
  g.out_offsets_ = ArrayRef<EdgeId>(std::move(out_offsets));
  g.out_neigh_ = ArrayRef<NodeId>(std::move(out_neigh));
  g.in_offsets_ = ArrayRef<EdgeId>(std::move(in_offsets));
  g.in_neigh_ = ArrayRef<NodeId>(std::move(in_neigh));
  GORDER_OBS_ADD(c_build_edges, g.out_neigh_.size() + g.in_neigh_.size());
  return g;
}

Graph Graph::FromMapped(NodeId num_nodes, ArrayRef<EdgeId> out_offsets,
                        ArrayRef<NodeId> out_neighbors,
                        ArrayRef<EdgeId> in_offsets,
                        ArrayRef<NodeId> in_neighbors) {
  GORDER_CHECK(out_offsets.size() == static_cast<std::size_t>(num_nodes) + 1);
  GORDER_CHECK(in_offsets.size() == static_cast<std::size_t>(num_nodes) + 1);
  GORDER_CHECK(out_offsets[0] == 0 &&
               out_offsets[num_nodes] == out_neighbors.size());
  GORDER_CHECK(in_offsets[0] == 0 &&
               in_offsets[num_nodes] == in_neighbors.size());
  Graph g;
  g.num_nodes_ = num_nodes;
  g.out_offsets_ = std::move(out_offsets);
  g.out_neigh_ = std::move(out_neighbors);
  g.in_offsets_ = std::move(in_offsets);
  g.in_neigh_ = std::move(in_neighbors);
  return g;
}

Graph Graph::Clone() const {
  Graph g;
  g.num_nodes_ = num_nodes_;
  // Clones always own their storage, even when cloning a mapped graph.
  g.out_offsets_ = ArrayRef<EdgeId>(out_offsets_.ToVector());
  g.out_neigh_ = ArrayRef<NodeId>(out_neigh_.ToVector());
  g.in_offsets_ = ArrayRef<EdgeId>(in_offsets_.ToVector());
  g.in_neigh_ = ArrayRef<NodeId>(in_neigh_.ToVector());
  return g;
}

bool Graph::HasEdge(NodeId src, NodeId dst) const {
  GORDER_DCHECK(src < num_nodes_ && dst < num_nodes_);
  auto nbrs = OutNeighbors(src);
  return std::binary_search(nbrs.begin(), nbrs.end(), dst);
}

Graph Graph::Relabel(const std::vector<NodeId>& perm) const {
  GORDER_OBS_SPAN(span, "graph.relabel");
  CheckPermutation(perm, num_nodes_);
  Graph g;
  g.num_nodes_ = num_nodes_;
  // Self-loops/duplicates were already handled at original construction;
  // the permutation copies whatever edges exist verbatim.
  std::vector<EdgeId> out_offsets, in_offsets;
  std::vector<NodeId> out_neigh, in_neigh;
  ParallelInvoke(
      [&] {
        RelabelCsr(num_nodes_, out_offsets_, out_neigh_, perm, out_offsets,
                   out_neigh);
      },
      [&] {
        RelabelCsr(num_nodes_, in_offsets_, in_neigh_, perm, in_offsets,
                   in_neigh);
      });
  g.out_offsets_ = ArrayRef<EdgeId>(std::move(out_offsets));
  g.out_neigh_ = ArrayRef<NodeId>(std::move(out_neigh));
  g.in_offsets_ = ArrayRef<EdgeId>(std::move(in_offsets));
  g.in_neigh_ = ArrayRef<NodeId>(std::move(in_neigh));
  GORDER_OBS_ADD(c_relabel_edges, g.out_neigh_.size() + g.in_neigh_.size());
  return g;
}

std::vector<Edge> Graph::ToEdges() const {
  std::vector<Edge> edges(out_neigh_.size());
  ParallelFor(0, num_nodes_, kNodeGrain, [&](std::size_t b, std::size_t e) {
    for (std::size_t v = b; v < e; ++v) {
      EdgeId out = out_offsets_[v];
      for (NodeId w : OutNeighbors(static_cast<NodeId>(v))) {
        edges[out++] = {static_cast<NodeId>(v), w};
      }
    }
  });
  return edges;
}

std::size_t Graph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(EdgeId) +
         out_neigh_.size() * sizeof(NodeId) +
         in_offsets_.size() * sizeof(EdgeId) +
         in_neigh_.size() * sizeof(NodeId);
}

void CheckPermutation(const std::vector<NodeId>& perm, NodeId n) {
  GORDER_CHECK(perm.size() == n);
  std::vector<bool> seen(n, false);
  for (NodeId p : perm) {
    GORDER_CHECK(p < n);
    GORDER_CHECK(!seen[p]);
    seen[p] = true;
  }
}

std::vector<NodeId> InvertPermutation(const std::vector<NodeId>& perm) {
  std::vector<NodeId> inv(perm.size());
  for (NodeId v = 0; v < perm.size(); ++v) inv[perm[v]] = v;
  return inv;
}

std::vector<NodeId> IdentityPermutation(NodeId n) {
  std::vector<NodeId> p(n);
  for (NodeId v = 0; v < n; ++v) p[v] = v;
  return p;
}

}  // namespace gorder

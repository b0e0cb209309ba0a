#include "order/gorder.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/unit_heap.h"
#include "util/logging.h"
#include "util/timer.h"

namespace gorder::order {

namespace {

// Inner-loop telemetry: `gorder.score_updates` counts every key bump
// applied (or deferred) by a window entry/exit, `gorder.lazy_refiles`
// counts pops re-filed to settle lazy-decrement debt, `gorder.places`
// counts nodes committed to the permutation. All are batched in the
// kernel and flushed once per ordering.
GORDER_OBS_COUNTER(c_score_updates, "gorder.score_updates");
GORDER_OBS_COUNTER(c_lazy_refiles, "gorder.lazy_refiles");
GORDER_OBS_COUNTER(c_places, "gorder.places");

// Prefetch distance (in ids) for adjacency scans: slots of ids this far
// ahead are pulled toward L1 while the current id is bumped. Heap slots
// are 16 bytes, adjacency ids 4, so the scan outruns the hardware
// streamer on the *indirect* slot accesses — exactly the pattern the
// paper blames for Gorder's own cost.
constexpr std::ptrdiff_t kPrefetchDist = 4;

/// The greedy loop, compiled per configuration so the per-edge branches
/// on the score terms, laziness and timing are hoisted out of the hot
/// path entirely. Semantically identical to the straightforward loop:
/// same bump order, same tie-breaks, bit-identical permutations.
template <bool kNeighbor, bool kSibling, bool kLazy, bool kTimed>
std::vector<NodeId> GorderKernel(const Graph& graph,
                                 const OrderingParams& params,
                                 GorderPhaseStats* stats) {
  const NodeId n = graph.NumNodes();
  // The window never holds more than n nodes, so a ring of min(w, n)
  // slots evicts exactly what a ring of w slots would (nothing, when
  // w >= n).
  const NodeId w = std::min(params.window, n);
  std::vector<NodeId> perm(n, kInvalidNode);

  Timer total_timer;
  double t_score = 0.0;
  double t_extract = 0.0;
  auto now = [&total_timer]() -> double {
    if constexpr (kTimed) return total_timer.Seconds();
    return 0.0;
  };

  UnitHeap heap(n);
  const NodeId hub_cap = params.gorder_hub_cap == 0
                             ? std::numeric_limits<NodeId>::max()
                             : params.gorder_hub_cap;
  const EdgeId* out_offsets = graph.out_offsets().data();
  const EdgeId* in_offsets = graph.in_offsets().data();
  const NodeId* in_neigh = graph.in_neighbors().data();

  // Live out-lists: a private copy of the out-adjacency in which list v
  // spans [out_offsets[v], live_end[v]). Every scan compacts the list it
  // walks, stably and in place, to the ids still in the heap. A node
  // leaves the heap only when it is placed and never comes back, so a
  // dropped id would only have cost a slot load and a no-op; the ids
  // kept stay in their relative order, so the ±1 relinks, and with them
  // the tie-breaks and the permutation, are those of a scan over the
  // graph's own lists. Placed nodes make up about half of all scanned
  // ids on social graphs (DESIGN.md §15).
  std::vector<NodeId> live(graph.out_neighbors().begin(),
                           graph.out_neighbors().end());
  std::vector<EdgeId> live_end(out_offsets + 1, out_offsets + n + 1);
  NodeId* const live_neigh = live.data();

  std::uint64_t score_updates = 0;
  std::uint64_t lazy_refiles = 0;
  std::uint64_t places = 0;

  // Applies `bump` to the live ids of v's out-list in order, with the
  // heap slots of ids kPrefetchDist ahead prefetched (split main/tail
  // loops keep the distance check out of the steady state), and keeps
  // the ids `bump` reports present. The store is unconditional and the
  // write cursor advances by the presence bit, so the filter adds no
  // branch; it trails the read cursor, so it never overwrites an id
  // still to be read or prefetched.
  auto scan = [&](NodeId v, auto&& bump) {
    NodeId* p = live_neigh + out_offsets[v];
    NodeId* const e = live_neigh + live_end[v];
    NodeId* keep = p;
    auto visit = [&](NodeId c) {
      *keep = c;
      keep += bump(c);
    };
    NodeId* const main_end = e - p > kPrefetchDist ? e - kPrefetchDist : p;
    for (; p != main_end; ++p) {
      heap.PrefetchSlot(p[kPrefetchDist]);
      visit(*p);
    }
    for (; p != e; ++p) visit(*p);
    live_end[v] = static_cast<EdgeId>(keep - live_neigh);
  };

  // Score delta caused by `ve` entering or leaving the window, owed to
  // every related node:
  //   - Sn: out-neighbours of ve (edge ve->c) and in-neighbours of ve
  //     (edge c->ve);
  //   - Ss: co-out-neighbours of each in-neighbour u of ve (common
  //     in-neighbour u), skipping hubs beyond gorder_hub_cap (tested on
  //     the full out-degree, not the live one).
  // The same rule applies on entry and exit, which keeps every key equal
  // to the (capped) score against the current window and never negative.
  auto apply = [&](NodeId ve, auto&& bump) {
    if constexpr (kNeighbor) scan(ve, bump);
    const NodeId* up = in_neigh + in_offsets[ve];
    const NodeId* ue = in_neigh + in_offsets[ve + 1];
    for (; up != ue; ++up) {
      const NodeId u = *up;
      if (up + kPrefetchDist < ue) heap.PrefetchSlot(up[kPrefetchDist]);
      if constexpr (kSibling) {
        // Cross-list prefetch: adjacency lists are short (average degree
        // ~10), so within-list prefetch alone cannot hide the miss on
        // the *next* sibling list. Pull the offsets a few in-neighbours
        // ahead and the first line of the next live list while this one
        // is scanned.
        if (up + 4 < ue) __builtin_prefetch(&out_offsets[up[4]]);
        if (up + 1 != ue) {
          __builtin_prefetch(live_neigh + out_offsets[up[1]]);
        }
      }
      if constexpr (kNeighbor) bump(u);
      if constexpr (kSibling) {
        if (out_offsets[u + 1] - out_offsets[u] > hub_cap) continue;
        scan(u, bump);
      }
    }
  };

  // Both return whether c was still in the heap, which is what `scan`
  // keeps.
  auto bump_enter = [&](NodeId c) -> bool {
    const bool present = heap.BumpBy(c, 1);
    score_updates += present;
    return present;
  };
  auto bump_exit = [&](NodeId c) -> bool {
    const bool present = kLazy ? heap.AddDebtBy(c, 1) : heap.BumpBy(c, -1);
    score_updates += present;
    return present;
  };

  // Seed: the maximum in-degree node (ties -> lowest id), as in the
  // reference implementation.
  NodeId seed = 0;
  {
    GORDER_OBS_SPAN(init_span, "gorder:init");
    for (NodeId v = 1; v < n; ++v) {
      if (graph.InDegree(v) > graph.InDegree(seed)) seed = v;
    }
  }
  double t_init = 0.0;
  if constexpr (kTimed) t_init = now();

  // Circular buffer holding the window (at most w most recent
  // placements).
  std::vector<NodeId> window(w, kInvalidNode);
  NodeId window_size = 0;
  NodeId window_head = 0;  // index of the oldest entry when full

  NodeId next_rank = 0;
  auto place = [&](NodeId v) {
    ++places;
    perm[v] = next_rank++;
    double t0 = 0.0;
    if constexpr (kTimed) t0 = now();
    apply(v, bump_enter);
    if (window_size == w) {
      NodeId oldest = window[window_head];
      apply(oldest, bump_exit);
      window[window_head] = v;
      window_head = window_head + 1 == w ? 0 : window_head + 1;
    } else {
      // head is 0 until the window first fills, so the next free slot
      // is just window_size.
      window[window_size] = v;
      ++window_size;
    }
    if constexpr (kTimed) t_score += now() - t0;
  };

  {
    GORDER_OBS_SPAN(greedy_span, "gorder:greedy");
    heap.Remove(seed);
    place(seed);
    while (next_rank < n) {
      double t0 = 0.0;
      if constexpr (kTimed) t0 = now();
      NodeId v = heap.ExtractMax();
      GORDER_DCHECK(v != kInvalidNode);
      if constexpr (kLazy) {
        while (heap.DebtOf(v) > 0) {
          // Stale key: settle the debt and re-file; the next pop yields
          // the true maximum (possibly v again, now with an exact key).
          ++lazy_refiles;
          std::int32_t true_key = heap.KeyOf(v) - heap.DebtOf(v);
          GORDER_DCHECK(true_key >= 0);
          heap.ClearDebt(v);
          heap.Insert(v, true_key);
          v = heap.ExtractMax();
          GORDER_DCHECK(v != kInvalidNode);
        }
      }
      if constexpr (kTimed) t_extract += now() - t0;
      place(v);
    }
    heap.FlushObsCounters();
    GORDER_OBS_ADD(c_score_updates, score_updates);
    GORDER_OBS_ADD(c_lazy_refiles, lazy_refiles);
    GORDER_OBS_ADD(c_places, places);
  }

  if constexpr (kTimed) {
    stats->total_seconds = total_timer.Seconds();
    stats->init_seconds = t_init;
    stats->score_seconds = t_score;
    stats->extract_seconds = t_extract;
    stats->window_seconds = std::max(
        0.0, stats->total_seconds - t_init - t_score - t_extract);
    stats->places = places;
    stats->score_updates = score_updates;
    stats->lazy_refiles = lazy_refiles;
  }
  return perm;
}

template <bool kTimed>
std::vector<NodeId> Dispatch(const Graph& graph,
                             const OrderingParams& params,
                             GorderPhaseStats* stats) {
  const bool nb = params.gorder_neighbor_score;
  const bool sib = params.gorder_sibling_score;
  const bool lazy = params.gorder_lazy_decrements;
  if (nb) {
    if (sib) {
      return lazy ? GorderKernel<true, true, true, kTimed>(graph, params,
                                                           stats)
                  : GorderKernel<true, true, false, kTimed>(graph, params,
                                                            stats);
    }
    return lazy ? GorderKernel<true, false, true, kTimed>(graph, params,
                                                          stats)
                : GorderKernel<true, false, false, kTimed>(graph, params,
                                                           stats);
  }
  if (sib) {
    return lazy ? GorderKernel<false, true, true, kTimed>(graph, params,
                                                          stats)
                : GorderKernel<false, true, false, kTimed>(graph, params,
                                                           stats);
  }
  return lazy ? GorderKernel<false, false, true, kTimed>(graph, params,
                                                         stats)
              : GorderKernel<false, false, false, kTimed>(graph, params,
                                                          stats);
}

}  // namespace

std::vector<NodeId> GorderOrder(const Graph& graph,
                                const OrderingParams& params,
                                GorderPhaseStats* stats) {
  GORDER_CHECK(params.window >= 1);
  if (graph.NumNodes() == 0) return {};
  if (stats != nullptr) {
    *stats = GorderPhaseStats{};
    return Dispatch<true>(graph, params, stats);
  }
  return Dispatch<false>(graph, params, stats);
}

}  // namespace gorder::order

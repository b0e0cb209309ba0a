#include "order/gorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "order/ordering.h"
#include "util/rng.h"

namespace gorder::order {
namespace {

Graph WebGraph(NodeId n = 1200, std::uint64_t seed = 21) {
  Rng rng(seed);
  return gen::CopyingModel(n, 6, 0.6, rng);
}

/// A small graph with every shape the greedy's tie-breaks meet:
/// in-degree hubs from the copying model, an out-hub far past the hub
/// cap used below, self-loops, duplicate edges (one list scanned twice
/// in one window update), a disconnected cycle with chords and ten
/// trailing isolated nodes.
Graph TieBreakGraph(std::uint64_t seed) {
  Rng rng(seed);
  const NodeId core = 90;
  Graph web = gen::CopyingModel(core, 4, 0.6, rng);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < core; ++v) {
    for (NodeId c : web.OutNeighbors(v)) edges.push_back({v, c});
  }
  const auto hub = static_cast<NodeId>(rng.Uniform(core));
  for (NodeId c = 0; c < core; c += 3) edges.push_back({hub, c});
  for (int i = 0; i < 8; ++i) {
    const auto v = static_cast<NodeId>(rng.Uniform(core));
    edges.push_back({v, v});
    const Edge dup = edges[rng.Uniform(edges.size())];
    edges.push_back(dup);
  }
  for (NodeId i = 0; i < 20; ++i) {
    edges.push_back({core + i, core + (i + 1) % 20});
    if (i % 4 == 0) edges.push_back({core + i, core + (i + 7) % 20});
  }
  return Graph::FromEdges(core + 30, std::move(edges),
                          /*keep_self_loops=*/true,
                          /*keep_duplicates=*/true);
}

/// Eager Gorder written from its tie-break rule alone, with no heap: the
/// next node is the argmax over unplaced nodes of (key, stamp). Every
/// applied ±1 restamps its node from a running clock; untouched nodes
/// hold stamps below every clock value, the lowest id highest. Window
/// entry is applied before the eviction it causes, and each update walks
/// out(ve), then every in-neighbour u of ve followed by out(u).
std::vector<NodeId> NaiveEagerGorder(const Graph& g,
                                     const OrderingParams& p) {
  const NodeId n = g.NumNodes();
  std::vector<std::int64_t> key(n, 0);
  std::vector<std::int64_t> stamp(n);
  for (NodeId v = 0; v < n; ++v) stamp[v] = -static_cast<std::int64_t>(v) - 1;
  std::vector<bool> placed(n, false);
  std::int64_t clock = 0;
  auto bump = [&](NodeId c, int delta) {
    if (placed[c]) return;
    key[c] += delta;
    stamp[c] = ++clock;
  };
  auto apply = [&](NodeId ve, int delta) {
    if (p.gorder_neighbor_score) {
      for (NodeId c : g.OutNeighbors(ve)) bump(c, delta);
    }
    for (NodeId u : g.InNeighbors(ve)) {
      if (p.gorder_neighbor_score) bump(u, delta);
      if (!p.gorder_sibling_score) continue;
      if (p.gorder_hub_cap != 0 && g.OutDegree(u) > p.gorder_hub_cap) continue;
      for (NodeId c : g.OutNeighbors(u)) bump(c, delta);
    }
  };
  std::vector<NodeId> perm(n, kInvalidNode);
  std::deque<NodeId> window;
  NodeId rank = 0;
  auto place = [&](NodeId v) {
    placed[v] = true;
    perm[v] = rank++;
    apply(v, +1);
    window.push_back(v);
    if (window.size() > p.window) {
      apply(window.front(), -1);
      window.pop_front();
    }
  };
  NodeId seed = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (g.InDegree(v) > g.InDegree(seed)) seed = v;
  }
  place(seed);
  while (rank < n) {
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == kInvalidNode || key[v] > key[best] ||
          (key[v] == key[best] && stamp[v] > stamp[best])) {
        best = v;
      }
    }
    place(best);
  }
  return perm;
}

TEST(GorderTest, ValidPermutationOnVariousGraphs) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Graph g = WebGraph(800, seed);
    auto perm = GorderOrder(g);
    CheckPermutation(perm, g.NumNodes());
  }
}

TEST(GorderTest, DeterministicAcrossRuns) {
  Graph g = WebGraph();
  EXPECT_EQ(GorderOrder(g), GorderOrder(g));
}

TEST(GorderTest, SeedIsMaxInDegreeNode) {
  Graph g = WebGraph();
  NodeId hub = 0;
  for (NodeId v = 1; v < g.NumNodes(); ++v) {
    if (g.InDegree(v) > g.InDegree(hub)) hub = v;
  }
  auto perm = GorderOrder(g);
  EXPECT_EQ(perm[hub], 0u);
}

TEST(GorderTest, WindowOneStillValid) {
  Graph g = WebGraph(500);
  OrderingParams p;
  p.window = 1;
  auto perm = GorderOrder(g, p);
  CheckPermutation(perm, g.NumNodes());
}

TEST(GorderTest, HugeWindowStillValid) {
  // The window never holds more than n nodes, so any w >= n orders like
  // w = n, and the ring is sized to n, not to w.
  Graph g = WebGraph(300);
  for (bool lazy : {false, true}) {
    OrderingParams at_n;
    at_n.window = g.NumNodes();
    at_n.gorder_lazy_decrements = lazy;
    const auto expect = GorderOrder(g, at_n);
    CheckPermutation(expect, g.NumNodes());
    for (NodeId w : {NodeId{10000}, std::numeric_limits<NodeId>::max()}) {
      OrderingParams p = at_n;
      p.window = w;
      EXPECT_EQ(GorderOrder(g, p), expect)
          << "window " << w << (lazy ? " lazy" : " eager");
    }
  }
}

TEST(GorderTest, EagerKernelFollowsTheTieBreakRule) {
  // The unit heap, the window ring and the live out-lists must add up
  // to the rule NaiveEagerGorder spells out, in every configuration:
  // 4 graphs x 5 windows x {full, sibling-only, neighbour-only, capped}.
  for (std::uint64_t seed : {1, 2, 3, 4}) {
    Graph g = TieBreakGraph(seed);
    for (NodeId w : {1u, 2u, 5u, 16u, g.NumNodes() + 50}) {
      for (int config = 0; config < 4; ++config) {
        OrderingParams p;
        p.window = w;
        p.gorder_neighbor_score = config != 1;
        p.gorder_sibling_score = config != 2;
        p.gorder_hub_cap = config == 3 ? 4 : 0;
        EXPECT_EQ(GorderOrder(g, p), NaiveEagerGorder(g, p))
            << "graph seed " << seed << ", window " << w << ", config "
            << config;
      }
    }
  }
}

TEST(GorderTest, ImprovesObjectiveOverBaselines) {
  Graph g = WebGraph(1500);
  OrderingParams p;
  p.window = 5;
  auto gorder = GorderOrder(g, p);
  Rng rng(4);
  auto random = RandomOrder(g, rng);
  std::uint64_t f_gorder = GorderScoreUnderPermutation(g, gorder, p.window);
  std::uint64_t f_orig = GorderScore(g, p.window);
  std::uint64_t f_random = GorderScoreUnderPermutation(g, random, p.window);
  EXPECT_GT(f_gorder, f_orig);
  EXPECT_GT(f_gorder, 2 * f_random);
}

TEST(GorderTest, GreedyIsNearUpperBoundOnTinyGraph) {
  // On a tiny graph, compare the greedy F against brute force over all
  // permutations (6! = 720). The paper guarantees 1/(2w); on graphs this
  // small the greedy should be well above that bound.
  Graph g = Graph::FromEdges(
      6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {0, 3}, {2, 5}, {1, 4}});
  const NodeId w = 2;
  std::vector<NodeId> perm = {0, 1, 2, 3, 4, 5};
  std::uint64_t best = 0;
  std::vector<NodeId> p = perm;
  std::sort(p.begin(), p.end());
  do {
    best = std::max(best, GorderScoreUnderPermutation(g, p, w));
  } while (std::next_permutation(p.begin(), p.end()));
  std::uint64_t greedy =
      GorderScoreUnderPermutation(g, GorderOrder(g, {.window = w}), w);
  EXPECT_GE(greedy * 2 * w, best);  // paper's 1/(2w) guarantee
  EXPECT_GE(greedy * 2, best);      // and empirically much closer
}

TEST(GorderTest, LargerWindowNeverHurtsObjectiveMuch) {
  // F(w) is monotone in w for a fixed permutation; the greedy optimises
  // its own window, so its score at window w, *evaluated at w*, should
  // weakly improve as w grows on sibling-rich graphs.
  Graph g = WebGraph(700);
  OrderingParams p3{.window = 3};
  OrderingParams p8{.window = 8};
  auto f3 = GorderScoreUnderPermutation(g, GorderOrder(g, p3), 3);
  auto f3_with8 = GorderScoreUnderPermutation(g, GorderOrder(g, p8), 3);
  // The w=8 ordering evaluated at window 3 can be slightly worse, but
  // not drastically: both chase the same locality.
  EXPECT_GT(f3_with8 * 2, f3);
}

TEST(GorderTest, AblationSiblingScoreMatters) {
  // On a copying-model web graph (sibling-rich), disabling the Ss term
  // must reduce the achieved F.
  Graph g = WebGraph(1500);
  OrderingParams full;
  OrderingParams no_sibling;
  no_sibling.gorder_sibling_score = false;
  auto f_full =
      GorderScoreUnderPermutation(g, GorderOrder(g, full), full.window);
  auto f_nosib = GorderScoreUnderPermutation(g, GorderOrder(g, no_sibling),
                                             full.window);
  EXPECT_GT(f_full, f_nosib);
}

TEST(GorderTest, AblationNeighborScoreMatters) {
  // On a sibling-free graph (a long cycle with scrambled ids — under
  // identity ids even a blind pop order would be optimal), only the Sn
  // term can guide the greedy; disabling it must destroy the objective.
  const NodeId n = 400;
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  Graph cycle = Graph::FromEdges(n, std::move(edges));
  Rng rng(17);
  auto shuffle = IdentityPermutation(n);
  rng.Shuffle(shuffle);
  Graph g = cycle.Relabel(shuffle);
  OrderingParams full;
  OrderingParams no_nbr;
  no_nbr.gorder_neighbor_score = false;
  auto f_full =
      GorderScoreUnderPermutation(g, GorderOrder(g, full), full.window);
  auto f_nonbr =
      GorderScoreUnderPermutation(g, GorderOrder(g, no_nbr), full.window);
  EXPECT_GT(f_full, 2 * std::max<std::uint64_t>(f_nonbr, 1));
}

TEST(GorderTest, HubCapTradesQualityForSpeed) {
  Graph g = WebGraph(1500);
  OrderingParams capped;
  capped.gorder_hub_cap = 4;  // aggressive cap
  OrderingParams uncapped;
  uncapped.gorder_hub_cap = 0;  // exact
  auto f_capped =
      GorderScoreUnderPermutation(g, GorderOrder(g, capped), 5);
  auto f_exact =
      GorderScoreUnderPermutation(g, GorderOrder(g, uncapped), 5);
  // Exact updates can only help the objective (statistically); allow a
  // little slack since the greedy is not monotone in information.
  EXPECT_GT(f_exact * 11, f_capped * 10);
  CheckPermutation(GorderOrder(g, capped), g.NumNodes());
}

TEST(GorderTest, DisconnectedGraphCovered) {
  Graph::Builder b;
  for (NodeId v = 0; v < 10; ++v) b.AddEdge(v, (v + 1) % 10);
  for (NodeId v = 100; v < 110; ++v) b.AddEdge(v, v + 1);
  b.ReserveNodes(120);
  Graph g = b.Build();
  auto perm = GorderOrder(g);
  CheckPermutation(perm, g.NumNodes());
}

TEST(GorderTest, SingleNodeAndEmpty) {
  Graph one = Graph::FromEdges(1, {});
  EXPECT_EQ(GorderOrder(one), std::vector<NodeId>{0});
  Graph zero;
  EXPECT_TRUE(GorderOrder(zero).empty());
}

TEST(GorderTest, ClusteredGraphKeepsCommunitiesContiguous) {
  // Two dense 16-cliques joined by one edge: Gorder should place each
  // clique's nodes in a contiguous-ish run. Measure: average |rank gap|
  // between same-clique pairs should be much smaller than n/2.
  std::vector<Edge> edges;
  auto add_clique = [&](NodeId base) {
    for (NodeId u = 0; u < 16; ++u) {
      for (NodeId v = 0; v < 16; ++v) {
        if (u != v) edges.push_back({base + u, base + v});
      }
    }
  };
  add_clique(0);
  add_clique(16);
  edges.push_back({0, 16});
  Graph g = Graph::FromEdges(32, std::move(edges));
  auto perm = GorderOrder(g);
  double intra_gap = 0;
  int pairs = 0;
  for (NodeId u = 0; u < 16; ++u) {
    for (NodeId v = u + 1; v < 16; ++v) {
      intra_gap += std::abs(static_cast<double>(perm[u]) - perm[v]);
      intra_gap += std::abs(static_cast<double>(perm[16 + u]) -
                            perm[16 + v]);
      pairs += 2;
    }
  }
  EXPECT_LT(intra_gap / pairs, 8.0);  // clique diameter in rank space
}

}  // namespace
}  // namespace gorder::order

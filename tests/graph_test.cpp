#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/generators.h"
#include "graph/stats.h"
#include "util/rng.h"

namespace gorder {
namespace {

Graph Diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
  Graph::Builder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(3, 0);
  return b.Build();
}

TEST(GraphTest, BasicCounts) {
  Graph g = Diamond();
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 5u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.UndirectedDegree(0), 3u);
}

TEST(GraphTest, NeighborsSorted) {
  Graph g = Diamond();
  auto n0 = g.OutNeighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  auto in3 = g.InNeighbors(3);
  ASSERT_EQ(in3.size(), 2u);
  EXPECT_EQ(in3[0], 1u);
  EXPECT_EQ(in3[1], 2u);
}

TEST(GraphTest, SelfLoopsAndDuplicatesStripped) {
  Graph::Builder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphTest, SelfLoopsKeptWhenRequested) {
  Graph g = Graph::FromEdges(2, {{0, 0}, {0, 1}}, /*keep_self_loops=*/true);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(GraphTest, IsolatedNodesAllowed) {
  Graph::Builder b;
  b.AddEdge(0, 1);
  b.ReserveNodes(10);
  Graph g = b.Build();
  EXPECT_EQ(g.NumNodes(), 10u);
  EXPECT_EQ(g.OutDegree(9), 0u);
  EXPECT_EQ(g.InDegree(9), 0u);
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, RelabelPreservesStructure) {
  Graph g = Diamond();
  std::vector<NodeId> perm = {3, 2, 1, 0};  // reverse
  Graph h = g.Relabel(perm);
  EXPECT_EQ(h.NumNodes(), g.NumNodes());
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  // Edge (u, v) in g iff (perm[u], perm[v]) in h.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(g.HasEdge(u, v), h.HasEdge(perm[u], perm[v]))
          << u << "->" << v;
    }
  }
}

TEST(GraphTest, RelabelRoundTripsThroughInverse) {
  Rng rng(21);
  Graph g = gen::ErdosRenyi(120, 900, rng);
  std::vector<NodeId> perm = IdentityPermutation(g.NumNodes());
  rng.Shuffle(perm);
  Graph back = g.Relabel(perm).Relabel(InvertPermutation(perm));
  EXPECT_EQ(back.out_offsets(), g.out_offsets());
  EXPECT_EQ(back.out_neighbors(), g.out_neighbors());
  EXPECT_EQ(back.in_offsets(), g.in_offsets());
  EXPECT_EQ(back.in_neighbors(), g.in_neighbors());
}

TEST(GraphTest, RelabelIdentityIsNoop) {
  Graph g = Diamond();
  Graph h = g.Relabel(IdentityPermutation(g.NumNodes()));
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
}

TEST(GraphTest, CloneIsDeepEqual) {
  Graph g = Diamond();
  Graph h = g.Clone();
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
}

TEST(PermutationTest, InvertRoundTrips) {
  std::vector<NodeId> perm = {2, 0, 3, 1};
  auto inv = InvertPermutation(perm);
  EXPECT_EQ(inv, (std::vector<NodeId>{1, 3, 0, 2}));
  EXPECT_EQ(InvertPermutation(inv), perm);
}

TEST(PermutationTest, IdentityIsIdentity) {
  auto id = IdentityPermutation(5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(id[v], v);
}

TEST(StatsTest, DiamondStats) {
  Graph g = Diamond();
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_nodes, 4u);
  EXPECT_EQ(s.num_edges, 5u);
  EXPECT_EQ(s.max_out_degree, 2u);
  EXPECT_EQ(s.max_in_degree, 2u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.25);
}

TEST(StatsTest, BandwidthAndArrangementCosts) {
  // Path 0 -> 1 -> 2: gaps are 1 and 1.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(Bandwidth(g), 1u);
  EXPECT_DOUBLE_EQ(LinearArrangementCost(g), 2.0);
  EXPECT_DOUBLE_EQ(LogArrangementCost(g), 0.0);  // log2(1) twice

  Graph far = Graph::FromEdges(8, {{0, 7}});
  EXPECT_EQ(Bandwidth(far), 7u);
  EXPECT_DOUBLE_EQ(LinearArrangementCost(far), 7.0);
  EXPECT_NEAR(LogArrangementCost(far), std::log2(7.0), 1e-12);
}

TEST(StatsTest, GorderScoreCountsNeighborsAndSiblings) {
  // 0 -> 2, 1 -> 2, 0 -> 1: with window 1, consecutive pairs are (0,1)
  // and (1,2). S(0,1): edge 0->1 => Sn=1; no common in-neighbour.
  // S(1,2): edge 1->2 => Sn=1; common in-neighbour 0 => Ss=1.
  Graph g = Graph::FromEdges(3, {{0, 2}, {1, 2}, {0, 1}});
  EXPECT_EQ(GorderScore(g, 1), 3u);
  // Window 2 adds pair (0,2): edge 0->2 => +1. Total 4.
  EXPECT_EQ(GorderScore(g, 2), 4u);
}

TEST(StatsTest, GorderScoreUnderPermutationMatchesRelabel) {
  Graph g = Graph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}, {4, 0}});
  std::vector<NodeId> perm = {4, 2, 0, 3, 1};
  Graph h = g.Relabel(perm);
  for (NodeId w = 1; w <= 4; ++w) {
    EXPECT_EQ(GorderScoreUnderPermutation(g, perm, w), GorderScore(h, w))
        << "window " << w;
  }
}

}  // namespace
}  // namespace gorder

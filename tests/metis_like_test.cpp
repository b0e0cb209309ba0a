#include "order/metis_like.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "order/ordering.h"
#include "util/rng.h"

namespace gorder::order {
namespace {

TEST(EdgeCutTest, CountsCrossingEdges) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(EdgeCut(g, {0, 0, 1, 1}), 2u);  // edges 1->2 and 3->0 cross
  EXPECT_EQ(EdgeCut(g, {0, 0, 0, 0}), 0u);
  EXPECT_EQ(EdgeCut(g, {0, 1, 0, 1}), 4u);
}

TEST(MetisLikeTest, ValidPermutationOnVariousGraphs) {
  Rng rng(1);
  for (auto make : {+[](Rng& r) { return gen::ErdosRenyi(500, 2500, r); },
                    +[](Rng& r) { return gen::CopyingModel(600, 5, 0.5, r); },
                    +[](Rng& r) {
                      return gen::Rmat({10, 5000, 0.57, 0.19, 0.19}, r);
                    }}) {
    Graph g = make(rng);
    auto perm = MetisLikeOrder(g);
    CheckPermutation(perm, g.NumNodes());
  }
}

TEST(MetisLikeTest, TrivialGraphs) {
  Graph empty;
  EXPECT_TRUE(MetisLikeOrder(empty).empty());
  Graph one = Graph::FromEdges(1, {});
  EXPECT_EQ(MetisLikeOrder(one), std::vector<NodeId>{0});
  Graph star = Graph::FromEdges(
      9, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}});
  CheckPermutation(MetisLikeOrder(star), star.NumNodes());
}

TEST(MetisLikeTest, DeterministicInSeed) {
  Rng rng(2);
  Graph g = gen::ErdosRenyi(400, 2000, rng);
  MetisLikeParams p;
  p.seed = 7;
  EXPECT_EQ(MetisLikeOrder(g, p), MetisLikeOrder(g, p));
  MetisLikeParams q;
  q.seed = 8;
  EXPECT_NE(MetisLikeOrder(g, p), MetisLikeOrder(g, q));
}

TEST(MetisLikeTest, SeparatesPlantedCommunities) {
  // Two dense communities bridged by a few edges: the first bisection
  // should essentially recover them, so same-community nodes end up in
  // the same half of the arrangement.
  Rng rng(3);
  std::vector<Edge> edges;
  auto dense = [&](NodeId base, NodeId size) {
    for (NodeId i = 0; i < size * 8; ++i) {
      NodeId u = base + static_cast<NodeId>(rng.Uniform(size));
      NodeId v = base + static_cast<NodeId>(rng.Uniform(size));
      if (u != v) edges.push_back({u, v});
    }
  };
  const NodeId half = 200;
  dense(0, half);
  dense(half, half);
  edges.push_back({0, half});
  edges.push_back({half, 1});
  Graph g = Graph::FromEdges(2 * half, std::move(edges));
  auto perm = MetisLikeOrder(g);
  // Count nodes of community 0 ranked in the first half.
  NodeId community0_in_front = 0;
  for (NodeId v = 0; v < half; ++v) {
    community0_in_front += perm[v] < half;
  }
  // Either nearly all or nearly none (the halves may be swapped).
  NodeId agreement = std::max(community0_in_front,
                              static_cast<NodeId>(half - community0_in_front));
  EXPECT_GE(agreement, half * 9 / 10);
}

TEST(MetisLikeTest, BeatsRandomOnLocalityMetrics) {
  Graph g = gen::MakeDataset("pokec", 0.15);
  auto metis_perm = ComputeOrdering(g, Method::kMetis, {});
  Rng rng(4);
  auto random_perm = RandomOrder(g, rng);
  Graph metis = g.Relabel(metis_perm);
  Graph random = g.Relabel(random_perm);
  EXPECT_LT(LinearArrangementCost(metis), LinearArrangementCost(random));
  EXPECT_GT(GorderScore(metis, 64), GorderScore(random, 64));
}

TEST(MetisLikeTest, LeafSizeControlsGranularity) {
  Rng rng(5);
  Graph g = gen::ErdosRenyi(300, 1500, rng);
  MetisLikeParams coarse;
  coarse.leaf_size = 150;
  MetisLikeParams fine;
  fine.leaf_size = 8;
  CheckPermutation(MetisLikeOrder(g, coarse), g.NumNodes());
  CheckPermutation(MetisLikeOrder(g, fine), g.NumNodes());
}

TEST(RegistryExtensionTest, ExtendedMethodsResolve) {
  EXPECT_EQ(AllMethodsExtended().size(), 16u);
  EXPECT_EQ(AllMethods().size(), 10u);
  for (auto [name, method] : {std::pair{"Metis", Method::kMetis},
                               std::pair{"DBG", Method::kDbg},
                               std::pair{"BOBA", Method::kBoba}}) {
    Method parsed = Method::kOriginal;
    EXPECT_TRUE(ParseMethod(name, &parsed)) << name;
    EXPECT_EQ(parsed, method) << name;
  }
  EXPECT_EQ(MethodName(Method::kHubSort), "HubSort");
  // Every extended method yields a valid permutation.
  Graph g = gen::MakeDataset("epinion", 0.05);
  OrderingParams params;
  params.sa_steps = 500;
  for (Method m : AllMethodsExtended()) {
    CheckPermutation(ComputeOrdering(g, m, params), g.NumNodes());
  }
}

}  // namespace
}  // namespace gorder::order

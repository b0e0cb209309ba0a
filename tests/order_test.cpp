#include "order/ordering.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "order/annealing.h"
#include "util/logging.h"

namespace gorder::order {
namespace {

Graph TestGraph(std::uint64_t seed = 1) {
  Rng rng(seed);
  return gen::Rmat({11, 16000, 0.57, 0.19, 0.19}, rng);
}

// ---- Every method on every structure must be a valid permutation ----

struct ValidityCase {
  Method method;
  const char* graph_kind;
};

class OrderingValidityTest
    : public ::testing::TestWithParam<std::tuple<Method, const char*>> {};

Graph MakeGraphKind(const std::string& kind) {
  Rng rng(99);
  if (kind == "rmat") return gen::Rmat({9, 4000, 0.57, 0.19, 0.19}, rng);
  if (kind == "er") return gen::ErdosRenyi(400, 1600, rng);
  if (kind == "web") return gen::CopyingModel(500, 6, 0.6, rng);
  if (kind == "disconnected") {
    // Three components of different flavours + isolated nodes.
    Graph::Builder b;
    for (NodeId v = 0; v < 10; ++v) b.AddEdge(v, (v + 1) % 10);
    for (NodeId v = 20; v < 30; ++v) {
      for (NodeId w = 20; w < 30; ++w) {
        if (v != w) b.AddEdge(v, w);
      }
    }
    b.AddEdge(40, 41);
    b.ReserveNodes(50);
    return b.Build();
  }
  if (kind == "singleton") return Graph::FromEdges(1, {});
  if (kind == "two_nodes") return Graph::FromEdges(2, {{0, 1}});
  GORDER_CHECK(false);
  __builtin_unreachable();
}

TEST_P(OrderingValidityTest, ProducesValidPermutation) {
  auto [method, kind] = GetParam();
  Graph g = MakeGraphKind(kind);
  OrderingParams params;
  params.sa_steps = 2000;  // keep annealing fast in tests
  auto perm = ComputeOrdering(g, method, params);
  CheckPermutation(perm, g.NumNodes());
}

INSTANTIATE_TEST_SUITE_P(
    MethodsTimesGraphs, OrderingValidityTest,
    ::testing::Combine(
        ::testing::ValuesIn(AllMethods()),
        ::testing::Values("rmat", "er", "web", "disconnected", "singleton",
                          "two_nodes")),
    [](const auto& info) {
      return MethodName(std::get<0>(info.param)) + std::string("_") +
             std::get<1>(info.param);
    });

// ---- Method registry ----

TEST(RegistryTest, NamesRoundTrip) {
  for (Method m : AllMethods()) {
    Method parsed = Method::kOriginal;
    EXPECT_TRUE(ParseMethod(MethodName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  EXPECT_EQ(AllMethods().size(), 10u);
  EXPECT_EQ(MethodName(Method::kGorder), "Gorder");
  EXPECT_EQ(MethodName(Method::kInDegSort), "InDegSort");
}

TEST(RegistryTest, UnknownNameIsRejectedWithoutAborting) {
  Method m = Method::kRandom;
  EXPECT_FALSE(ParseMethod("Gordr", &m));
  EXPECT_FALSE(ParseMethod("gorder", &m));  // names are case-sensitive
  EXPECT_FALSE(ParseMethod("", &m));
  EXPECT_EQ(m, Method::kRandom);  // untouched on a miss
}

// ---- Individual method properties ----

TEST(OriginalTest, IsIdentity) {
  Graph g = TestGraph();
  EXPECT_EQ(OriginalOrder(g), IdentityPermutation(g.NumNodes()));
}

TEST(RandomTest, DeterministicInSeedAndNotIdentity) {
  Graph g = TestGraph();
  OrderingParams p;
  p.seed = 5;
  auto a = ComputeOrdering(g, Method::kRandom, p);
  auto b = ComputeOrdering(g, Method::kRandom, p);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, IdentityPermutation(g.NumNodes()));
  p.seed = 6;
  EXPECT_NE(ComputeOrdering(g, Method::kRandom, p), a);
}

TEST(InDegSortTest, RanksDescendByInDegree) {
  Graph g = TestGraph();
  auto perm = InDegSortOrder(g);
  auto order = InvertPermutation(perm);
  for (NodeId r = 1; r < g.NumNodes(); ++r) {
    EXPECT_GE(g.InDegree(order[r - 1]), g.InDegree(order[r]));
  }
}

TEST(InDegSortTest, StableWithinEqualDegrees) {
  auto g = Graph::FromEdges(4, {{0, 1}, {2, 3}});  // in-degs: 0,1,0,1
  auto perm = InDegSortOrder(g);
  auto order = InvertPermutation(perm);
  EXPECT_EQ(order, (std::vector<NodeId>{1, 3, 0, 2}));
}

TEST(ChDfsTest, MatchesDfsDiscoveryOrder) {
  // ChDFS ordering relabels nodes by DFS discovery; running DFS on the
  // relabelled graph must then discover nodes in exactly id order.
  Graph g = TestGraph();
  auto perm = ChDfsOrder(g);
  CheckPermutation(perm, g.NumNodes());
  Graph h = g.Relabel(perm);
  auto again = ChDfsOrder(h);
  EXPECT_EQ(again, IdentityPermutation(h.NumNodes()));
}

TEST(RcmTest, ReducesBandwidthOnBandedGraph) {
  // A random ordering of a path graph has huge bandwidth; RCM restores
  // a near-minimal one.
  const NodeId n = 500;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  Graph path = Graph::FromEdges(n, std::move(edges));
  Rng rng(3);
  auto shuffled = IdentityPermutation(n);
  rng.Shuffle(shuffled);
  Graph scrambled = path.Relabel(shuffled);
  EXPECT_GT(Bandwidth(scrambled), 10u);
  Graph rcm = scrambled.Relabel(RcmOrder(scrambled));
  EXPECT_EQ(Bandwidth(rcm), 1u);  // a path relabels perfectly
}

TEST(RcmTest, ImprovesBandwidthOnRealisticGraph) {
  Graph g = TestGraph();
  Rng rng(4);
  Graph random = g.Relabel(RandomOrder(g, rng));
  Graph rcm = g.Relabel(RcmOrder(g));
  EXPECT_LT(Bandwidth(rcm) * 1.0, Bandwidth(random) * 1.0);
}

TEST(SlashBurnTest, HubsFirstIsolatesLast) {
  // Star graph: hub 0 with 20 leaves. SlashBurn must put the hub first
  // and all (then-isolated) leaves at the back.
  std::vector<Edge> edges;
  for (NodeId v = 1; v <= 20; ++v) edges.push_back({0, v});
  Graph g = Graph::FromEdges(21, std::move(edges));
  auto perm = SlashBurnOrder(g);
  EXPECT_EQ(perm[0], 0u);
  for (NodeId v = 1; v <= 20; ++v) EXPECT_GE(perm[v], 1u);
}

TEST(SlashBurnTest, FrontRanksHaveHigherDegree) {
  Graph g = TestGraph();
  auto perm = SlashBurnOrder(g);
  auto order = InvertPermutation(perm);
  // The first selected hub is a max-degree node.
  NodeId first = order[0];
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_GE(g.UndirectedDegree(first), g.UndirectedDegree(v));
  }
}

TEST(LdgTest, BinsRespectCapacityAndClusterNeighbors) {
  Graph g = TestGraph();
  const NodeId k = 64;
  auto perm = LdgOrder(g, k);
  CheckPermutation(perm, g.NumNodes());
  // With bins of k consecutive ranks, co-binned nodes should include
  // many neighbours: the average rank gap under LDG must beat random.
  Rng rng(5);
  Graph ldg = g.Relabel(perm);
  Graph random = g.Relabel(RandomOrder(g, rng));
  EXPECT_LT(LogArrangementCost(ldg), LogArrangementCost(random));
}

TEST(LdgTest, TinyCapacityWorks) {
  Graph g = MakeGraphKind("er");
  auto perm = LdgOrder(g, 1);  // degenerate: every node its own bin
  CheckPermutation(perm, g.NumNodes());
}

// ---- Annealing ----

TEST(AnnealingTest, LocalSearchNeverIncreasesEnergy) {
  Graph g = MakeGraphKind("er");
  double before = ArrangementEnergyOf(g, ArrangementEnergy::kLinear);
  Rng rng(6);
  auto r = AnnealArrangement(g, ArrangementEnergy::kLinear, 20000, 0.0, rng);
  EXPECT_LE(r.final_energy, before);
  CheckPermutation(r.perm, g.NumNodes());
  // Tracked incremental energy must match a from-scratch evaluation.
  Graph relabeled = g.Relabel(r.perm);
  EXPECT_NEAR(ArrangementEnergyOf(relabeled, ArrangementEnergy::kLinear),
              r.final_energy, 1e-6 * std::max(1.0, r.final_energy));
}

TEST(AnnealingTest, LogEnergyTrackedCorrectly) {
  Graph g = MakeGraphKind("web");
  Rng rng(7);
  auto r = AnnealArrangement(g, ArrangementEnergy::kLog, 20000, 0.0, rng);
  Graph relabeled = g.Relabel(r.perm);
  EXPECT_NEAR(ArrangementEnergyOf(relabeled, ArrangementEnergy::kLog),
              r.final_energy, 1e-6 * std::abs(r.final_energy) + 1e-6);
}

TEST(AnnealingTest, HugeStandardEnergyAcceptsAlmostEverything) {
  // Replication Figure 3 observation (b): very large k accepts all swaps
  // and the arrangement stays near random (high energy).
  Graph g = MakeGraphKind("er");
  Rng rng1(8), rng2(8);
  auto hot = AnnealArrangement(g, ArrangementEnergy::kLinear, 5000, 1e12,
                               rng1);
  auto cold = AnnealArrangement(g, ArrangementEnergy::kLinear, 5000, 0.0,
                                rng2);
  EXPECT_GT(hot.accepted_swaps, cold.accepted_swaps);
  EXPECT_GT(hot.final_energy, cold.final_energy);
}

TEST(AnnealingTest, MoreStepsNoWorse) {
  Graph g = MakeGraphKind("er");
  Rng rng1(9), rng2(9);
  auto brief = AnnealArrangement(g, ArrangementEnergy::kLinear, 1000, 0.0,
                                 rng1);
  auto lengthy = AnnealArrangement(g, ArrangementEnergy::kLinear, 50000, 0.0,
                                   rng2);
  EXPECT_LE(lengthy.final_energy, brief.final_energy);
}

TEST(AnnealingTest, TrivialGraphsSafe) {
  Graph g1 = Graph::FromEdges(1, {});
  Rng rng(10);
  auto r = AnnealArrangement(g1, ArrangementEnergy::kLinear, 100, 1.0, rng);
  EXPECT_EQ(r.perm.size(), 1u);
  EXPECT_EQ(r.final_energy, 0.0);
}

// ---- Cross-method comparisons on a realistic graph ----

TEST(CrossMethodTest, GorderScoreRanking) {
  // Gorder's objective F must be highest under Gorder's own ordering —
  // that is the whole point — and Random must be worst among the
  // locality-aware methods.
  Graph g = gen::MakeDataset("epinion", 0.08);
  const NodeId w = 5;
  OrderingParams params;
  params.sa_steps = 20000;

  auto score_of = [&](Method m) {
    auto perm = ComputeOrdering(g, m, params);
    return GorderScoreUnderPermutation(g, perm, w);
  };
  auto gorder_score = score_of(Method::kGorder);
  auto original = score_of(Method::kOriginal);
  auto random = score_of(Method::kRandom);
  auto rcm = score_of(Method::kRcm);
  EXPECT_GT(gorder_score, original);
  EXPECT_GT(gorder_score, random);
  EXPECT_GT(gorder_score, rcm);
  EXPECT_GT(rcm, random);
}

}  // namespace
}  // namespace gorder::order

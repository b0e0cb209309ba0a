#include "gen/generators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/crawl_order.h"
#include "gen/datasets.h"
#include "graph/stats.h"

namespace gorder {
namespace {

using gen::AllDatasets;
using gen::MakeDataset;

TEST(ErdosRenyiTest, ExactEdgeCountNoSelfLoops) {
  Rng rng(1);
  Graph g = gen::ErdosRenyi(100, 500, rng);
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 500u);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

TEST(ErdosRenyiTest, DeterministicInSeed) {
  Rng a(42), b(42);
  Graph g = gen::ErdosRenyi(80, 300, a);
  Graph h = gen::ErdosRenyi(80, 300, b);
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
}

TEST(BarabasiAlbertTest, SkewedInDegrees) {
  Rng rng(3);
  Graph g = gen::BarabasiAlbert(2000, 4, rng);
  EXPECT_EQ(g.NumNodes(), 2000u);
  GraphStats s = ComputeStats(g);
  // Preferential attachment: the max in-degree hub collects far more
  // than the average (which is ~4).
  EXPECT_GT(s.max_in_degree, 40u);
}

TEST(RmatTest, SizesAndSkew) {
  Rng rng(4);
  gen::RmatParams p;
  p.scale = 12;
  p.num_edges = 40000;
  Graph g = gen::Rmat(p, rng);
  EXPECT_EQ(g.NumNodes(), 4096u);
  // Dedup/self-loop removal eats some samples, but most survive.
  EXPECT_GT(g.NumEdges(), 25000u);
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_out_degree, 100u);  // heavy-tailed
}

TEST(CopyingModelTest, SiblingStructure) {
  Rng rng(5);
  Graph g = gen::CopyingModel(3000, 8, 0.6, rng);
  EXPECT_EQ(g.NumNodes(), 3000u);
  EXPECT_GT(g.NumEdges(), 3000u * 4u);
  // Copying creates shared out-neighbours: the identity-window Gorder
  // score of a copying graph should comfortably exceed an ER graph of
  // the same size (which has essentially no sibling pairs).
  Rng rng2(5);
  Graph er = gen::ErdosRenyi(3000, g.NumEdges(), rng2);
  EXPECT_GT(GorderScore(g, 5) * 1.0, GorderScore(er, 5) * 1.0);
}

TEST(WattsStrogatzTest, DegreeAndRewire) {
  Rng rng(6);
  Graph g = gen::WattsStrogatz(500, 3, 0.1, rng);
  EXPECT_EQ(g.NumNodes(), 500u);
  // Each node emits 2k directed edges (both directions), minus dedup.
  EXPECT_GT(g.NumEdges(), 500u * 4u);
}

TEST(PlantedPartitionTest, IntraCommunityDominance) {
  Rng rng(7);
  gen::PlantedPartitionParams p;
  p.num_nodes = 2000;
  p.num_communities = 20;
  p.avg_degree = 10;
  p.mixing = 0.1;
  Graph g = gen::PlantedPartition(p, rng);
  EXPECT_EQ(g.NumNodes(), 2000u);
  EXPECT_GT(g.NumEdges(), 15000u);
}

TEST(ConfigurationModelTest, RealisesDegreesUpToErasure) {
  Rng rng(3);
  std::vector<NodeId> out = {3, 2, 1, 0, 2};
  std::vector<NodeId> in = {1, 1, 2, 3, 1};
  Graph g = gen::DirectedConfigurationModel(out, in, rng);
  EXPECT_EQ(g.NumNodes(), 5u);
  // Erased model: realised degrees never exceed requested.
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_LE(g.OutDegree(v), out[v]);
    EXPECT_LE(g.InDegree(v), in[v]);
  }
  EXPECT_LE(g.NumEdges(), 8u);
  EXPECT_GE(g.NumEdges(), 5u);  // most stubs survive at this density
}

TEST(PowerLawDegreesTest, BoundsAndSkew) {
  Rng rng(4);
  auto degrees = gen::SamplePowerLawDegrees(20000, 2.2, 2, 500, rng);
  NodeId lo = 500, hi = 0;
  double sum = 0;
  for (NodeId d : degrees) {
    lo = std::min(lo, d);
    hi = std::max(hi, d);
    sum += d;
  }
  EXPECT_EQ(lo, 2u);
  EXPECT_GT(hi, 100u);                      // heavy tail reached
  EXPECT_LE(hi, 500u);
  EXPECT_LT(sum / degrees.size(), 12.0);    // mean stays small
}

TEST(PowerLawConfigurationGraphTest, BuildsSkewedGraph) {
  Rng rng(5);
  Graph g = gen::PowerLawConfigurationGraph(3000, 2.3, 2, 200, rng);
  EXPECT_EQ(g.NumNodes(), 3000u);
  EXPECT_GT(g.NumEdges(), 6000u);
  GraphStats s = ComputeStats(g);
  EXPECT_GT(s.max_in_degree, 50u);
}

TEST(CrawlOrderTest, ValidPermutationCoveringAllNodes) {
  Rng rng(8);
  Graph g = gen::ErdosRenyi(300, 900, rng);
  auto perm = gen::MakeCrawlOrderPermutation(g, 0.1, rng);
  CheckPermutation(perm, g.NumNodes());
}

TEST(CrawlOrderTest, ZeroJumpImprovesLocalityOverRandom) {
  Rng rng(9);
  gen::PlantedPartitionParams p;
  p.num_nodes = 1500;
  p.num_communities = 30;
  Graph g = gen::PlantedPartition(p, rng);
  auto crawl = gen::MakeCrawlOrderPermutation(g, 0.0, rng);
  Graph crawled = g.Relabel(crawl);
  std::vector<NodeId> shuffled = IdentityPermutation(g.NumNodes());
  rng.Shuffle(shuffled);
  Graph random = g.Relabel(shuffled);
  EXPECT_LT(LinearArrangementCost(crawled), LinearArrangementCost(random));
}

TEST(CrawlOrderTest, HandlesDisconnectedGraph) {
  // Two components + isolated node.
  Graph g = Graph::FromEdges(5, {{0, 1}, {2, 3}});
  Rng rng(10);
  auto perm = gen::MakeCrawlOrderPermutation(g, 0.5, rng);
  CheckPermutation(perm, 5);
}

TEST(DatasetRegistryTest, HasNineDatasetsInPaperOrder) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(all.front().name, "epinion");
  EXPECT_EQ(all.back().name, "sdarc");
  // Sizes must be ascending like the paper's Table 1 ordering.
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].sim_edges, all[i].sim_edges) << all[i].name;
  }
}

TEST(DatasetRegistryTest, SpecLookup) {
  const auto& spec = gen::GetDatasetSpec("wiki");
  EXPECT_EQ(spec.category, "web");
  EXPECT_EQ(spec.generator, "copying");
}

TEST(DatasetRegistryTest, SmallScaleGenerationDeterministic) {
  Graph a = MakeDataset("epinion", 0.1, 42);
  Graph b = MakeDataset("epinion", 0.1, 42);
  EXPECT_EQ(a.ToEdges(), b.ToEdges());
  Graph c = MakeDataset("epinion", 0.1, 43);
  EXPECT_NE(a.ToEdges(), c.ToEdges());
}

class DatasetParamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetParamTest, GeneratesReasonableGraphAtTinyScale) {
  const std::string name = GetParam();
  Graph g = MakeDataset(name, 0.05);
  const auto& spec = gen::GetDatasetSpec(name);
  EXPECT_GT(g.NumNodes(), 50u);
  EXPECT_GT(g.NumEdges(), 100u);
  // Within a loose band of the requested size (generators dedup).
  EXPECT_LT(g.NumNodes(), static_cast<NodeId>(spec.sim_nodes * 0.05 * 3));
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_FALSE(g.HasEdge(v, v));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetParamTest,
                         ::testing::Values("epinion", "pokec", "flickr",
                                           "livejournal", "wiki", "gplus",
                                           "pldarc", "twitter", "sdarc"));

}  // namespace
}  // namespace gorder

// End-to-end pipeline tests: generate a dataset stand-in, compute every
// ordering, relabel, run the full workload battery, and check global
// invariants across the whole grid — a miniature of the Figure 5
// experiment with correctness assertions instead of timings.

#include <gtest/gtest.h>

#include <map>

#include "core/gorder_lib.h"

namespace gorder {
namespace {

class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, FullGridConsistent) {
  Graph g = gen::MakeDataset(GetParam(), 0.03);
  auto config = harness::MakeDefaultConfig(g, /*num_diam_sources=*/3);
  config.pagerank_iterations = 3;
  auto identity = IdentityPermutation(g.NumNodes());

  // Reference checksums on the original numbering.
  std::map<harness::Workload, std::uint64_t> reference;
  for (harness::Workload w : harness::AllWorkloads()) {
    reference[w] = harness::RunWorkload(g, w, config, identity);
  }

  order::OrderingParams params;
  params.sa_steps = 500;
  for (order::Method m : order::AllMethods()) {
    auto perm = order::ComputeOrdering(g, m, params);
    CheckPermutation(perm, g.NumNodes());
    Graph h = g.Relabel(perm);
    EXPECT_EQ(h.NumEdges(), g.NumEdges()) << order::MethodName(m);

    // Order-invariant workloads must agree exactly with the reference.
    for (harness::Workload w :
         {harness::Workload::kNq, harness::Workload::kScc,
          harness::Workload::kSp, harness::Workload::kKcore,
          harness::Workload::kDiam}) {
      EXPECT_EQ(harness::RunWorkload(h, w, config, perm), reference[w])
          << order::MethodName(m) << "/" << harness::WorkloadName(w);
    }
    // Order-sensitive workloads still have structural invariants.
    auto bfs = algo::BfsForest(h);
    EXPECT_EQ(bfs.num_reached, g.NumNodes()) << order::MethodName(m);
    auto dfs = algo::DfsForest(h);
    EXPECT_EQ(dfs.num_reached, g.NumNodes()) << order::MethodName(m);
    auto ds = algo::DominatingSet(h);
    EXPECT_TRUE(algo::IsDominatingSet(h, ds.in_set)) << order::MethodName(m);
    auto pr = algo::PageRank(h, 3);
    EXPECT_NEAR(pr.total_mass, 1.0, 1e-9) << order::MethodName(m);
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, PipelineTest,
                         ::testing::Values("epinion", "wiki", "pokec"));

TEST(CacheImprovementTest, GorderBeatsRandomOnMissRate) {
  // The paper's central claim, in miniature: for PageRank, Gorder's
  // numbering must produce a lower simulated L1 miss rate than Random,
  // and no more memory traffic than Original.
  // Scale 0.8 puts the per-node PageRank state (~8 B/node) well past the
  // scaled hierarchy's 256 KiB L3, the regime where ordering decides how
  // much traffic reaches memory — the paper's operating point.
  Graph g = gen::MakeDataset("wiki", 0.8);
  auto config = harness::MakeDefaultConfig(g);
  config.pagerank_iterations = 2;

  auto miss_rate = [&](order::Method m) {
    auto perm = order::ComputeOrdering(g, m, {});
    Graph h = g.Relabel(perm);
    cachesim::CacheHierarchy caches(
        cachesim::CacheHierarchyConfig::ScaledBench());
    harness::RunWorkloadTraced(h, harness::Workload::kPr, config, perm,
                               caches);
    return caches.stats();
  };

  auto gorder_stats = miss_rate(order::Method::kGorder);
  auto random_stats = miss_rate(order::Method::kRandom);
  auto original_stats = miss_rate(order::Method::kOriginal);

  // Same logical work => same number of references (paper Table 3's
  // observation that L1-refs barely move across orderings).
  EXPECT_NEAR(static_cast<double>(gorder_stats.l1_refs),
              static_cast<double>(random_stats.l1_refs),
              0.02 * random_stats.l1_refs);
  EXPECT_LT(gorder_stats.L1MissRate(), random_stats.L1MissRate());
  EXPECT_LT(gorder_stats.OverallMissRate(), random_stats.OverallMissRate());
  EXPECT_LE(gorder_stats.L1MissRate(), original_stats.L1MissRate() * 1.05);
}

TEST(EndToEndIoTest, OrderPersistAndReload) {
  // Generate -> order -> relabel -> write -> read -> identical results.
  Graph g = gen::MakeDataset("epinion", 0.02);
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, {});
  Graph h = g.Relabel(perm);
  std::string path = std::string(::testing::TempDir()) + "/pipeline.gpack";
  ASSERT_TRUE(store::WritePack(path, h).ok);
  Graph reloaded;
  ASSERT_TRUE(store::LoadPack(path, &reloaded).ok);
  EXPECT_EQ(algo::Nq(h).checksum, algo::Nq(reloaded).checksum);
  EXPECT_EQ(algo::KCore(h).max_core, algo::KCore(reloaded).max_core);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gorder

#include "harness/experiment.h"

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "gen/datasets.h"
#include "harness/ranking.h"
#include "order/ordering.h"

namespace gorder::harness {
namespace {

TEST(WorkloadRegistryTest, NineWorkloadsInPaperOrder) {
  const auto& all = AllWorkloads();
  ASSERT_EQ(all.size(), 9u);
  EXPECT_EQ(WorkloadName(all.front()), "NQ");
  EXPECT_EQ(WorkloadName(all.back()), "Diam");
  EXPECT_EQ(WorkloadName(Workload::kPr), "PR");
}

TEST(ConfigTest, SpSourceIsMaxOutDegree) {
  Graph g = Graph::FromEdges(4, {{2, 0}, {2, 1}, {2, 3}, {0, 1}});
  auto config = MakeDefaultConfig(g, 3);
  EXPECT_EQ(config.sp_source_logical, 2u);
  EXPECT_EQ(config.diam_sources_logical.size(), 3u);
  for (NodeId s : config.diam_sources_logical) EXPECT_LT(s, 4u);
}

class ChecksumInvarianceTest
    : public ::testing::TestWithParam<order::Method> {};

TEST_P(ChecksumInvarianceTest, OrderInvariantWorkloadsAgreeWithOriginal) {
  Graph g = gen::MakeDataset("epinion", 0.05);
  auto config = MakeDefaultConfig(g);
  config.pagerank_iterations = 5;
  auto identity = IdentityPermutation(g.NumNodes());

  order::OrderingParams params;
  params.sa_steps = 1000;
  auto perm = order::ComputeOrdering(g, GetParam(), params);
  Graph h = g.Relabel(perm);

  // These workloads produce numbering-independent checksums when sources
  // are mapped through the permutation.
  for (Workload w : {Workload::kNq, Workload::kScc, Workload::kSp,
                     Workload::kKcore, Workload::kDiam}) {
    EXPECT_EQ(RunWorkload(g, w, config, identity),
              RunWorkload(h, w, config, perm))
        << WorkloadName(w) << " under " << order::MethodName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ChecksumInvarianceTest,
    ::testing::Values(order::Method::kRandom, order::Method::kRcm,
                      order::Method::kGorder, order::Method::kSlashBurn),
    [](const auto& info) { return order::MethodName(info.param); });

TEST(TracedConsistencyTest, TracedMatchesUntracedChecksums) {
  Graph g = gen::MakeDataset("epinion", 0.03);
  auto config = MakeDefaultConfig(g);
  config.pagerank_iterations = 3;
  auto identity = IdentityPermutation(g.NumNodes());
  cachesim::CacheHierarchy caches(cachesim::CacheHierarchyConfig::TestTiny());
  for (Workload w : AllWorkloads()) {
    caches.Flush();
    EXPECT_EQ(RunWorkload(g, w, config, identity),
              RunWorkloadTraced(g, w, config, identity, caches))
        << WorkloadName(w);
    EXPECT_GT(caches.stats().l1_refs, 0u) << WorkloadName(w);
  }
}

TEST(TimeWorkloadTest, ReturnsPositiveMedian) {
  Graph g = gen::MakeDataset("epinion", 0.02);
  auto config = MakeDefaultConfig(g);
  config.pagerank_iterations = 2;
  double t = TimeWorkload(g, Workload::kNq, config,
                          IdentityPermutation(g.NumNodes()), 3);
  EXPECT_GE(t, 0.0);
}

// ---- Ranking ----

TEST(RankingTest, ExactRanksSimple) {
  //              method:  0     1     2
  std::vector<std::vector<double>> times = {
      {1.0, 2.0, 3.0},
      {2.0, 1.0, 3.0},
      {1.0, 2.0, 3.0},
  };
  auto table = RankSeries(times);
  EXPECT_EQ(table.num_series, 3);
  EXPECT_EQ(table.counts[0][0], 2);  // method 0 best twice
  EXPECT_EQ(table.counts[1][0], 1);
  EXPECT_EQ(table.counts[2][2], 3);  // method 2 always last
  EXPECT_DOUBLE_EQ(table.MeanRank(2), 2.0);
}

TEST(RankingTest, EqualTimesShareBetterRank) {
  std::vector<std::vector<double>> times = {{1.0, 1.0, 2.0}};
  auto table = RankSeries(times);
  EXPECT_EQ(table.counts[0][0], 1);
  EXPECT_EQ(table.counts[1][0], 1);
  EXPECT_EQ(table.counts[2][2], 1);  // rank skips to 2 after a tie
}

TEST(RankingTest, TieRatioBucketsSlowMethods) {
  // With the paper's 1.5x cap, 1.6 and 5.0 are both "beyond the limit"
  // and tie; without it they rank apart.
  std::vector<std::vector<double>> times = {{1.0, 1.6, 5.0}};
  auto exact = RankSeries(times, 0.0);
  EXPECT_EQ(exact.counts[1][1], 1);
  EXPECT_EQ(exact.counts[2][2], 1);
  auto capped = RankSeries(times, 1.5);
  EXPECT_EQ(capped.counts[1][1], 1);
  EXPECT_EQ(capped.counts[2][1], 1);  // shares the bucket
}

// The bench binaries take datasets from the nine-entry registry only: a
// huge-tier name is a usage error with the list of valid names, not an
// abort inside the generator.
TEST(BenchOptionsDeathTest, HugeDatasetNameExitsWithValidNames) {
  const char* argv[] = {"bench", "--tier=huge", "--datasets=rmat-huge"};
  EXPECT_EXIT(bench::BenchOptions::Parse(3, const_cast<char**>(argv), 1.0),
              testing::ExitedWithCode(2),
              "unknown dataset 'rmat-huge' in --datasets\nvalid names: ");
}

// A scale the generators cannot honour is a usage error naming the
// range, not an abort inside the generator.
TEST(BenchOptionsDeathTest, ScaleOutOfRangeExitsWithTheRange) {
  for (const char* scale : {"--scale=0", "--scale=nan"}) {
    const char* argv[] = {"bench", scale};
    EXPECT_EXIT(bench::BenchOptions::Parse(2, const_cast<char**>(argv), 1.0),
                testing::ExitedWithCode(2),
                "flag --scale: .* is out of range \\(0, [0-9]+] for "
                "dataset")
        << scale;
  }
}

TEST(RankingTest, EmptyInputSafe) {
  auto table = RankSeries({});
  EXPECT_EQ(table.num_series, 0);
  EXPECT_TRUE(table.counts.empty());
}

}  // namespace
}  // namespace gorder::harness

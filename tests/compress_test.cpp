#include "compress/compressed_graph.h"

#include <gtest/gtest.h>

#include "compress/varint.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "order/ordering.h"
#include "util/rng.h"

namespace gorder::compress {
namespace {

TEST(VarintTest, RoundTripsValues) {
  std::vector<std::uint8_t> buf;
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384,
                                       (1ULL << 32) - 1, ~0ULL};
  for (auto v : values) AppendVarint(v, buf);
  std::size_t pos = 0;
  for (auto v : values) EXPECT_EQ(ReadVarint(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, SizeMatchesEncoding) {
  for (std::uint64_t v : {0ULL, 127ULL, 128ULL, 99999ULL, ~0ULL}) {
    std::vector<std::uint8_t> buf;
    AppendVarint(v, buf);
    EXPECT_EQ(buf.size(), VarintSize(v)) << v;
  }
}

TEST(ZigZagTest, RoundTripsSigned) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 63LL, -64LL, 1LL << 40,
                         -(1LL << 40)}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v) << v;
  }
  // Small magnitudes map to small codes.
  EXPECT_LE(ZigZagEncode(-3), 6u);
}

TEST(CompressedGraphTest, RoundTripsSmallGraph) {
  Graph g = Graph::FromEdges(5, {{0, 1}, {0, 4}, {1, 2}, {3, 0}, {4, 3}});
  auto cg = CompressedGraph::FromGraph(g);
  EXPECT_EQ(cg.NumNodes(), g.NumNodes());
  EXPECT_EQ(cg.NumEdges(), g.NumEdges());
  Graph back = cg.Decompress();
  EXPECT_EQ(back.ToEdges(), g.ToEdges());
}

TEST(CompressedGraphTest, ForEachMatchesCsr) {
  Rng rng(1);
  Graph g = gen::Rmat({10, 8000, 0.57, 0.19, 0.19}, rng);
  auto cg = CompressedGraph::FromGraph(g);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    std::vector<NodeId> got;
    cg.ForEachOutNeighbor(v, [&](NodeId w) { got.push_back(w); });
    auto expect = g.OutNeighbors(v);
    ASSERT_EQ(got.size(), expect.size()) << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]);
    }
  }
}

TEST(CompressedGraphTest, EmptyAndIsolated) {
  Graph empty;
  auto cg = CompressedGraph::FromGraph(empty);
  EXPECT_EQ(cg.NumNodes(), 0u);
  EXPECT_EQ(cg.PayloadBytes(), 0u);

  Graph::Builder b;
  b.AddEdge(0, 1);
  b.ReserveNodes(10);
  Graph g = b.Build();
  auto cg2 = CompressedGraph::FromGraph(g);
  EXPECT_EQ(cg2.OutDegree(5), 0u);
  int count = 0;
  cg2.ForEachOutNeighbor(5, [&](NodeId) { ++count; });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(cg2.Decompress().ToEdges(), g.ToEdges());
}

TEST(CompressedGraphTest, LocalOrderingCompressesBetter) {
  // The headline property: a locality-aware ordering shrinks the gap
  // encoding. Compare Gorder/RCM against Random on a web-like graph.
  Graph g = gen::MakeDataset("wiki", 0.2);
  auto bits = [&](order::Method m) {
    auto perm = order::ComputeOrdering(g, m, {});
    return CompressedGraph::FromGraph(g.Relabel(perm)).BitsPerEdge();
  };
  double random = bits(order::Method::kRandom);
  double gorder = bits(order::Method::kGorder);
  double rcm = bits(order::Method::kRcm);
  EXPECT_LT(gorder, random);
  EXPECT_LT(rcm, random);
}

TEST(CompressedGraphTest, DenseRunsApproachOneBytePerEdge) {
  // Consecutive neighbours encode as gap-1 = 0 -> one byte each.
  const NodeId n = 1000;
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 8 < n; ++v) {
    for (NodeId k = 1; k <= 8; ++k) edges.push_back({v, v + k});
  }
  Graph g = Graph::FromEdges(n, std::move(edges));
  auto cg = CompressedGraph::FromGraph(g);
  EXPECT_LT(cg.BitsPerEdge(), 9.0);  // ~8 bits/edge for unit gaps
}

TEST(CompressedGraphTest, PayloadSmallerThanCsrOnRealGraph) {
  Graph g = gen::MakeDataset("sdarc", 0.1);
  auto cg = CompressedGraph::FromGraph(g);
  // CSR out-neighbours alone cost 32 bits/edge.
  EXPECT_LT(cg.BitsPerEdge(), 32.0);
  EXPECT_EQ(cg.Decompress().NumEdges(), g.NumEdges());
}

}  // namespace
}  // namespace gorder::compress

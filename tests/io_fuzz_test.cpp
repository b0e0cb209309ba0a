// Randomised robustness tests: malformed edge-list inputs must produce
// clean errors (never crashes), and DynamicGraph must agree with a naive
// reference under random mutation sequences.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "graph/dynamic_graph.h"
#include "graph/edgelist_io.h"
#include "util/rng.h"

namespace gorder {
namespace {

class MalformedInputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MalformedInputTest, RejectedWithoutCrashing) {
  auto path = std::filesystem::temp_directory_path() / "gorder_fuzz.txt";
  {
    std::ofstream out(path);
    out << GetParam();
  }
  Graph g;
  IoResult r = ReadEdgeList(path.string(), &g);
  // Some inputs are legal-but-weird (accepted); the property under test
  // is: no crash, and on failure a nonempty error message.
  if (!r.ok) {
    EXPECT_FALSE(r.error.empty());
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MalformedInputTest,
    ::testing::Values("garbage\n",                       // no numbers
                      "1\n",                             // one endpoint
                      "1 2 3\n",                         // extra column OK
                      "-5 3\n",                          // negative id
                      "999999999999999999 1\n",          // overflow id
                      "3.14 2\n",                        // float id
                      "1 2\x01\x02\n",                   // binary junk
                      "",                                // empty file
                      "# only a comment\n",              // comments only
                      "1 2\n\n\n3 4\n"));                // blank lines

TEST(DynamicGraphFuzzTest, MatchesSetReferenceUnderRandomOps) {
  Rng rng(78);
  const NodeId max_nodes = 60;
  DynamicGraph dyn;
  std::set<std::pair<NodeId, NodeId>> ref;
  NodeId nodes = 0;
  for (int step = 0; step < 5000; ++step) {
    if (nodes < 2 || rng.Uniform(10) == 0) {
      if (nodes < max_nodes) {
        dyn.AddNode();
        ++nodes;
      }
      continue;
    }
    NodeId u = static_cast<NodeId>(rng.Uniform(nodes));
    NodeId v = static_cast<NodeId>(rng.Uniform(nodes));
    bool added = dyn.AddEdge(u, v);
    bool ref_added = u != v && ref.insert({u, v}).second;
    ASSERT_EQ(added, ref_added) << u << "->" << v << " step " << step;
  }
  EXPECT_EQ(dyn.NumEdges(), ref.size());
  // Snapshot agrees edge-for-edge.
  Graph g = dyn.ToCsr();
  EXPECT_EQ(g.NumEdges(), ref.size());
  for (const auto& [u, v] : ref) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

}  // namespace
}  // namespace gorder

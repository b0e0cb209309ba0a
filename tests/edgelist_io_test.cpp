#include "graph/edgelist_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gen/generators.h"
#include "store/gpack.h"
#include "util/rng.h"

namespace gorder {
namespace {

class IoTest : public ::testing::Test {
 protected:
  // One directory per test: under `ctest -j` every case runs in its own
  // process, and a shared directory would be removed by another case's
  // TearDown while this one still uses it.
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("gorder_io_test_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  Rng rng(1);
  Graph g = gen::ErdosRenyi(50, 200, rng);
  ASSERT_TRUE(WriteEdgeList(Path("g.txt"), g).ok);
  Graph h;
  ASSERT_TRUE(ReadEdgeList(Path("g.txt"), &h).ok);
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
}

TEST_F(IoTest, SkipsCommentsAndBlankLines) {
  WriteFile("c.txt", "# snap comment\n% konect comment\n\n0 1\n  1 2\n");
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("c.txt"), &g).ok);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST_F(IoTest, TabSeparatedAccepted) {
  WriteFile("t.txt", "0\t5\n5\t2\n");
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("t.txt"), &g).ok);
  EXPECT_EQ(g.NumNodes(), 6u);
  EXPECT_TRUE(g.HasEdge(0, 5));
}

TEST_F(IoTest, LongLinesParsedCorrectly) {
  // The old fgets(256)-based reader silently split lines longer than 255
  // bytes: the tail of a long comment came back as a second "line" and
  // could be parsed as a bogus edge. Build a file where every failure
  // mode of that reader is present.
  std::string content;
  content += "# long comment " + std::string(300, 'x') + " 7 8\n";
  content += "0" + std::string(300, ' ') + "1\n";      // huge gap
  content += "1 2" + std::string(300, ' ') + "\n";     // long tail
  content += "2 3";                                    // no trailing newline
  WriteFile("long.txt", content);
  Graph g;
  ASSERT_TRUE(ReadEdgeList(Path("long.txt"), &g).ok);
  EXPECT_EQ(g.NumEdges(), 3u);
  // The comment tail (" 7 8") must not have become an edge or grown the
  // node count past the real ids 0..3.
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(2, 3));
}

// The second input also makes the reader refill its 1 MiB buffer many
// times and grow it for a 3 MiB line before the bad line arrives.
TEST_F(IoTest, MalformedLongLineReportsRightLineNumber) {
  std::string refills;
  for (int i = 0; i < 200000; ++i) refills += "12345 67890\n";  // 2.4 MB
  refills += "# " + std::string(3 << 20, 'c') + "\n1 2\nnot an edge\n";
  const std::pair<std::string, const char*> cases[] = {
      {"0 1\n# " + std::string(500, 'c') + "\nbogus\n", ":3:"},
      {refills, ":200003:"},
  };
  for (const auto& [content, line] : cases) {
    WriteFile("longbad.txt", content);
    Graph g;
    IoResult r = ReadEdgeList(Path("longbad.txt"), &g);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find(line), std::string::npos) << r.error;
  }
}

TEST_F(IoTest, MalformedLineRejectedWithLineNumber) {
  WriteFile("bad.txt", "0 1\nnot an edge\n");
  Graph g;
  IoResult r = ReadEdgeList(Path("bad.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":2"), std::string::npos) << r.error;
}

TEST_F(IoTest, MissingFileRejected) {
  Graph g;
  EXPECT_FALSE(ReadEdgeList(Path("missing.txt"), &g).ok);
}

TEST_F(IoTest, HugeNodeIdRejected) {
  WriteFile("huge.txt", "0 99999999999999\n");
  Graph g;
  IoResult r = ReadEdgeList(Path("huge.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("32-bit"), std::string::npos) << r.error;
}

// The writers stage to a temp file and rename into place; a successful
// write must leave exactly the final file, no `.tmp.*` debris.
TEST_F(IoTest, WritersLeaveNoStagingDebris) {
  Rng rng(4);
  Graph g = gen::BarabasiAlbert(50, 2, rng);
  ASSERT_TRUE(WriteEdgeList(Path("clean.txt"), g).ok);
  ASSERT_TRUE(store::WritePack(Path("clean.gpack"), g).ok);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST_F(IoTest, EmptyGraphRoundTrips) {
  Graph g;
  ASSERT_TRUE(store::WritePack(Path("empty.gpack"), g).ok);
  Graph h = Graph::FromEdges(3, {{0, 1}});  // overwritten below
  ASSERT_TRUE(store::LoadPack(Path("empty.gpack"), &h).ok);
  EXPECT_EQ(h.NumNodes(), 0u);
  EXPECT_EQ(h.NumEdges(), 0u);
}

}  // namespace
}  // namespace gorder

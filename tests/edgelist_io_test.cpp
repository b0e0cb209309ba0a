#include "graph/edgelist_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gen/generators.h"
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

TEST_F(IoTest, MalformedLongLineReportsRightLineNumber) {
  std::string content = "0 1\n# " + std::string(500, 'c') + "\nbogus\n";
  WriteFile("longbad.txt", content);
  Graph g;
  IoResult r = ReadEdgeList(Path("longbad.txt"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":3"), std::string::npos) << r.error;
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

TEST_F(IoTest, BinaryRoundTrip) {
  Rng rng(2);
  Graph g = gen::BarabasiAlbert(200, 3, rng);
  ASSERT_TRUE(WriteBinary(Path("g.bin"), g).ok);
  Graph h;
  ASSERT_TRUE(ReadBinary(Path("g.bin"), &h).ok);
  EXPECT_EQ(g.ToEdges(), h.ToEdges());
  EXPECT_EQ(g.NumNodes(), h.NumNodes());
}

TEST_F(IoTest, BinaryBadMagicRejected) {
  WriteFile("junk.bin", "this is not a graph file at all");
  Graph g;
  IoResult r = ReadBinary(Path("junk.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("magic"), std::string::npos) << r.error;
}

TEST_F(IoTest, BinaryTruncatedRejected) {
  Rng rng(3);
  Graph g = gen::ErdosRenyi(100, 500, rng);
  ASSERT_TRUE(WriteBinary(Path("full.bin"), g).ok);
  // Truncate the file to cut into the neighbour array.
  auto size = std::filesystem::file_size(Path("full.bin"));
  std::filesystem::resize_file(Path("full.bin"), size / 2);
  Graph h;
  EXPECT_FALSE(ReadBinary(Path("full.bin"), &h).ok);
}

// Regression: the header's node/edge counts are attacker-controlled and
// used to size allocations. A crafted header with m near 2^62 used to
// ask std::vector for a multi-exabyte buffer before any other check ran
// (bad_alloc at best, OOM-killed test runner at worst); both counts must
// be bounded against the actual file size before anything is allocated.
TEST_F(IoTest, BinaryCraftedHeaderCountsRejectedBeforeAllocating) {
  auto write_header = [&](const std::string& name, std::uint64_t n,
                          std::uint64_t m) {
    std::ofstream out(Path(name), std::ios::binary);
    out.write("GORDER01", 8);
    out.write(reinterpret_cast<const char*>(&n), sizeof n);
    out.write(reinterpret_cast<const char*>(&m), sizeof m);
    // A sliver of payload so the file is not just a truncated header.
    const std::uint64_t zero = 0;
    out.write(reinterpret_cast<const char*>(&zero), sizeof zero);
  };
  Graph g;
  write_header("huge_m.bin", 0, std::uint64_t{1} << 61);
  IoResult r = ReadBinary(Path("huge_m.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("implausible"), std::string::npos) << r.error;

  write_header("huge_n.bin", 0xFFFFFFFFULL, 0);
  r = ReadBinary(Path("huge_n.bin"), &g);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("implausible"), std::string::npos) << r.error;

  write_header("too_big_n.bin", std::uint64_t{1} << 33, 0);
  EXPECT_FALSE(ReadBinary(Path("too_big_n.bin"), &g).ok);
}

// The writers stage to a temp file and rename into place; a successful
// write must leave exactly the final file, no `.tmp.*` debris.
TEST_F(IoTest, WritersLeaveNoStagingDebris) {
  Rng rng(4);
  Graph g = gen::BarabasiAlbert(50, 2, rng);
  ASSERT_TRUE(WriteEdgeList(Path("clean.txt"), g).ok);
  ASSERT_TRUE(WriteBinary(Path("clean.bin"), g).ok);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST_F(IoTest, EmptyGraphRoundTrips) {
  Graph g;
  ASSERT_TRUE(WriteBinary(Path("empty.bin"), g).ok);
  Graph h = Graph::FromEdges(3, {{0, 1}});  // overwritten below
  ASSERT_TRUE(ReadBinary(Path("empty.bin"), &h).ok);
  EXPECT_EQ(h.NumNodes(), 0u);
  EXPECT_EQ(h.NumEdges(), 0u);
}

}  // namespace
}  // namespace gorder

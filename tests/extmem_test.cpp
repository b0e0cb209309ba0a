// src/extmem edge cases: the external CSR build must be byte-identical
// to store::WritePack of the equivalent in-memory graph in every corner
// — empty graphs, reserved isolated nodes, single-run and multi-run
// builds, run boundaries landing inside one vertex's adjacency,
// duplicates and self-loops scattered across chunks, and forced
// multi-pass merges. The pack bytes themselves are pinned too, so the
// two paths cannot drift together. Plus the streaming ingest (text edge
// lists, chunked R-MAT).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "util/hash.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("gorder_extmem_") + info->test_suite_name() +
                     "_" + info->name() + "_" + tag;
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  return (fs::temp_directory_path() / name).string();
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The expected bytes of a pack file: its size and the FNV-1a 64 of the
/// whole file. Comparing two writers shows they agree; these pin what
/// they agree on, so a change to the format itself cannot pass silently.
struct PinnedBytes {
  std::uint64_t size;
  std::uint64_t fnv1a64;
};

/// Builds a pack with ExtPackBuilder from `edges` (fed in the given
/// order), asserts it is byte-identical to WritePack of the equivalent
/// in-memory graph, and that both match `pinned`.
void ExpectPackIdentical(const std::vector<Edge>& edges, NodeId reserve_nodes,
                         const extmem::ExtmemOptions& options,
                         PinnedBytes pinned,
                         extmem::ExtBuildStats* stats_out = nullptr) {
  TempFile ext_pack(TempPath("ext.gpack"));
  TempFile mem_pack(TempPath("mem.gpack"));

  extmem::ExtPackBuilder builder(options);
  ASSERT_TRUE(builder.Begin(ext_pack.path).ok);
  if (reserve_nodes > 0) builder.ReserveNodes(reserve_nodes);
  for (const Edge& e : edges) ASSERT_TRUE(builder.Add(e.src, e.dst).ok);
  IoResult r = builder.Finish();
  ASSERT_TRUE(r.ok) << r.error;
  if (stats_out != nullptr) *stats_out = builder.stats();

  Graph::Builder mem_builder(reserve_nodes);
  for (const Edge& e : edges) mem_builder.AddEdge(e.src, e.dst);
  const Graph graph = mem_builder.Build();
  ASSERT_TRUE(store::WritePack(mem_pack.path, graph).ok);

  const std::string ext_bytes = ReadAll(ext_pack.path);
  const std::string mem_bytes = ReadAll(mem_pack.path);
  ASSERT_EQ(ext_bytes.size(), mem_bytes.size());
  EXPECT_TRUE(ext_bytes == mem_bytes)
      << "extmem pack differs from in-memory pack";
  EXPECT_EQ(ext_bytes.size(), pinned.size);
  EXPECT_EQ(util::Fnv1a64(ext_bytes.data(), ext_bytes.size()), pinned.fnv1a64);

  // The pack must also verify end-to-end (CRCs + fingerprint).
  EXPECT_TRUE(store::VerifyPack(ext_pack.path).ok);

  // No scratch debris may survive a successful build.
  const fs::path dir = fs::path(ext_pack.path).parent_path();
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(
                  fs::path(ext_pack.path).filename().string() + ".fwd"),
              std::string::npos)
        << "leftover scratch: " << entry.path();
  }
}

extmem::ExtmemOptions TinyOptions(std::size_t run_buffer_edges,
                                  std::size_t fanin = 64) {
  extmem::ExtmemOptions options;
  options.mem_budget_bytes = 4ull << 20;
  options.run_buffer_edges = run_buffer_edges;
  options.merge_fanin = fanin;
  return options;
}

TEST(ExtCsrTest, EmptyGraph) {
  ExpectPackIdentical({}, 0, TinyOptions(8), {320, 0x44a6c3dd4dd8b70b});
}

TEST(ExtCsrTest, ReservedIsolatedNodes) {
  ExpectPackIdentical({}, 7, TinyOptions(8), {320, 0x494820d9acd76a7b});
}

TEST(ExtCsrTest, SelfLoopOnlyGrowsNodeCount) {
  // (7,7) is dropped but must still make the graph 8 nodes — exactly
  // Graph::Builder's AddEdge-then-strip semantics.
  ExpectPackIdentical({{7, 7}}, 0, TinyOptions(8), {448, 0x46664e41c9ff2544});
}

TEST(ExtCsrTest, SingleChunkSmallGraph) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 0}};
  ExpectPackIdentical(edges, 0, TinyOptions(1024), {404, 0xa39cd6e32eb853a5});
}

TEST(ExtCsrTest, ChunkBoundaryInsideOneVertexAdjacency) {
  // A star whose adjacency list spans many runs: node 0 has 23
  // out-neighbors fed in descending order with a 4-edge run buffer, so
  // every run boundary lands inside node 0's adjacency and the merge
  // must reassemble the sorted list across runs.
  std::vector<Edge> edges;
  for (NodeId v = 23; v >= 1; --v) edges.push_back({0, v});
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(4), {924, 0x77ce236239bba2ad},
                      &stats);
  EXPECT_GE(stats.runs_written, 5u);
}

TEST(ExtCsrTest, DuplicatesAndSelfLoopsAcrossChunks) {
  // Duplicates of the same edge land in different runs (buffer 3), with
  // self-loops interleaved; dedup + loop-strip must match FromEdges.
  std::vector<Edge> edges;
  for (int rep = 0; rep < 6; ++rep) {
    edges.push_back({1, 2});
    edges.push_back({static_cast<NodeId>(rep % 4), static_cast<NodeId>(rep % 4)});
    edges.push_back({2, 1});
    edges.push_back({0, 3});
  }
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(3), {396, 0xe9920b423cd20723},
                      &stats);
  EXPECT_GT(stats.runs_written, 1u);
  EXPECT_EQ(stats.edges_final, 3u);  // {1,2},{2,1},{0,3}
}

TEST(ExtCsrTest, MultiPassMergeCompaction) {
  // fanin 2 with a 4-edge buffer over a shuffled 600-edge stream forces
  // several compaction passes; output must still be byte-identical.
  std::vector<Edge> edges;
  Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Uniform(40)),
                     static_cast<NodeId>(rng.Uniform(40))});
  }
  extmem::ExtBuildStats stats;
  ExpectPackIdentical(edges, 0, TinyOptions(4, 2), {4900, 0xea94bf0535c1d037},
                      &stats);
  EXPECT_GT(stats.merge_passes, 0u);
}

TEST(ExtCsrTest, LargerShuffledGraphWithTinyBudget) {
  std::vector<Edge> edges;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    edges.push_back({static_cast<NodeId>(rng.Uniform(500)),
                     static_cast<NodeId>(rng.Uniform(500))});
  }
  ExpectPackIdentical(edges, 0, TinyOptions(512, 4),
                      {162208, 0x3f816a15c653c728});
}

TEST(ExtCsrTest, ShuffledRegistryGraph) {
  // A registry graph at the differential test's scale, fed shuffled:
  // hubs, communities and a realistic degree spread, pinned byte for byte.
  const Graph graph = gen::MakeDataset("epinion", 0.12, 42);
  std::vector<Edge> edges = graph.ToEdges();
  Rng rng(1234);
  rng.Shuffle(edges);
  ExpectPackIdentical(edges, graph.NumNodes(), TinyOptions(4096),
                      {61316, 0x77bb1bf3a2fe6ade});
}

TEST(ExternalEdgeSorterTest, SortsIdsOfEveryWidth) {
  // The other cases keep ids below 500, so the radix sort's higher digits
  // never differ there. Here ids are 1 to 32 bits wide, 0 and 0xFFFFFFFE
  // included; duplicates and self-loops are mixed in and the stream is
  // shuffled. Buffers of 3 and 5 (and 4096 over an odd count) split into
  // unequal halves; a buffer of 2 spills every pair.
  std::vector<NodeId> ids = {0, 0xFFFFFFFEu};
  Rng rng(11);
  for (int bits = 1; bits <= 32; ++bits) {
    const std::uint64_t low = std::uint64_t{1} << (bits - 1);
    ids.push_back(static_cast<NodeId>(low + rng.Uniform(low)));
  }
  std::vector<Edge> edges;
  for (int i = 0; i < 500; ++i) {
    const NodeId src = ids[rng.Uniform(ids.size())];
    edges.push_back({src, ids[rng.Uniform(ids.size())]});
  }
  for (NodeId v : ids) edges.push_back({v, v});
  for (int i = 0; i < 65; ++i) {
    const Edge duplicate = edges[rng.Uniform(edges.size())];
    edges.push_back(duplicate);
  }
  ASSERT_EQ(edges.size() % 2, 1u);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.Uniform(i)]);
  }
  std::vector<Edge> expected = edges;
  auto less = [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  };
  std::sort(expected.begin(), expected.end(), less);
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  for (std::size_t buffer : {2, 3, 5, 4096}) {
    SCOPED_TRACE("run_buffer_edges=" + std::to_string(buffer));
    extmem::ExternalEdgeSorter sorter(TinyOptions(buffer));
    ASSERT_TRUE(sorter.Create(TempPath(std::to_string(buffer))).ok);
    ASSERT_TRUE(sorter.AddBatch(edges.data(), edges.size()).ok);
    extmem::ExtBuildStats stats;
    ASSERT_TRUE(sorter.Finish(&stats).ok);
    EXPECT_EQ(stats.runs_written,
              (edges.size() + buffer - 1) / buffer + stats.merge_passes);
    extmem::MergeStream merge;
    ASSERT_TRUE(sorter.OpenMerge(&merge).ok);
    std::vector<Edge> replay;
    while (true) {
      Edge e;
      bool eof = false;
      ASSERT_TRUE(merge.Next(&e, &eof).ok);
      if (eof) break;
      replay.push_back(e);
    }
    EXPECT_TRUE(replay == expected);
  }
}

// ---------------------------------------------------------------------------
// Text edge-list streaming ingest

// The grammar corners, checked against hand-built edge lists: the
// stream must deliver exactly these edges in text order, and
// ReadEdgeList (which reads through the same StreamEdgeList) must build
// exactly their graph.
TEST(EdgeListStreamTest, MatchesReadEdgeList) {
  struct Case {
    std::string text;
    std::vector<Edge> edges;
  };
  const Case cases[] = {
      {"# comment header\n"
       "0 1\n1 2\n% konect comment\n2 0\n"
       "  3\t4  trailing junk\n"
       "4 4\n"   // self-loop
       "1 2\n",  // duplicate
       {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 4}, {1, 2}}},
      {"0 1\r\n\r\n1 2\r\n", {{0, 1}, {1, 2}}},  // CRLF, an empty line
      {"0 1\n\r\n1 2\n", {{0, 1}, {1, 2}}},  // LF, one empty CRLF line
      {"0 1\n1 2\n   ", {{0, 1}, {1, 2}}},   // blank tail, no newline
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::PrintToString(c.text));
    TempFile txt(TempPath("graph.txt"));
    {
      std::ofstream out(txt.path, std::ios::binary);
      out << c.text;
    }
    std::vector<Edge> streamed;
    NodeId max_node = 0;
    bool saw_node = false;
    IoResult r = StreamEdgeList(
        txt.path,
        [&](const Edge* edges, std::size_t count) {
          streamed.insert(streamed.end(), edges, edges + count);
          return IoResult::Ok();
        },
        &max_node, &saw_node);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(streamed == c.edges);
    EXPECT_TRUE(saw_node);
    NodeId hi = 0;
    for (const Edge& e : c.edges) hi = std::max({hi, e.src, e.dst});
    EXPECT_EQ(max_node, hi);

    Graph read;
    IoResult rr = ReadEdgeList(txt.path, &read);
    ASSERT_TRUE(rr.ok) << rr.error;
    const Graph expected = Graph::FromEdges(hi + 1, c.edges);
    EXPECT_EQ(read.NumNodes(), expected.NumNodes());
    EXPECT_EQ(read.out_offsets(), expected.out_offsets());
    EXPECT_EQ(read.out_neighbors(), expected.out_neighbors());
  }
}

TEST(EdgeListStreamTest, ReportsLineNumberOnError) {
  TempFile txt(TempPath("bad.txt"));
  {
    std::ofstream out(txt.path);
    out << "0 1\n1 2\nnot an edge\n2 3\n";
  }
  IoResult r = StreamEdgeList(
      txt.path, [](const Edge*, std::size_t) { return IoResult::Ok(); });
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find(":3:"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("malformed"), std::string::npos) << r.error;
}

TEST(EdgeListStreamTest, StreamToPackMatchesInMemoryPipeline) {
  TempFile txt(TempPath("graph.txt"));
  {
    std::ofstream out(txt.path);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
      out << rng.Uniform(300) << ' ' << rng.Uniform(300) << '\n';
    }
  }
  TempFile ext_pack(TempPath("ext.gpack"));
  TempFile mem_pack(TempPath("mem.gpack"));
  extmem::ExtBuildStats stats;
  IoResult r = extmem::StreamEdgeListToPack(txt.path, ext_pack.path,
                                            TinyOptions(777), &stats);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(stats.edges_ingested, 5000u);

  Graph graph;
  ASSERT_TRUE(ReadEdgeList(txt.path, &graph).ok);
  ASSERT_TRUE(store::WritePack(mem_pack.path, graph).ok);
  EXPECT_TRUE(ReadAll(ext_pack.path) == ReadAll(mem_pack.path));
}

// ---------------------------------------------------------------------------
// Chunked R-MAT

TEST(StreamRmatTest, DeterministicAndInRange) {
  gen::RmatParams params;
  params.scale = 10;
  params.num_edges = 5000;
  auto collect = [&](std::size_t chunk_edges) {
    std::vector<Edge> edges;
    IoResult r = gen::StreamRmat(params, 42, {.chunk_edges = chunk_edges},
                                 [&](const Edge* e, std::size_t n) {
                                   edges.insert(edges.end(), e, e + n);
                                   return IoResult::Ok();
                                 });
    EXPECT_TRUE(r.ok);
    return edges;
  };
  const auto a = collect(512);
  const auto b = collect(512);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b) << "StreamRmat not deterministic";
  EXPECT_FALSE(a.empty());
  for (const Edge& e : a) {
    EXPECT_LT(e.src, 1u << 10);
    EXPECT_LT(e.dst, 1u << 10);
    EXPECT_NE(e.src, e.dst);  // self-loop attempts skipped
  }
}

TEST(StreamRmatTest, StreamsIntoExtmemPackBitIdentically) {
  gen::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  const NodeId n = static_cast<NodeId>(1) << params.scale;

  TempFile ext_pack(TempPath("rmat_ext.gpack"));
  TempFile mem_pack(TempPath("rmat_mem.gpack"));

  extmem::ExtPackBuilder builder(TinyOptions(777));
  ASSERT_TRUE(builder.Begin(ext_pack.path).ok);
  builder.ReserveNodes(n);
  Graph::Builder mem_builder(n);
  IoResult r = gen::StreamRmat(params, 11, {.chunk_edges = 600},
                               [&](const Edge* e, std::size_t count) {
                                 for (std::size_t i = 0; i < count; ++i) {
                                   mem_builder.AddEdge(e[i].src, e[i].dst);
                                 }
                                 return builder.AddBatch(e, count);
                               });
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(builder.Finish().ok);
  ASSERT_TRUE(store::WritePack(mem_pack.path, mem_builder.Build()).ok);
  EXPECT_TRUE(ReadAll(ext_pack.path) == ReadAll(mem_pack.path));
}

TEST(StreamRmatTest, PropagatesSinkError) {
  gen::RmatParams params;
  params.scale = 8;
  params.num_edges = 10000;
  int calls = 0;
  IoResult r = gen::StreamRmat(params, 1, {.chunk_edges = 100},
                               [&](const Edge*, std::size_t) {
                                 return ++calls >= 3
                                            ? IoResult::Error("sink full")
                                            : IoResult::Ok();
                               });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "sink full");
  EXPECT_EQ(calls, 3);
}

// ---------------------------------------------------------------------------
// Memory estimates

TEST(MemoryEstimateTest, TracksGraphSize) {
  const auto small = extmem::EstimateMemory(1000, 10000);
  const auto big = extmem::EstimateMemory(1000000, 10000000);
  EXPECT_GT(small.pack_file_bytes, 0u);
  EXPECT_GT(big.pack_file_bytes, small.pack_file_bytes);
  EXPECT_GT(big.copy_load_bytes, small.copy_load_bytes);
  EXPECT_GT(big.inmem_build_peak_bytes, big.copy_load_bytes);
  EXPECT_GT(big.gorder_state_bytes, 0u);
  // Semi-external Gorder copies the out-lists into RAM, so at a fixed n
  // its estimate grows by at least one id per extra edge.
  const auto denser = extmem::EstimateMemory(1000, 30000);
  EXPECT_GE(denser.gorder_state_bytes - small.gorder_state_bytes,
            20000 * sizeof(NodeId));
  // The estimate of the mapped pack must match the real file layout.
  EXPECT_EQ(small.pack_file_bytes, store::PackFileBytes(1000, 10000));
}

}  // namespace
}  // namespace gorder

// src/store round-trip and cache-correctness tests: gpack write -> load
// (both mmap and copy) must be bit-identical to the in-memory graph,
// algorithm kernels must not care whether the CSR is owned or mapped (at
// any thread count), and the ordering artifact cache must return exactly
// what was saved — and nothing when the key does not match.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/gorder_lib.h"
#include "util/atomic_file.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

/// Per-test unique temp path (tests run concurrently under ctest -j;
/// shared fixed names collide).
std::string TempPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("gorder_store_") + info->test_suite_name() +
                     "_" + info->name() + "_" + tag;
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  return (fs::temp_directory_path() / name).string();
}

/// RAII deleter so failed tests don't leak files into /tmp.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_neighbors(), b.out_neighbors());
  EXPECT_EQ(a.in_offsets(), b.in_offsets());
  EXPECT_EQ(a.in_neighbors(), b.in_neighbors());
}

/// The shapes that stress the container: empty, no-edge, hub, chain and
/// each generator family.
std::vector<std::pair<std::string, Graph>> InterestingGraphs() {
  std::vector<std::pair<std::string, Graph>> out;
  out.emplace_back("empty", Graph());
  out.emplace_back("single", Graph::FromEdges(1, {}));
  out.emplace_back("isolated", Graph::FromEdges(5, {}));
  {
    std::vector<Edge> star;
    for (NodeId v = 1; v < 64; ++v) star.push_back({0, v});
    out.emplace_back("star", Graph::FromEdges(64, std::move(star)));
  }
  {
    std::vector<Edge> path;
    for (NodeId v = 0; v + 1 < 100; ++v) path.push_back({v, v + 1});
    out.emplace_back("path", Graph::FromEdges(100, std::move(path)));
  }
  out.emplace_back("rmat", gen::MakeDataset("epinion", 0.1, 7));
  out.emplace_back("planted", gen::MakeDataset("pokec", 0.05, 7));
  out.emplace_back("copying", gen::MakeDataset("wiki", 0.03, 7));
  return out;
}

TEST(GpackRoundTrip, MmapAndCopyAreBitIdentical) {
  for (auto& [tag, g] : InterestingGraphs()) {
    SCOPED_TRACE(tag);
    TempFile tmp(TempPath(tag) + ".gpack");
    ASSERT_TRUE(store::WritePack(tmp.path, g).ok);

    Graph mapped;
    ASSERT_TRUE(store::LoadPack(tmp.path, &mapped, store::LoadMode::kMmap).ok);
    ExpectSameCsr(g, mapped);

    Graph copied;
    ASSERT_TRUE(store::LoadPack(tmp.path, &copied, store::LoadMode::kCopy).ok);
    ExpectSameCsr(g, copied);
    EXPECT_FALSE(copied.IsMapped());

    // Per-node degrees through the accessor APIs as well.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(g.OutDegree(v), mapped.OutDegree(v));
      ASSERT_EQ(g.InDegree(v), mapped.InDegree(v));
    }
    EXPECT_TRUE(store::VerifyPack(tmp.path).ok);

    store::GpackInfo info;
    ASSERT_TRUE(store::ReadPackInfo(tmp.path, &info).ok);
    EXPECT_EQ(info.format_version, store::kGpackFormatVersion);
    EXPECT_EQ(info.num_nodes, g.NumNodes());
    EXPECT_EQ(info.num_edges, g.NumEdges());
    EXPECT_EQ(info.fingerprint, store::GraphFingerprint(g));
    EXPECT_EQ(info.sections.size(), 4u);
  }
}

TEST(GpackRoundTrip, AllRegisteredDatasetsSmallScale) {
  for (const auto& spec : gen::AllDatasets()) {
    SCOPED_TRACE(spec.name);
    Graph g = gen::MakeDataset(spec.name, 0.02, 3);
    TempFile tmp(TempPath(spec.name) + ".gpack");
    ASSERT_TRUE(store::WritePack(tmp.path, g).ok);
    Graph mapped;
    ASSERT_TRUE(store::LoadPack(tmp.path, &mapped).ok);
    ExpectSameCsr(g, mapped);
    EXPECT_TRUE(mapped.IsMapped());
  }
}

// The serving contract behind zero-copy loading: every kernel produces
// bit-identical results on an owned and an mmap-backed graph, at every
// thread count.
TEST(GpackKernels, IdenticalOwnedVsMappedAtAnyThreadCount) {
  Graph g = gen::MakeDataset("flickr", 0.08, 11);
  TempFile tmp(TempPath("kernels") + ".gpack");
  ASSERT_TRUE(store::WritePack(tmp.path, g).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp.path, &mapped).ok);
  ASSERT_TRUE(mapped.IsMapped());

  const int before = NumThreads();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    SetNumThreads(threads);
    auto pr_a = algo::PageRank(g, 15);
    auto pr_b = algo::PageRank(mapped, 15);
    EXPECT_EQ(pr_a.rank, pr_b.rank);  // bitwise: both vectors of doubles
    EXPECT_EQ(pr_a.total_mass, pr_b.total_mass);

    auto bfs_a = algo::BfsForest(g);
    auto bfs_b = algo::BfsForest(mapped);
    EXPECT_EQ(bfs_a.level, bfs_b.level);
    EXPECT_EQ(bfs_a.sum_levels, bfs_b.sum_levels);

    auto sp_a = algo::Sp(g, 0);
    auto sp_b = algo::Sp(mapped, 0);
    EXPECT_EQ(sp_a.dist, sp_b.dist);

    auto wcc_a = algo::Wcc(g);
    auto wcc_b = algo::Wcc(mapped);
    EXPECT_EQ(wcc_a.component, wcc_b.component);

    EXPECT_EQ(algo::TriangleCount(g), algo::TriangleCount(mapped));
  }
  SetNumThreads(before);
}

// Relabel of a mapped graph must materialise an owned graph with the
// same content as relabelling the owned original.
TEST(GpackKernels, RelabelOfMappedGraph) {
  Graph g = gen::MakeDataset("epinion", 0.1, 5);
  TempFile tmp(TempPath("relabel") + ".gpack");
  ASSERT_TRUE(store::WritePack(tmp.path, g).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp.path, &mapped).ok);

  order::OrderingParams params;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);
  Graph a = g.Relabel(perm);
  Graph b = mapped.Relabel(perm);
  ExpectSameCsr(a, b);
  EXPECT_FALSE(b.IsMapped());
}

TEST(Fingerprint, StableAndContentSensitive) {
  Graph g1 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph g2 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph g3 = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}});  // one edge off
  Graph g4 = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}});  // extra node
  const auto f1 = store::GraphFingerprint(g1);
  EXPECT_EQ(f1, store::GraphFingerprint(g2));
  EXPECT_NE(f1, store::GraphFingerprint(g3));
  EXPECT_NE(f1, store::GraphFingerprint(g4));
  EXPECT_EQ(store::FingerprintHex(f1).size(), 16u);

  // The fingerprint is part of the on-disk format: a mapped reload must
  // reproduce it exactly.
  TempFile tmp(TempPath("fp") + ".gpack");
  ASSERT_TRUE(store::WritePack(tmp.path, g1).ok);
  Graph mapped;
  ASSERT_TRUE(store::LoadPack(tmp.path, &mapped).ok);
  EXPECT_EQ(f1, store::GraphFingerprint(mapped));
}

// ---------------------------------------------------------------------------
// PackWriter: the one writer behind WritePack and the external build.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Files in `dir` carrying the util::StagingPath `.tmp.` infix.
std::vector<std::string> StagingFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) out.push_back(name);
  }
  return out;
}

/// Writes `g` through PackWriter, each section in chunks of 1, 2, 3, ...
/// items and with `delta` items added to section `skew` (0-3, file
/// order); the extra item repeats the section's last one. Stops at the
/// first error.
IoResult WriteChunked(const std::string& path, const Graph& g, int skew = -1,
                      int delta = 0) {
  store::PackWriter writer;
  IoResult r = writer.Begin(path, g.NumNodes(), g.NumEdges());
  auto feed = [&](int section, const auto& items, auto append) {
    std::vector<std::decay_t<decltype(items[0])>> v(items.begin(),
                                                    items.end());
    if (section == skew && delta < 0) v.pop_back();
    if (section == skew && delta > 0) v.push_back(v.empty() ? 0 : v.back());
    for (std::size_t at = 0, step = 1; r.ok && at < v.size(); ++step) {
      const std::size_t count = std::min(step, v.size() - at);
      r = (writer.*append)(v.data() + at, count);
      at += count;
    }
  };
  if (r.ok) feed(0, g.out_offsets(), &store::PackWriter::AppendOutOffsets);
  if (r.ok) feed(1, g.out_neighbors(), &store::PackWriter::AppendOutNeighbors);
  if (r.ok) feed(2, g.in_offsets(), &store::PackWriter::AppendInOffsets);
  if (r.ok) feed(3, g.in_neighbors(), &store::PackWriter::AppendInNeighbors);
  return r.ok ? writer.Commit() : r;
}

TEST(PackWriterTest, ChunkedAppendsMatchWritePack) {
  for (auto& [tag, g] : InterestingGraphs()) {
    SCOPED_TRACE(tag);
    TempFile whole(TempPath(tag) + ".gpack");
    TempFile chunked(TempPath(tag) + ".chunked.gpack");
    ASSERT_TRUE(store::WritePack(whole.path, g).ok);
    IoResult r = WriteChunked(chunked.path, g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(ReadFile(whole.path) == ReadFile(chunked.path));
    // The fingerprint built up as the bytes pass is GraphFingerprint.
    store::GpackInfo info;
    ASSERT_TRUE(store::ReadPackInfo(chunked.path, &info).ok);
    EXPECT_EQ(info.fingerprint, store::GraphFingerprint(g));
    EXPECT_EQ(info.file_bytes,
              store::PackFileBytes(g.NumNodes(), g.NumEdges()));
  }
}

TEST(PackWriterTest, WrongSectionCountFailsAndLeavesNothing) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  for (int section = 0; section < 4; ++section) {
    for (int delta : {-1, 1}) {
      SCOPED_TRACE("section " + std::to_string(section) + " delta " +
                   std::to_string(delta));
      TempFile dir(TempPath("dir" + std::to_string(section) + "_" +
                            std::to_string(delta + 1)));
      fs::create_directories(dir.path);
      const std::string pack = dir.path + "/g.gpack";
      const IoResult r = WriteChunked(pack, g, section, delta);
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find(delta < 0 ? " holds " : " more than "),
                std::string::npos)
          << r.error;
      EXPECT_FALSE(fs::exists(pack));
      EXPECT_TRUE(StagingFiles(dir.path).empty());
    }
  }
}

TEST(PackWriterTest, DroppedWithoutCommitLeavesNothing) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  TempFile dir(TempPath("dir"));
  fs::create_directories(dir.path);
  const std::string pack = dir.path + "/g.gpack";
  {
    store::PackWriter writer;
    ASSERT_TRUE(writer.Begin(pack, g.NumNodes(), g.NumEdges()).ok);
    ASSERT_TRUE(writer
                    .AppendOutOffsets(g.out_offsets().data(),
                                      g.out_offsets().size())
                    .ok);
    EXPECT_EQ(StagingFiles(dir.path).size(), 1u);
  }
  EXPECT_FALSE(fs::exists(pack));
  EXPECT_TRUE(StagingFiles(dir.path).empty());
}

// A commit replaces only a regular file: aimed at a FIFO, every writer
// fails, the FIFO stays a FIFO and no staging file is left.
TEST(AtomicCommitTest, FifoTargetIsRefusedAndKept) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  TempFile dir(TempPath("dir"));
  fs::create_directories(dir.path);
  const std::string fifo = dir.path + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_FALSE(util::WriteFileAtomic(fifo, "bytes").ok);
  EXPECT_FALSE(WriteEdgeList(fifo, g).ok);
  EXPECT_FALSE(WritePermutationMap(fifo, {2, 0, 1}).ok);
  EXPECT_FALSE(store::WritePack(fifo, g).ok);
  EXPECT_TRUE(fs::is_fifo(fifo));
  EXPECT_TRUE(StagingFiles(dir.path).empty());
}

TEST(PackWriterTest, WriteBytesCounterCountsTheFileSize) {
  // The triangle's last section ends 12 bytes past a 64-byte boundary;
  // the counter must not round it up.
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  TempFile tmp(TempPath("triangle") + ".gpack");
  obs::Counter& bytes = obs::GetCounter("store.pack_write_bytes");
  const bool enabled = obs::Enabled();
  obs::SetEnabledForTest(true);
  const std::uint64_t before = bytes.Value();
  ASSERT_TRUE(store::WritePack(tmp.path, g).ok);
  const std::uint64_t delta = bytes.Value() - before;
  obs::SetEnabledForTest(enabled);
  EXPECT_EQ(fs::file_size(tmp.path), 396u);
  EXPECT_EQ(delta, fs::file_size(tmp.path));
}

TEST(Crc32, KnownVectorAndStreaming) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Streaming in two chunks must equal one shot.
  std::uint32_t seed = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, seed), 0xCBF43926u);
}

TEST(OrderingCache, SaveThenLoadRoundTrip) {
  TempFile root(TempPath("store"));
  store::Store s(root.path);
  Graph g = gen::MakeDataset("epinion", 0.1, 9);
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;
  params.seed = 9;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);

  store::Store::CachedOrdering out;
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, params,
                              g.NumNodes(), &out));
  ASSERT_TRUE(
      s.SaveOrdering(fp, order::Method::kGorder, params, perm, 1.25).ok);
  ASSERT_TRUE(s.LoadOrdering(fp, order::Method::kGorder, params,
                             g.NumNodes(), &out));
  EXPECT_EQ(out.perm, perm);
  EXPECT_DOUBLE_EQ(out.compute_seconds, 1.25);
}

TEST(OrderingCache, KeyMismatchesAreMisses) {
  TempFile root(TempPath("store"));
  store::Store s(root.path);
  Graph g = gen::MakeDataset("epinion", 0.1, 9);
  const auto fp = store::GraphFingerprint(g);
  order::OrderingParams params;
  params.seed = 9;
  auto perm = order::ComputeOrdering(g, order::Method::kGorder, params);
  ASSERT_TRUE(
      s.SaveOrdering(fp, order::Method::kGorder, params, perm, 0.5).ok);

  store::Store::CachedOrdering out;
  // Different graph fingerprint.
  EXPECT_FALSE(s.LoadOrdering(fp ^ 1, order::Method::kGorder, params,
                              g.NumNodes(), &out));
  // Different method.
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kRcm, params, g.NumNodes(),
                              &out));
  // Different params (window is part of the key).
  order::OrderingParams other = params;
  other.window = 7;
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, other,
                              g.NumNodes(), &out));
  // Wrong node count (caller resolved a different graph).
  EXPECT_FALSE(s.LoadOrdering(fp, order::Method::kGorder, params,
                              g.NumNodes() + 1, &out));
  // Unchanged key still hits.
  EXPECT_TRUE(s.LoadOrdering(fp, order::Method::kGorder, params,
                             g.NumNodes(), &out));
}

TEST(OrderingCache, ParamsHashCoversEveryField) {
  const order::OrderingParams base;
  auto key = [](const order::OrderingParams& p) {
    return store::HashOrderingKey(order::Method::kGorder, p);
  };
  const auto base_key = key(base);
  order::OrderingParams p;

  p = base;
  p.seed = 1;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.window = 9;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_sibling_score = false;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_neighbor_score = false;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_hub_cap = 32;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.gorder_lazy_decrements = true;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_steps = 100;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_standard_energy = 2.0;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.sa_local_search = true;
  EXPECT_NE(key(p), base_key);
  p = base;
  p.ldg_bin_capacity = 128;
  EXPECT_NE(key(p), base_key);

  EXPECT_NE(store::HashOrderingKey(order::Method::kRcm, base), base_key);
  EXPECT_EQ(key(base), base_key);  // deterministic
}

TEST(StoreDatasets, MissThenHitProducesIdenticalGraph) {
  TempFile root(TempPath("store"));
  store::Store s(root.path);
  Graph direct = gen::MakeDataset("epinion", 0.1, 42);

  Graph miss = s.GetDataset("epinion", 0.1, 42);  // generates + packs
  ExpectSameCsr(direct, miss);
  ASSERT_TRUE(fs::exists(s.PackPath("epinion", 0.1, 42)));

  Graph hit = s.GetDataset("epinion", 0.1, 42);  // mmap of the pack
  ExpectSameCsr(direct, hit);
  EXPECT_TRUE(hit.IsMapped());

  // A different recipe gets a different pack file.
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("epinion", 0.2, 42));
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("epinion", 0.1, 43));
  EXPECT_NE(s.PackPath("epinion", 0.1, 42), s.PackPath("pokec", 0.1, 42));
}

TEST(StoreDatasets, CorruptPackRegeneratesInsteadOfFailing) {
  TempFile root(TempPath("store"));
  store::Store s(root.path);
  Graph direct = gen::MakeDataset("epinion", 0.1, 42);
  (void)s.GetDataset("epinion", 0.1, 42);

  // Truncate the pack: the store must fall back to regeneration.
  const std::string pack = s.PackPath("epinion", 0.1, 42);
  ASSERT_TRUE(fs::exists(pack));
  fs::resize_file(pack, fs::file_size(pack) / 2);
  Graph recovered = s.GetDataset("epinion", 0.1, 42);
  ExpectSameCsr(direct, recovered);
}

TEST(DatasetRegistry, FindIsNonAbortingAndListsNames) {
  EXPECT_NE(gen::FindDatasetSpec("epinion"), nullptr);
  EXPECT_EQ(gen::FindDatasetSpec("epinion")->name, "epinion");
  EXPECT_EQ(gen::FindDatasetSpec("nope"), nullptr);
  EXPECT_EQ(gen::FindDatasetSpec(""), nullptr);
  std::string names = gen::DatasetNames();
  for (const auto& spec : gen::AllDatasets()) {
    EXPECT_NE(names.find(spec.name), std::string::npos) << names;
  }
}

TEST(ArrayRefTest, OwnedAndBorrowedSemantics) {
  ArrayRef<int> owned(std::vector<int>{1, 2, 3});
  EXPECT_FALSE(owned.borrowed());
  EXPECT_EQ(owned.size(), 3u);
  EXPECT_EQ(owned[1], 2);

  auto backing = std::make_shared<std::vector<int>>(std::vector<int>{4, 5});
  ArrayRef<int> borrowed(backing->data(), backing->size(), backing);
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_EQ(borrowed.size(), 2u);
  EXPECT_EQ(borrowed[0], 4);

  // Moves must preserve the data pointer contract for both flavours.
  ArrayRef<int> owned2 = std::move(owned);
  EXPECT_EQ(owned2.size(), 3u);
  EXPECT_EQ(owned2[2], 3);
  ArrayRef<int> borrowed2 = std::move(borrowed);
  EXPECT_EQ(borrowed2.data(), backing->data());

  // ToVector detaches from the backing store.
  std::vector<int> copy = borrowed2.ToVector();
  EXPECT_EQ(copy, (std::vector<int>{4, 5}));

  EXPECT_EQ(owned2, ArrayRef<int>(std::vector<int>{1, 2, 3}));
  EXPECT_NE(owned2, borrowed2);
}

}  // namespace
}  // namespace gorder

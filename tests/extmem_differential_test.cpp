// The out-of-core acceptance differential: for every dataset in the
// registry, at 1/2/8 threads, (a) the external-memory CSR build emits a
// .gpack byte-identical to store::WritePack of the in-memory graph, and
// (b) semi-external Gorder and BOBA over the mapped pack return exactly
// the permutation the in-memory path computes. Edges are fed to the
// extmem builder shuffled and laced with duplicates, so the disk-backed
// sort/merge — not input order — is what produces the CSR.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/gorder_lib.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("gorder_extdiff_") + info->test_suite_name() +
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

struct ThreadGuard {
  explicit ThreadGuard(int n) : saved(NumThreads()) { SetNumThreads(n); }
  ~ThreadGuard() { SetNumThreads(saved); }
  int saved;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Small-but-representative dataset scale: every registry graph at a
/// few thousand nodes, so the full 9-dataset x 3-thread sweep stays
/// inside test-suite budgets while still exercising hubs, communities
/// and crawl numbering.
constexpr double kScale = 0.12;

class ExtmemDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ExtmemDifferentialTest, PackAndOrderingsMatchInMemoryPath) {
  ThreadGuard threads(GetParam());
  for (const gen::DatasetSpec& spec : gen::AllDatasets()) {
    SCOPED_TRACE(spec.name);
    const Graph graph = gen::MakeDataset(spec.name, kScale, 42);

    // Shuffle + duplicate the edge stream before feeding the extmem
    // builder: the on-disk sort must reconstruct the canonical CSR.
    std::vector<Edge> edges = graph.ToEdges();
    Rng rng(1234);
    rng.Shuffle(edges);
    const std::size_t original = edges.size();
    for (std::size_t i = 0; i < original; i += 97) edges.push_back(edges[i]);

    TempFile ext_pack(TempPath(spec.name + ".ext.gpack"));
    TempFile mem_pack(TempPath(spec.name + ".mem.gpack"));

    extmem::ExtmemOptions options;
    options.mem_budget_bytes = 8ull << 20;
    options.run_buffer_edges = 4096;  // force several runs per dataset
    extmem::ExtPackBuilder builder(options);
    ASSERT_TRUE(builder.Begin(ext_pack.path).ok);
    builder.ReserveNodes(graph.NumNodes());
    ASSERT_TRUE(builder.AddBatch(edges.data(), edges.size()).ok);
    IoResult r = builder.Finish();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(builder.stats().edges_final, graph.NumEdges());

    ASSERT_TRUE(store::WritePack(mem_pack.path, graph).ok);
    ASSERT_TRUE(ReadAll(ext_pack.path) == ReadAll(mem_pack.path))
        << spec.name << ": extmem pack not byte-identical";

    // Semi-external orderings vs the in-memory kernels.
    for (const order::Method method :
         {order::Method::kGorder, order::Method::kBoba}) {
      SCOPED_TRACE(order::MethodName(method));
      order::OrderingParams params;
      const std::vector<NodeId> expect =
          order::ComputeOrdering(graph, method, params);
      std::vector<NodeId> got;
      extmem::SemiExternalInfo info;
      IoResult sr = extmem::SemiExternalOrder(ext_pack.path, method, params,
                                              &got, &info);
      ASSERT_TRUE(sr.ok) << sr.error;
      EXPECT_TRUE(info.zero_copy);
      EXPECT_GT(info.pack_bytes, 0u);
      ASSERT_EQ(expect.size(), got.size());
      EXPECT_TRUE(expect == got)
          << spec.name << "/" << order::MethodName(method)
          << ": semi-external permutation differs from in-memory";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ExtmemDifferentialTest,
                         ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return 't' + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gorder

// Chunked streaming generation (gen/chunked.h, DESIGN.md §19) and the
// generator correctness fixes that rode along with it:
//   - the windowed parallel driver is bit-identical to the retained
//     serial reference for every generator family, at any thread count
//     (the differential contract);
//   - ER/BA/planted-partition output is pinned by golden fingerprints
//     at 1/2/8 threads, so a silent change to any PRNG derivation or
//     sampling step fails loudly;
//   - the in-memory ErdosRenyi feasibility guards use exact integer
//     arithmetic (the old double comparison was lossy above 2^53) and
//     fire *before* any allocation;
//   - BarabasiAlbert redraws from the attachment mass and dedups per
//     source, so realised out-degrees equal out_k exactly;
//   - the chunked stream packs through extmem::BuildPackFromEdgeStream
//     to byte-identical .gpack files at 1/2/8 threads.

#include "gen/chunked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "extmem/ext_csr.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/stats.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace gorder {
namespace {

namespace fs = std::filesystem;

struct ThreadGuard {
  explicit ThreadGuard(int n) : saved(NumThreads()) { SetNumThreads(n); }
  ~ThreadGuard() { SetNumThreads(saved); }
  int saved;
};

std::uint64_t EdgeFingerprint(const std::vector<Edge>& edges) {
  std::uint64_t h = util::kSeedMixBasis;
  for (const Edge& e : edges) {
    h = util::SeedMix64(h, e.src);
    h = util::SeedMix64(h, e.dst);
  }
  return h;
}

/// Drains a stream into one flat edge vector, recording per-call chunk
/// sizes.
struct Collected {
  std::vector<Edge> edges;
  std::vector<std::size_t> chunk_sizes;
};

template <typename StreamFn>
Collected Drain(const StreamFn& stream) {
  Collected c;
  IoResult r = stream([&](const Edge* e, std::size_t count) {
    c.edges.insert(c.edges.end(), e, e + count);
    c.chunk_sizes.push_back(count);
    return IoResult::Ok();
  });
  EXPECT_TRUE(r.ok) << r.error;
  return c;
}

gen::RmatParams SmallRmat() {
  gen::RmatParams p;
  p.scale = 10;
  p.num_edges = 20000;
  return p;
}

std::string TempPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("gorder_genchunk_") +
                     info->test_suite_name() + "_" + info->name() + "_" + tag;
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

// ---------------------------------------------------------------------
// Parallel driver vs serial reference: the differential contract. The
// windowed parallel path must deliver the exact same chunk sequence as
// the retained straight-line serial loop, for every generator family,
// at any thread count.
// ---------------------------------------------------------------------

TEST(ChunkedDifferentialTest, RmatParallelMatchesSerialReference) {
  const gen::RmatParams p = SmallRmat();
  gen::ChunkedOptions serial;
  serial.chunk_edges = 1024;
  serial.serial_reference = true;
  const Collected ref = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamRmat(p, 42, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 1024;
    const Collected got = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamRmat(p, 42, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
    EXPECT_EQ(ref.chunk_sizes, got.chunk_sizes) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, ErdosRenyiParallelMatchesSerialReference) {
  gen::ChunkedOptions serial;
  serial.chunk_edges = 512;
  serial.serial_reference = true;
  const Collected ref = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamErdosRenyi(300, 9000, 7, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 512;
    const Collected got = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamErdosRenyi(300, 9000, 7, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, BarabasiAlbertParallelMatchesSerialReference) {
  gen::ChunkedOptions serial;
  serial.chunk_edges = 700;  // deliberately not a multiple of out_k
  serial.serial_reference = true;
  const Collected ref = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamBarabasiAlbert(4000, 5, 11, serial, sink);
  });
  for (int threads : {2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions par;
    par.chunk_edges = 700;
    const Collected got = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamBarabasiAlbert(4000, 5, 11, par, sink);
    });
    EXPECT_EQ(ref.edges, got.edges) << threads << " threads";
  }
}

TEST(ChunkedDifferentialTest, WindowSizeIsInvisibleInOutput) {
  ThreadGuard guard(4);
  gen::ChunkedOptions small_window;
  small_window.chunk_edges = 256;
  small_window.window_chunks = 2;
  gen::ChunkedOptions big_window;
  big_window.chunk_edges = 256;
  big_window.window_chunks = 64;
  const Collected a = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamErdosRenyi(100, 5000, 3, small_window, sink);
  });
  const Collected b = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamErdosRenyi(100, 5000, 3, big_window, sink);
  });
  EXPECT_EQ(a.edges, b.edges);
}

// ---------------------------------------------------------------------
// Determinism goldens at 1/2/8 threads. The pinned constants freeze the
// full derivation chain (MixParamsSeed -> ChunkSeed -> per-chunk PRNG /
// hash draws); any change to it is a format break for regenerated
// datasets and must be deliberate.
// ---------------------------------------------------------------------

TEST(ChunkedGoldenTest, ErdosRenyiStreamFingerprint) {
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamErdosRenyi(500, 20000, 42, options, sink);
    });
    EXPECT_EQ(c.edges.size(), 20000u);
    EXPECT_EQ(EdgeFingerprint(c.edges), 0xb2643d62a61f76f9ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, BarabasiAlbertStreamFingerprint) {
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamBarabasiAlbert(5000, 4, 42, options, sink);
    });
    EXPECT_EQ(EdgeFingerprint(c.edges), 0x6a6235d5ac060c44ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, RmatStreamFingerprint) {
  const gen::RmatParams p = SmallRmat();
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    gen::ChunkedOptions options;
    options.chunk_edges = 1024;
    const Collected c = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamRmat(p, 42, options, sink);
    });
    EXPECT_EQ(EdgeFingerprint(c.edges), 0xcc3c209a28e29127ULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, PlantedPartitionDatasetFingerprint) {
  // The planted-partition stand-in (pokec) generates serially; the graph
  // build and crawl relabel behind MakeDataset use the shared pool, so
  // pinning the result at 1/2/8 threads guards the whole path.
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    Graph g = gen::MakeDataset("pokec", 0.05, 42);
    EXPECT_EQ(EdgeFingerprint(g.ToEdges()), 0x02f7d122cf003fdaULL)
        << threads << " threads";
  }
}

TEST(ChunkedGoldenTest, BarabasiAlbertInMemoryFingerprint) {
  // Pins the *fixed* in-memory BA output (resample-from-mass + per-round
  // dedup). A change to the sampling loop shows up here before it shows
  // up as a silently different benchmark graph.
  Rng rng(42);
  Graph g = gen::BarabasiAlbert(600, 4, rng);
  EXPECT_EQ(EdgeFingerprint(g.ToEdges()), 0x243a76b6a64175c9ULL);
}

// ---------------------------------------------------------------------
// ER chunk semantics: exact partition of the sample count, exact
// self-loop avoidance (no rejection loop to grind at the ceiling).
// ---------------------------------------------------------------------

TEST(StreamErdosRenyiTest, ExactPartitionAcrossChunks) {
  gen::ChunkedOptions options;
  options.chunk_edges = 1024;
  const Collected c = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamErdosRenyi(60, 2500, 5, options, sink);
  });
  // Every attempt emits exactly one edge: chunks are full-size except
  // the tail, and the total is exactly m.
  ASSERT_EQ(c.chunk_sizes.size(), 3u);
  EXPECT_EQ(c.chunk_sizes[0], 1024u);
  EXPECT_EQ(c.chunk_sizes[1], 1024u);
  EXPECT_EQ(c.chunk_sizes[2], 452u);
  EXPECT_EQ(c.edges.size(), 2500u);
  for (const Edge& e : c.edges) {
    EXPECT_LT(e.src, 60u);
    EXPECT_LT(e.dst, 60u);
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(StreamErdosRenyiTest, DensityCeilingDoesNotGrind) {
  // m = n*(n-1) exactly — the densest request the model admits. The
  // rejection-free sampler emits all of them in one pass; the old
  // rejection-into-dedup-set approach would coupon-collector forever
  // here.
  const NodeId n = 64;
  const EdgeId m = 64 * 63;
  gen::ChunkedOptions options;
  options.chunk_edges = 512;
  const Collected c = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamErdosRenyi(n, m, 17, options, sink);
  });
  EXPECT_EQ(c.edges.size(), static_cast<std::size_t>(m));
  for (const Edge& e : c.edges) EXPECT_NE(e.src, e.dst);
}

TEST(StreamErdosRenyiTest, InfeasibleRequestAborts) {
  gen::ChunkedOptions options;
  EXPECT_DEATH(
      {
        IoResult r = gen::StreamErdosRenyi(
            64, 64 * 63 + 1, 1, options,
            [](const Edge*, std::size_t) { return IoResult::Ok(); });
        (void)r;
      },
      "m exceeds n");
}

// ---------------------------------------------------------------------
// In-memory ErdosRenyi guards: exact integer feasibility, ordered
// before any allocation.
// ---------------------------------------------------------------------

TEST(ErdosRenyiGuardTest, ExactIntegerFeasibilityAboveDoublePrecision) {
  // n*(n-1) = 9999999900000000 > 2^53: IEEE doubles cannot represent
  // max+1 distinctly, so the old `double(m) <= double(n)*(n-1)` check
  // accepted it and fell through to the allocation and rejection loop.
  const NodeId n = 100000000;
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) - 1);
  ASSERT_EQ(static_cast<double>(max_edges + 1),
            static_cast<double>(max_edges))
      << "test premise: max+1 must collapse onto max in double";
  EXPECT_DEATH(
      {
        Rng rng(1);
        Graph g = gen::ErdosRenyi(n, max_edges + 1, rng);
        (void)g;
      },
      "m exceeds n");
}

TEST(ErdosRenyiGuardTest, DenseRegimeSamplesComplementExactly) {
  // Above half the edge space rejection sampling would grind (coupon
  // collector), so the generator switches to complement sampling:
  // exact edge count, no self-loops, and it terminates promptly even
  // at the density ceiling.
  Rng rng(7);
  Graph dense = gen::ErdosRenyi(100, 6000, rng);  // max/2 = 4950 < 6000
  EXPECT_EQ(dense.NumEdges(), 6000u);
  for (NodeId v = 0; v < dense.NumNodes(); ++v) {
    for (NodeId w : dense.OutNeighbors(v)) EXPECT_NE(v, w);
  }
  // m == n*(n-1): the complete directed graph, zero holes to sample.
  Graph full = gen::ErdosRenyi(30, 30 * 29, rng);
  EXPECT_EQ(full.NumEdges(), 30u * 29u);
  // Just past the sparse/dense switch: still exact.
  Graph boundary = gen::ErdosRenyi(10, 46, rng);  // max = 90, half = 45
  EXPECT_EQ(boundary.NumEdges(), 46u);
}

TEST(ErdosRenyiGuardTest, GuardsFireBeforeReserve) {
  // Regression for the unbounded `seen.reserve(m * 2)`: an absurd m
  // must die on the feasibility CHECK (clean abort with its message),
  // not inside the allocator. The CHECK text in the death output is the
  // proof the guard ran first.
  EXPECT_DEATH(
      {
        Rng rng(1);
        Graph g = gen::ErdosRenyi(1u << 16, EdgeId{1} << 60, rng);
        (void)g;
      },
      "m exceeds n");
}

// ---------------------------------------------------------------------
// BarabasiAlbert fix: redraws come from the attachment mass (not a
// uniform fallback) and are deduped per round, so realised out-degrees
// are exact.
// ---------------------------------------------------------------------

TEST(BarabasiAlbertTest, OutDegreesExactlyOutK) {
  Rng rng(3);
  const NodeId n = 500, k = 5;
  Graph g = gen::BarabasiAlbert(n, k, rng);
  // Builder dedup removes nothing: every node emitted k distinct
  // non-self targets. (Before the fix, duplicate parallel edges were
  // silently dedupped and out-degrees undershot k.)
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(g.OutDegree(v), k) << "node " << v;
    EXPECT_FALSE(g.HasEdge(v, v));
  }
  // Every node (core included) emits exactly k surviving edges.
  EXPECT_EQ(g.NumEdges(), static_cast<EdgeId>(n) * k);
}

TEST(StreamBarabasiAlbertTest, SkewedInDegrees) {
  gen::ChunkedOptions options;
  options.chunk_edges = 4096;
  const Collected c = Drain([&](const gen::EdgeSink& sink) {
    return gen::StreamBarabasiAlbert(20000, 4, 3, options, sink);
  });
  Graph::Builder builder(20000);
  for (const Edge& e : c.edges) builder.AddEdge(e.src, e.dst);
  Graph g = builder.Build();
  GraphStats s = ComputeStats(g);
  // Preferential attachment: the biggest hub collects far more than the
  // average in-degree (~4).
  EXPECT_GT(s.max_in_degree, 40u);
}

TEST(StreamBarabasiAlbertTest, TargetChainTerminatesAndIsPure) {
  // The hash-resolved Batagelj-Brandes chain must terminate (every odd
  // draw strictly decreases the edge index) and be a pure function of
  // (stream_seed, out_k, edge_index).
  for (std::uint64_t i : {0ull, 1ull, 17ull, 999ull, 123456ull}) {
    const NodeId a = gen::BarabasiAlbertTarget(42, 4, i);
    const NodeId b = gen::BarabasiAlbertTarget(42, 4, i);
    EXPECT_EQ(a, b);
    EXPECT_LE(a, static_cast<NodeId>(i / 4));  // target precedes source
  }
}

// ---------------------------------------------------------------------
// Driver behaviour: sink errors stop the stream at the failing chunk.
// ---------------------------------------------------------------------

TEST(ChunkedDriverTest, ParallelStopsAtFirstSinkError) {
  ThreadGuard guard(8);
  gen::ChunkedOptions options;
  options.chunk_edges = 256;  // many chunks, several windows
  int calls = 0;
  IoResult r = gen::StreamErdosRenyi(
      200, 10000, 1, options, [&](const Edge*, std::size_t) {
        if (++calls == 2) return IoResult::Error("sink full");
        return IoResult::Ok();
      });
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "sink full");
  // Delivery is in ascending chunk order from the calling thread, so
  // the count is exact even though later chunks were already generated.
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------
// Huge-tier registry: stream-only specs, deterministic StreamDataset,
// pack bit-identity through the extmem sink adapter.
// ---------------------------------------------------------------------

TEST(HugeDatasetTest, RegistryIsTieredAndStreamOnly) {
  for (const auto& spec : gen::HugeDatasets()) {
    EXPECT_EQ(spec.tier, gen::DatasetTier::kHuge) << spec.name;
    EXPECT_NE(gen::FindDatasetSpec(spec.name), nullptr) << spec.name;
  }
  // Standard names never resolve to huge specs and vice versa.
  EXPECT_EQ(gen::FindDatasetSpec("rmat-huge")->tier, gen::DatasetTier::kHuge);
  EXPECT_EQ(gen::FindDatasetSpec("pokec")->tier, gen::DatasetTier::kStandard);
  EXPECT_DEATH(
      {
        Graph g = gen::MakeDataset("rmat-huge", 0.001, 42);
        (void)g;
      },
      "stream-only");
}

TEST(HugeDatasetTest, StreamDatasetDeterministicAcrossThreads) {
  gen::ChunkedOptions options;
  options.chunk_edges = 2048;
  std::uint64_t first_hash = 0;
  NodeId first_nodes = 0;
  for (int threads : {1, 8}) {
    ThreadGuard guard(threads);
    NodeId nodes = 0;
    const Collected c = Drain([&](const gen::EdgeSink& sink) {
      return gen::StreamDataset("er-huge", 1e-5, 42, options, sink, &nodes);
    });
    EXPECT_GT(nodes, 0u);
    EXPECT_FALSE(c.edges.empty());
    if (threads == 1) {
      first_hash = EdgeFingerprint(c.edges);
      first_nodes = nodes;
    } else {
      EXPECT_EQ(EdgeFingerprint(c.edges), first_hash);
      EXPECT_EQ(nodes, first_nodes);
    }
  }
}

TEST(HugeDatasetTest, PackBitIdenticalAcrossThreadCounts) {
  const gen::RmatParams p = SmallRmat();
  extmem::ExtmemOptions ext;
  ext.mem_budget_bytes = 1 << 20;  // force multi-run external sorts
  std::string reference;
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    TempFile pack(TempPath('t' + std::to_string(threads) + ".gpack"));
    gen::ChunkedOptions options;
    options.chunk_edges = 512;
    IoResult r = extmem::BuildPackFromEdgeStream(
        [&](const gen::EdgeSink& sink) {
          return gen::StreamRmat(p, 42, options, sink);
        },
        /*reserve_nodes=*/NodeId{1} << p.scale, pack.path, ext);
    ASSERT_TRUE(r.ok) << r.error;
    const std::string bytes = ReadAll(pack.path);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace gorder

// Tests for the shared parallel runtime and the determinism contract of
// the CSR pipeline: FromEdges / Relabel / ReadEdgeList must produce
// bit-identical CSR arrays at any thread count, and the 1-thread path
// must match a plain serial reference implementation.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <vector>

#include "gen/generators.h"
#include "graph/edgelist_io.h"
#include "graph/graph.h"
#include "store/gpack.h"
#include "util/rng.h"

namespace gorder {
namespace {

/// Restores the global thread budget when a test exits.
class ThreadGuard {
 public:
  ~ThreadGuard() { SetNumThreads(0); }
};

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(0, hits.size(), 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  ThreadGuard guard;
  SetNumThreads(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  int count = 0;
  // Grain larger than the range: one serial call with the whole range.
  ParallelFor(10, 13, 100, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 10u);
    EXPECT_EQ(e, 13u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForTest, RespectsMaxThreadsOne) {
  ThreadGuard guard;
  SetNumThreads(8);
  // max_threads=1 forces the serial path: the body runs on this thread in
  // one call, so unsynchronised writes are safe.
  std::vector<int> data(10000, 0);
  ParallelFor(
      0, data.size(), 64, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) data[i] = static_cast<int>(i);
      },
      /*max_threads=*/1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], static_cast<int>(i));
  }
}

TEST(ParallelForTest, GrainOfOne) {
  ThreadGuard guard;
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
      // Grain 1 means single-index chunks on the parallel path; the
      // serial fast path (threads=1) hands over the whole range at once.
      if (threads > 1) {
        EXPECT_EQ(e, b + 1);
      }
      for (std::size_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, GrainZeroTreatedAsOne) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(0, hits.size(), 0, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyRangeAtEveryThreadCount) {
  ThreadGuard guard;
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    bool called = false;
    ParallelFor(0, 0, 16, [&](std::size_t, std::size_t) { called = true; });
    ParallelFor(7, 7, 16, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called) << threads;
  }
}

// The shape the parallel algorithm kernels produce: a ParallelFor whose
// body forks heterogeneous subtasks via ParallelInvoke, which themselves
// run nested ParallelFors. Help-first nesting must complete every level
// exactly once without deadlock.
TEST(ParallelForTest, InvokeNestedInsideForCompletes) {
  ThreadGuard guard;
  SetNumThreads(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> a(kOuter * kInner);
  std::vector<std::atomic<int>> b(kOuter * kInner);
  ParallelFor(0, kOuter, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      ParallelInvoke(
          [&, o] {
            ParallelFor(0, kInner, 8, [&](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                a[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
              }
            });
          },
          [&, o] {
            ParallelFor(0, kInner, 8, [&](std::size_t ib, std::size_t ie) {
              for (std::size_t i = ib; i < ie; ++i) {
                b[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
              }
            });
          });
    }
  });
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].load(), 1) << "a " << i;
    ASSERT_EQ(b[i].load(), 1) << "b " << i;
  }
}

TEST(ParallelInvokeTest, RunsAllTasks) {
  ThreadGuard guard;
  for (int threads : {1, 3}) {
    SetNumThreads(threads);
    std::atomic<int> a{0}, b{0}, c{0};
    ParallelInvoke([&] { a = 1; }, [&] { b = 2; }, [&] { c = 3; });
    EXPECT_EQ(a.load(), 1);
    EXPECT_EQ(b.load(), 2);
    EXPECT_EQ(c.load(), 3);
  }
}

TEST(ParallelInvokeTest, NestedParallelismCompletes) {
  ThreadGuard guard;
  SetNumThreads(4);
  std::vector<std::atomic<int>> hits(2000);
  ParallelInvoke(
      [&] {
        ParallelFor(0, 1000, 16, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
      },
      [&] {
        ParallelFor(1000, 2000, 16, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
      });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelConfigTest, SetAndRestore) {
  ThreadGuard guard;
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(0);  // back to default
  EXPECT_GE(NumThreads(), 1);
}

// ---------------------------------------------------------------------------
// Determinism of the CSR pipeline under the pool.

void ExpectSameCsr(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.out_offsets(), b.out_offsets());
  EXPECT_EQ(a.out_neighbors(), b.out_neighbors());
  EXPECT_EQ(a.in_offsets(), b.in_offsets());
  EXPECT_EQ(a.in_neighbors(), b.in_neighbors());
}

std::vector<Edge> MessyEdges(NodeId n, std::size_t m, Rng& rng) {
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    auto src = static_cast<NodeId>(rng.Uniform(n));
    // Skew + occasional self-loops and duplicates.
    auto dst = rng.Uniform(4) == 0 ? src : static_cast<NodeId>(rng.Uniform(n));
    edges.push_back({src, dst});
    if (rng.Uniform(8) == 0) edges.push_back({src, dst});
  }
  return edges;
}

/// Node counts 2^k and 2^k + 1, so the largest id is every width from 0
/// to 20 bits.
std::vector<NodeId> HubSizes() {
  std::vector<NodeId> sizes = {1};
  for (int k = 1; k <= 20; ++k) {
    sizes.push_back(NodeId{1} << k);
    if (k < 20) sizes.push_back((NodeId{1} << k) + 1);
  }
  return sizes;
}

/// Reaches both sides of kListRadixCrossover: a star whose centre has
/// 4100 out- and 4100 in-spokes (n - 1 among them), nodes 0-3 with
/// exactly 1, C - 1, C and C + 1 out-neighbours and nodes 4-7 with as
/// many in-neighbours (C = the crossover), skewed edges with self-loops
/// and duplicates, and most nodes with empty lists. When n leaves room,
/// no other edge leaves nodes 0-3 or enters nodes 4-7, and the spokes
/// and exact lists hold distinct ids other than their own node, so
/// those lists keep their length with loops and duplicates dropped.
std::vector<Edge> HubEdges(NodeId n, Rng& rng) {
  constexpr std::size_t kC = kListRadixCrossover;
  const std::size_t exact[] = {1, kC - 1, kC, kC + 1};
  const bool roomy = n > 16;
  auto node = [n](NodeId i) { return i % n; };
  auto exact_src = [roomy](NodeId v) { return roomy && v < 4; };
  auto exact_dst = [roomy](NodeId v) { return roomy && v >= 4 && v < 8; };
  auto draw = [&](auto reserved) {
    NodeId v;
    do {
      v = static_cast<NodeId>(rng.Uniform(n));
    } while (reserved(v));
    return v;
  };
  // `count` ids for the list of `self`: distinct and not `self` when n
  // leaves room for them, drawn with repetition otherwise.
  auto list = [&](NodeId self, std::size_t count, auto reserved) {
    std::vector<NodeId> ids;
    std::vector<char> taken(n, 0);
    taken[self] = 1;
    const bool distinct = n > count + 16;
    while (ids.size() < count) {
      const NodeId v = draw(reserved);
      if (distinct && taken[v]) continue;
      taken[v] = 1;
      ids.push_back(v);
    }
    return ids;
  };
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId t : list(node(i), exact[i], exact_dst)) {
      edges.push_back({node(i), t});
    }
    for (NodeId s : list(node(4 + i), exact[i], exact_src)) {
      edges.push_back({s, node(4 + i)});
    }
  }
  const NodeId hub = node(8);
  for (NodeId t : list(hub, 4100, exact_dst)) edges.push_back({hub, t});
  for (NodeId s : list(hub, 4100, exact_src)) edges.push_back({s, hub});
  edges.push_back({hub, n - 1});
  edges.push_back({n - 1, hub});
  edges.push_back({hub, hub});
  auto skewed = [&] { return std::min(draw(exact_src), draw(exact_src)); };
  for (int i = 0; i < 3000; ++i) {
    const NodeId src = skewed();
    const NodeId dst =
        rng.Uniform(4) == 0 && !exact_dst(src) ? src : draw(exact_dst);
    edges.push_back({src, dst});
    if (rng.Uniform(8) == 0) edges.push_back({src, dst});
  }
  rng.Shuffle(edges);
  return edges;
}

TEST(CsrDeterminismTest, HubEdgesStraddleTheSortCrossover) {
  // Guards the hub inputs below: without loops and duplicates, some
  // lists are empty, some hold 1, C - 1, C and C + 1 ids, and the hub's
  // hold more than 4096.
  Rng rng(15);
  constexpr std::size_t kC = kListRadixCrossover;
  for (NodeId n : {NodeId{1} << 13, (NodeId{1} << 13) + 1}) {
    Graph g = Graph::FromEdges(n, HubEdges(n, rng));
    for (bool in : {false, true}) {
      std::vector<std::size_t> lengths;
      for (NodeId v = 0; v < n; ++v) {
        lengths.push_back(in ? g.InDegree(v) : g.OutDegree(v));
      }
      for (std::size_t len : {std::size_t{0}, std::size_t{1}, kC - 1, kC,
                              kC + 1}) {
        EXPECT_NE(std::find(lengths.begin(), lengths.end(), len),
                  lengths.end())
            << "n=" << n << " in=" << in << " length " << len;
      }
      EXPECT_GE(*std::max_element(lengths.begin(), lengths.end()), 4096u)
          << "n=" << n << " in=" << in;
    }
  }
}

TEST(CsrDeterminismTest, FromEdgesIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(11);
  auto check = [](NodeId n, const std::vector<Edge>& edges) {
    for (bool keep_loops : {false, true}) {
      for (bool keep_dups : {false, true}) {
        SetNumThreads(1);
        Graph reference = Graph::FromEdges(n, edges, keep_loops, keep_dups);
        for (int threads : {2, 8}) {
          SetNumThreads(threads);
          Graph g = Graph::FromEdges(n, edges, keep_loops, keep_dups);
          ExpectSameCsr(reference, g);
        }
      }
    }
  };
  check(700, MessyEdges(700, 20000, rng));
  for (NodeId n : HubSizes()) {
    SCOPED_TRACE("hub edges, n=" + std::to_string(n));
    check(n, HubEdges(n, rng));
  }
}

TEST(CsrDeterminismTest, RelabelIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(12);
  auto check = [&rng](const Graph& g) {
    std::vector<NodeId> perm = IdentityPermutation(g.NumNodes());
    rng.Shuffle(perm);
    SetNumThreads(1);
    Graph reference = g.Relabel(perm);
    for (int threads : {2, 8}) {
      SetNumThreads(threads);
      Graph h = g.Relabel(perm);
      ExpectSameCsr(reference, h);
    }
  };
  check(gen::Rmat({.scale = 10, .num_edges = 30000}, rng));
  for (NodeId n : HubSizes()) {
    std::vector<Edge> edges = HubEdges(n, rng);
    for (bool keep : {false, true}) {
      SCOPED_TRACE("hub edges, n=" + std::to_string(n) +
                   " keep loops and duplicates=" + std::to_string(keep));
      check(Graph::FromEdges(n, edges, keep, keep));
    }
  }
}

/// The in-CSR of `g` as (node, in-neighbour) pairs, in CSR order.
std::vector<Edge> InEdges(const Graph& g) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (NodeId u : g.InNeighbors(v)) edges.push_back({v, u});
  }
  return edges;
}

/// The edges of `g` under `perm`, sorted by (src, dst) with std::sort;
/// `transpose` swaps each edge's ends first.
std::vector<Edge> SortedMappedEdges(const Graph& g,
                                    const std::vector<NodeId>& perm,
                                    bool transpose) {
  std::vector<Edge> mapped;
  for (const Edge& e : g.ToEdges()) {
    mapped.push_back(transpose ? Edge{perm[e.dst], perm[e.src]}
                               : Edge{perm[e.src], perm[e.dst]});
  }
  std::sort(mapped.begin(), mapped.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return mapped;
}

TEST(CsrDeterminismTest, HubRelabelMatchesFromEdgesOfMappedEdges) {
  // Relabel sorts each renumbered list itself; here it must agree with
  // a std::sort of the mapped edge list and with FromEdges of that list,
  // at 1, 2 and 8 threads, from a heap graph and from an mmap'd pack.
  ThreadGuard guard;
  Rng rng(16);
  const auto pack = std::filesystem::temp_directory_path() /
                    "gorder_par_hub_relabel.gpack";
  for (NodeId n : {NodeId{1} << 12, (NodeId{1} << 16) + 1,
                   NodeId{1} << 20}) {
    std::vector<Edge> edges = HubEdges(n, rng);
    for (bool keep : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " keep loops and duplicates=" + std::to_string(keep));
      SetNumThreads(1);
      Graph g = Graph::FromEdges(n, edges, keep, keep);
      std::vector<NodeId> perm = IdentityPermutation(n);
      rng.Shuffle(perm);
      const std::vector<Edge> out_ref = SortedMappedEdges(g, perm, false);
      const std::vector<Edge> in_ref = SortedMappedEdges(g, perm, true);
      ASSERT_TRUE(store::WritePack(pack.string(), g).ok);
      Graph mapped;
      ASSERT_TRUE(store::LoadPack(pack.string(), &mapped).ok);
      ASSERT_TRUE(mapped.IsMapped());
      for (int threads : {1, 2, 8}) {
        SetNumThreads(threads);
        Graph expected = Graph::FromEdges(n, out_ref, true, true);
        EXPECT_EQ(expected.ToEdges(), out_ref) << threads << " threads";
        for (const Graph* source : {&g, &mapped}) {
          Graph h = source->Relabel(perm);
          EXPECT_EQ(h.ToEdges(), out_ref) << threads << " threads";
          EXPECT_EQ(InEdges(h), in_ref) << threads << " threads";
          ExpectSameCsr(expected, h);
        }
      }
    }
  }
  std::filesystem::remove(pack);
}

TEST(CsrDeterminismTest, ReadEdgeListIdenticalAtAllThreadCounts) {
  ThreadGuard guard;
  Rng rng(13);
  Graph g = gen::BarabasiAlbert(800, 6, rng);
  auto path = std::filesystem::temp_directory_path() / "gorder_par_io.txt";
  ASSERT_TRUE(WriteEdgeList(path.string(), g).ok);
  SetNumThreads(1);
  Graph reference;
  ASSERT_TRUE(ReadEdgeList(path.string(), &reference).ok);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    Graph h;
    ASSERT_TRUE(ReadEdgeList(path.string(), &h).ok);
    ExpectSameCsr(reference, h);
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// 1-thread output must equal the pre-pool serial implementation: global
// sort + dedup of the edge list, then counting-sort CSR fill. The
// reference pipeline below reproduces those semantics naively.

TEST(CsrDeterminismTest, SerialMatchesReferenceImplementation) {
  ThreadGuard guard;
  SetNumThreads(1);
  Rng rng(14);
  auto check = [](NodeId n, const std::vector<Edge>& edges) {
    for (bool keep_loops : {false, true}) {
      for (bool keep_dups : {false, true}) {
        Graph got = Graph::FromEdges(n, edges, keep_loops, keep_dups);
        std::vector<Edge> clean = edges;
        if (!keep_loops) {
          std::erase_if(clean, [](const Edge& e) { return e.src == e.dst; });
        }
        std::sort(clean.begin(), clean.end(),
                  [](const Edge& a, const Edge& b) {
                    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
                  });
        if (!keep_dups) {
          clean.erase(std::unique(clean.begin(), clean.end()), clean.end());
        }
        // Out-CSR against ground truth...
        EXPECT_EQ(got.ToEdges(), clean)
            << "loops=" << keep_loops << " dups=" << keep_dups;
        // ...and the in-CSR: per-target buckets of sources, sorted.
        std::vector<std::vector<NodeId>> in_ref(n);
        for (const Edge& e : clean) in_ref[e.dst].push_back(e.src);
        for (NodeId v = 0; v < n; ++v) {
          std::sort(in_ref[v].begin(), in_ref[v].end());
          auto got_in = got.InNeighbors(v);
          ASSERT_EQ(got_in.size(), in_ref[v].size()) << "node " << v;
          EXPECT_TRUE(std::equal(got_in.begin(), got_in.end(),
                                 in_ref[v].begin()))
              << "node " << v;
        }
      }
    }
  };
  check(300, MessyEdges(300, 5000, rng));
  for (NodeId n : HubSizes()) {
    SCOPED_TRACE("hub edges, n=" + std::to_string(n));
    check(n, HubEdges(n, rng));
  }
}

}  // namespace
}  // namespace gorder

// Concurrency differential: N concurrent clients hammering a live
// server must receive results BIT-IDENTICAL to direct library calls —
// at 1, 2 and 8 server threads, and across an artifact hot-swap that
// republishes a different graph mid-stream.
//
// Every response is validated against the graph snapshot selected by
// the *response's* epoch tag (never by wall-clock guesses about when
// the swap landed), so the test is immune to scheduling races while
// still proving that no response ever mixes snapshots.
//
// Each client thread additionally folds the deterministic phases of its
// reply stream into a fingerprint; fingerprints must be identical
// across the three server-thread configurations — the "server
// parallelism is unobservable" claim in one comparison.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/gorder_lib.h"

namespace gorder::serve {
namespace {

constexpr int kClientThreads = 8;
constexpr int kPhase1Queries = 30;  // before the swap is even scheduled
constexpr int kPhase2Queries = 30;  // racing the swap
constexpr int kPhase3Queries = 5;   // provably after the swap

struct SharedState {
  const Graph* epoch1 = nullptr;
  const Graph* epoch2 = nullptr;
  std::atomic<int> ready{0};
  std::atomic<bool> swapped{false};
  std::atomic<bool> failed{false};
};

const Graph* GraphForEpoch(const SharedState& state, std::uint64_t epoch) {
  if (epoch == 1) return state.epoch1;
  if (epoch == 2) return state.epoch2;
  return nullptr;
}

/// Issues one rng-driven query, validates the reply bit-exactly against
/// a direct library call on the snapshot named by the reply's epoch,
/// and (when `blob` is non-null) appends the reply bytes to the
/// fingerprint stream.
void OneQuery(Client& client, Rng& rng, const SharedState& state,
              std::string* blob) {
  const std::uint64_t die = rng.Uniform(6);
  // Sample nodes valid in both snapshots so a reply is never a
  // kBadRequest just because the swap landed between send and execute.
  const NodeId max_node =
      std::min(state.epoch1->NumNodes(), state.epoch2->NumNodes());
  const NodeId node = static_cast<NodeId>(rng.Uniform(max_node));

  if (die == 0) {
    DegreeReply r = client.Degree(node);
    ASSERT_TRUE(r.ok()) << r.error;
    const Graph* g = GraphForEpoch(state, r.epoch);
    ASSERT_NE(g, nullptr) << "epoch " << r.epoch;
    EXPECT_EQ(r.out_degree, g->OutDegree(node));
    EXPECT_EQ(r.in_degree, g->InDegree(node));
    if (blob) {
      PutU32(blob, r.out_degree);
      PutU32(blob, r.in_degree);
    }
  } else if (die == 1) {
    NeighborsReply r = client.Neighbors(node);
    ASSERT_TRUE(r.ok()) << r.error;
    const Graph* g = GraphForEpoch(state, r.epoch);
    ASSERT_NE(g, nullptr) << "epoch " << r.epoch;
    auto expect = g->OutNeighbors(node);
    ASSERT_EQ(r.neighbors.size(), expect.size());
    EXPECT_TRUE(
        std::equal(expect.begin(), expect.end(), r.neighbors.begin()));
    if (blob) blob->append(reinterpret_cast<const char*>(r.neighbors.data()),
                           r.neighbors.size() * sizeof(NodeId));
  } else if (die == 2) {
    BfsReply r = client.Bfs(node);
    ASSERT_TRUE(r.ok()) << r.error;
    const Graph* g = GraphForEpoch(state, r.epoch);
    ASSERT_NE(g, nullptr) << "epoch " << r.epoch;
    algo::BfsResult local = algo::Bfs(*g, node);
    EXPECT_EQ(r.num_reached, local.num_reached);
    EXPECT_EQ(r.sum_levels, local.sum_levels);
    EXPECT_EQ(r.level_hash, HashVector64(local.level));
    if (blob) PutU64(blob, r.level_hash);
  } else if (die == 3) {
    SpReply r = client.Sp(node);
    ASSERT_TRUE(r.ok()) << r.error;
    const Graph* g = GraphForEpoch(state, r.epoch);
    ASSERT_NE(g, nullptr) << "epoch " << r.epoch;
    algo::SpResult local = algo::Sp(*g, node);
    EXPECT_EQ(r.num_reached, local.num_reached);
    EXPECT_EQ(r.max_dist, local.max_dist);
    EXPECT_EQ(r.num_rounds, local.num_rounds);
    EXPECT_EQ(r.dist_hash, HashVector64(local.dist));
    if (blob) PutU64(blob, r.dist_hash);
  } else if (die == 4) {
    PageRankTopKReply r = client.PageRankTopK(5, 3);
    ASSERT_TRUE(r.ok()) << r.error;
    const Graph* g = GraphForEpoch(state, r.epoch);
    ASSERT_NE(g, nullptr) << "epoch " << r.epoch;
    algo::PageRankResult local = algo::PageRank(*g, 3);
    EXPECT_EQ(r.total_mass, local.total_mass);  // bit-identical
    for (const auto& [v, rank] : r.top) {
      EXPECT_EQ(rank, local.rank[v]) << "node " << v;
    }
    if (blob) {
      for (const auto& [v, rank] : r.top) {
        PutU32(blob, v);
        PutF64(blob, rank);
      }
    }
  } else {
    // kOrder runs on the *uploaded* graph — epoch-independent, so the
    // expected permutation is fixed regardless of swap timing.
    const NodeId n = 24;
    std::vector<Edge> edges;
    for (NodeId v = 1; v < n; ++v) edges.push_back({v / 2, v});
    edges.push_back({static_cast<NodeId>(rng.Uniform(n)),
                     static_cast<NodeId>(rng.Uniform(n))});
    const std::uint64_t seed = rng.NextU64();
    OrderReply r = client.Order("BOBA", seed, n, edges);
    ASSERT_TRUE(r.ok()) << r.error;
    order::Method method{};
    for (order::Method m : order::AllMethodsExtended()) {
      if (std::string(order::MethodName(m)) == "BOBA") method = m;
    }
    Graph uploaded = Graph::FromEdges(n, edges);
    order::OrderingParams params;
    params.seed = seed;
    EXPECT_EQ(r.perm, order::ComputeOrdering(uploaded, method, params));
    if (blob) blob->append(reinterpret_cast<const char*>(r.perm.data()),
                           r.perm.size() * sizeof(NodeId));
  }
}

void ClientThread(const util::NetAddress& addr, int index,
                  SharedState* state, std::uint64_t* fingerprint) {
  Client client;
  IoResult c = client.Connect(addr, 60.0);
  if (!c.ok) {
    ADD_FAILURE() << "connect: " << c.error;
    state->failed.store(true);
    return;
  }
  // Seeded by thread index ONLY (not by server-thread count), so all
  // three configurations issue identical query streams.
  Rng rng(0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(index));
  std::string blob;

  for (int q = 0; q < kPhase1Queries; ++q) {
    OneQuery(client, rng, *state, &blob);
    if (::testing::Test::HasFatalFailure()) {
      state->failed.store(true);
      return;
    }
  }
  state->ready.fetch_add(1);
  // Phase 2 races the publish; replies may carry either epoch and the
  // epoch tag decides what they are checked against.
  for (int q = 0; q < kPhase2Queries; ++q) {
    OneQuery(client, rng, *state, nullptr);
    if (::testing::Test::HasFatalFailure()) {
      state->failed.store(true);
      return;
    }
  }
  while (!state->swapped.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Phase 3: the publish happened-before `swapped`, so every further
  // reply must be served by (and tagged with) epoch 2.
  for (int q = 0; q < kPhase3Queries; ++q) {
    Reply probe = client.Ping();
    ASSERT_TRUE(probe.ok()) << probe.error;
    EXPECT_EQ(probe.epoch, 2u);
    OneQuery(client, rng, *state, &blob);
    if (::testing::Test::HasFatalFailure()) {
      state->failed.store(true);
      return;
    }
  }
  *fingerprint = util::Fnv1a64(blob.data(), blob.size());
}

/// Runs the full differential battery at `serve_threads`; returns the
/// per-client fingerprints of the deterministic phases.
std::vector<std::uint64_t> RunConfig(int serve_threads, const Graph& a,
                                     const Graph& b) {
  const std::string sock = "/tmp/gorder_serve_diff_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(serve_threads) + ".sock";
  util::NetAddress addr;
  addr.is_unix = true;
  addr.path = sock;
  ServerOptions opts;
  opts.listen = addr;
  opts.serve_threads = serve_threads;
  opts.queue_capacity = 256;
  Server server(a.Clone(), opts);
  IoResult r = server.Start();
  EXPECT_TRUE(r.ok) << r.error;
  if (!r.ok) return {};

  SharedState state;
  state.epoch1 = &a;
  state.epoch2 = &b;
  std::vector<std::uint64_t> fingerprints(kClientThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClientThreads);
    for (int i = 0; i < kClientThreads; ++i) {
      threads.emplace_back(ClientThread, addr, i, &state, &fingerprints[i]);
    }
    // Hot-swap once every client is provably mid-stream.
    while (state.ready.load() < kClientThreads && !state.failed.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::uint64_t epoch = server.Publish(b.Clone());
    EXPECT_EQ(epoch, 2u);
    state.swapped.store(true);
    for (auto& t : threads) t.join();
  }
  server.Stop();
  EXPECT_FALSE(state.failed.load());
  return fingerprints;
}

TEST(ServeDifferential, BitIdenticalAcrossThreadsAndHotSwap) {
  // Two same-sized but differently-wired snapshots: a swap that went
  // unnoticed would immediately produce wrong neighbours/hashes.
  Graph a = gen::MakeDataset("epinion", 0.05, 1);
  Graph b = gen::MakeDataset("epinion", 0.05, 2);
  ASSERT_GT(a.NumNodes(), 0u);
  ASSERT_GT(b.NumNodes(), 0u);

  const std::vector<std::uint64_t> at1 = RunConfig(1, a, b);
  const std::vector<std::uint64_t> at2 = RunConfig(2, a, b);
  const std::vector<std::uint64_t> at8 = RunConfig(8, a, b);
  ASSERT_EQ(at1.size(), static_cast<std::size_t>(kClientThreads));

  // Server parallelism must be unobservable in the results.
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

}  // namespace
}  // namespace gorder::serve

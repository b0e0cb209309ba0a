#include "gen/chunked.h"

#include <algorithm>

#include "gen/generators.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace gorder::gen {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// One hash-derived uniform draw in [0, bound): the per-index PRNG of
/// the communication-free BA resolution. SplitMix64 of (seed, index),
/// bounded by Lemire's multiply-shift like Rng::Uniform.
std::uint64_t HashDraw(std::uint64_t seed, std::uint64_t index,
                       std::uint64_t bound) {
  SplitMix64 sm(seed ^ (kGolden * (index + 1)));
  const std::uint64_t x = sm.Next();
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * bound) >> 64);
}

}  // namespace

std::uint64_t ChunkSeed(std::uint64_t seed, std::uint64_t chunk_index) {
  // Bit-compatible with PR 9's StreamRmat chunk seeding: existing
  // packs, goldens and the extmem differential stay valid.
  SplitMix64 sm(seed ^ (kGolden * (chunk_index + 1)));
  return sm.Next();
}

std::uint64_t MixParamsSeed(const char* tag, std::uint64_t seed,
                            std::initializer_list<std::uint64_t> params) {
  std::uint64_t h = util::kSeedMixBasis;
  for (const char* c = tag; *c != '\0'; ++c) {
    h = util::SeedMix64(h, static_cast<unsigned char>(*c));
  }
  for (std::uint64_t p : params) {
    for (int b = 0; b < 8; ++b) h = util::SeedMix64(h, (p >> (8 * b)) & 0xFF);
  }
  SplitMix64 sm(h ^ seed);
  return sm.Next();
}

namespace internal {

IoResult RunChunked(
    std::uint64_t total_attempts, const ChunkedOptions& options,
    const std::function<void(std::uint64_t chunk, std::uint64_t first,
                             std::uint64_t count, std::vector<Edge>*)>&
        produce,
    const EdgeSink& sink) {
  GORDER_CHECK(options.chunk_edges > 0);
  const std::uint64_t chunk_edges = options.chunk_edges;
  const std::uint64_t num_chunks =
      (total_attempts + chunk_edges - 1) / chunk_edges;
  auto chunk_range = [&](std::uint64_t c, std::uint64_t* first,
                         std::uint64_t* count) {
    *first = c * chunk_edges;
    *count = std::min<std::uint64_t>(chunk_edges, total_attempts - *first);
  };

  const int threads = options.max_threads > 0
                          ? std::min(options.max_threads, NumThreads())
                          : NumThreads();
  if (options.serial_reference || threads <= 1) {
    // The retained serial reference: a straight-line loop, structurally
    // the PR 9 StreamRmat shape. The parallel driver below must match
    // it bit for bit (tests/gen_chunked_test.cpp pins this).
    std::vector<Edge> chunk;
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
      std::uint64_t first = 0, count = 0;
      chunk_range(c, &first, &count);
      chunk.clear();
      produce(c, first, count, &chunk);
      if (!chunk.empty()) {
        if (IoResult r = sink(chunk.data(), chunk.size()); !r.ok) return r;
      }
    }
    return IoResult::Ok();
  }

  // Windowed parallel driver: generate `window` chunks concurrently
  // into per-chunk buffers (range-disjoint writes — the pool's
  // determinism discipline), then drain them to the sink in chunk
  // order from this thread. Window size bounds RAM and is invisible in
  // the output.
  const std::uint64_t window =
      options.window_chunks > 0
          ? options.window_chunks
          : std::max<std::uint64_t>(4, 2 * static_cast<std::uint64_t>(threads));
  std::vector<std::vector<Edge>> buffers(
      static_cast<std::size_t>(std::min<std::uint64_t>(window, num_chunks)));
  for (std::uint64_t base = 0; base < num_chunks; base += window) {
    const std::uint64_t batch = std::min(window, num_chunks - base);
    ParallelFor(
        0, static_cast<std::size_t>(batch), 1,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const std::uint64_t c = base + i;
            std::uint64_t first = 0, count = 0;
            chunk_range(c, &first, &count);
            buffers[i].clear();
            produce(c, first, count, &buffers[i]);
          }
        },
        options.max_threads);
    for (std::uint64_t i = 0; i < batch; ++i) {
      if (buffers[i].empty()) continue;
      if (IoResult r = sink(buffers[i].data(), buffers[i].size()); !r.ok) {
        return r;
      }
    }
  }
  return IoResult::Ok();
}

void RmatChunk(const RmatParams& params, std::uint64_t seed,
               std::uint64_t chunk_index, std::uint64_t attempts,
               std::vector<Edge>* out) {
  const double d = 1.0 - params.a - params.b - params.c;
  Rng rng(ChunkSeed(seed, chunk_index));
  out->reserve(out->size() + attempts);
  for (std::uint64_t e = 0; e < attempts; ++e) {
    const Edge edge = SampleRmatEdge(params, d, rng);
    if (edge.src != edge.dst) out->push_back(edge);
  }
}

void ErdosRenyiChunk(NodeId n, std::uint64_t stream_seed,
                     std::uint64_t chunk_index, std::uint64_t attempts,
                     std::vector<Edge>* out) {
  Rng rng(ChunkSeed(stream_seed, chunk_index));
  out->reserve(out->size() + attempts);
  for (std::uint64_t e = 0; e < attempts; ++e) {
    const NodeId src = static_cast<NodeId>(rng.Uniform(n));
    // Exact non-self-loop sampling: draw from the n-1 other nodes and
    // shift past src. No rejection loop, so density cannot make this
    // grind.
    NodeId dst = static_cast<NodeId>(rng.Uniform(n - 1));
    if (dst >= src) ++dst;
    out->push_back({src, dst});
  }
}

void BarabasiAlbertChunk(NodeId n, NodeId out_k, std::uint64_t stream_seed,
                         std::uint64_t first_edge, std::uint64_t count,
                         std::vector<Edge>* out) {
  (void)n;
  out->reserve(out->size() + count);
  for (std::uint64_t i = first_edge; i < first_edge + count; ++i) {
    const NodeId src = static_cast<NodeId>(i / out_k);
    const NodeId dst = BarabasiAlbertTarget(stream_seed, out_k, i);
    if (src != dst) out->push_back({src, dst});
  }
}

}  // namespace internal

IoResult StreamRmat(const RmatParams& params, std::uint64_t seed,
                    const ChunkedOptions& options, const EdgeSink& sink) {
  GORDER_CHECK(params.scale >= 1 && params.scale < 31);
  GORDER_CHECK(1.0 - params.a - params.b - params.c > 0.0);
  return internal::RunChunked(
      params.num_edges, options,
      [&params, seed](std::uint64_t chunk, std::uint64_t /*first*/,
                      std::uint64_t count, std::vector<Edge>* out) {
        internal::RmatChunk(params, seed, chunk, count, out);
      },
      sink);
}

IoResult StreamErdosRenyi(NodeId n, EdgeId m, std::uint64_t seed,
                          const ChunkedOptions& options,
                          const EdgeSink& sink) {
  GORDER_CHECK(n >= 2);
  // Exact integer feasibility: n <= 2^32-1, so n*(n-1) fits in 64 bits.
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) - 1);
  GORDER_CHECK(m <= max_edges && "ErdosRenyi: m exceeds n*(n-1)");
  const std::uint64_t stream_seed =
      MixParamsSeed("er", seed, {n, m});
  return internal::RunChunked(
      m, options,
      [n, stream_seed](std::uint64_t chunk, std::uint64_t /*first*/,
                       std::uint64_t count, std::vector<Edge>* out) {
        internal::ErdosRenyiChunk(n, stream_seed, chunk, count, out);
      },
      sink);
}

NodeId BarabasiAlbertTarget(std::uint64_t stream_seed, NodeId out_k,
                            std::uint64_t edge_index) {
  // Batagelj-Brandes position array M of size 2 * num_edges, resolved
  // lazily: position 2i holds edge i's source (i / out_k, known in
  // closed form), position 2i+1 holds edge i's target, drawn uniformly
  // from the prefix M[0 .. 2i]. Because the draw for index i is a pure
  // hash of (stream_seed, i), any thread can chase the chain
  // odd-position -> earlier edge without ever materialising M.
  std::uint64_t i = edge_index;
  for (;;) {
    const std::uint64_t r = HashDraw(stream_seed, i, 2 * i + 1);
    if ((r & 1) == 0) return static_cast<NodeId>((r >> 1) / out_k);
    i = r >> 1;  // odd position 2j+1: recurse into edge j = r>>1 < i
  }
}

IoResult StreamBarabasiAlbert(NodeId n, NodeId out_k, std::uint64_t seed,
                              const ChunkedOptions& options,
                              const EdgeSink& sink) {
  GORDER_CHECK(n > out_k && out_k >= 1);
  const std::uint64_t total =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(out_k);
  const std::uint64_t stream_seed =
      MixParamsSeed("ba", seed, {n, out_k});
  return internal::RunChunked(
      total, options,
      [n, out_k, stream_seed](std::uint64_t /*chunk*/, std::uint64_t first,
                              std::uint64_t count, std::vector<Edge>* out) {
        internal::BarabasiAlbertChunk(n, out_k, stream_seed, first, count,
                                      out);
      },
      sink);
}

}  // namespace gorder::gen

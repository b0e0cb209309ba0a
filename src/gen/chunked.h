#ifndef GORDER_GEN_CHUNKED_H_
#define GORDER_GEN_CHUNKED_H_

/// Communication-free chunked graph generation (DESIGN.md §19).
///
/// Every streaming generator here splits its edge space into fixed-size
/// chunks and derives chunk c's PRNG state purely from
/// (params, seed, c) — the KaGen recipe ("Communication-free Massively
/// Distributed Graph Generation", Funke et al.) — so chunks can be
/// produced in any order, on any number of threads, with bit-identical
/// output. The driver generates a bounded window of chunks on the
/// shared pool (util/parallel.h) and hands them to the sink in
/// ascending chunk order, which makes the delivered *stream* (not just
/// the final graph) deterministic in (params, seed, chunk_edges) and
/// keeps RAM at O(window * chunk_edges) however many edges are
/// requested.
///
/// The sink is invoked from the calling thread only, one chunk at a
/// time, so ordinary single-threaded sinks (Graph::Builder,
/// extmem::ExtPackBuilder) need no locking.

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/edgelist_io.h"
#include "graph/graph.h"
#include "util/io_result.h"
#include "util/rng.h"

namespace gorder::gen {

struct RmatParams;  // generators.h

/// Receives generated edges chunk by chunk, in ascending chunk order.
using gorder::EdgeSink;  // graph/edgelist_io.h

/// Knobs for the chunked drivers. Defaults suit the out-of-core
/// pipeline: 2 MiB of edges per chunk, window sized from the thread
/// budget.
struct ChunkedOptions {
  /// Edge attempts per chunk. Part of the determinism key: the same
  /// (params, seed) at a different chunk_edges is a different stream.
  std::size_t chunk_edges = 1u << 18;
  /// Chunks generated concurrently per window. 0 derives
  /// max(4, 2 * threads). Affects only scheduling and peak RAM, never
  /// output.
  std::size_t window_chunks = 0;
  /// Thread cap for this stream (0 = the global pool budget).
  int max_threads = 0;
  /// Runs the retained straight-line serial loop instead of the
  /// windowed parallel driver. Same output by contract; the
  /// differential tests pin the parallel driver against this path.
  bool serial_reference = false;
};

/// Chunk c's PRNG seed, derived only from (seed, c): the StreamRmat
/// pattern, shared by every chunked generator. Fold generator
/// parameters into `seed` first (MixParamsSeed) so distinct parameter
/// sets give independent streams.
std::uint64_t ChunkSeed(std::uint64_t seed, std::uint64_t chunk_index);

/// Folds a generator tag and parameter words into a stream seed
/// (util::SeedMix64 over the tag and parameter bytes, then
/// SplitMix64-finalised).
std::uint64_t MixParamsSeed(const char* tag, std::uint64_t seed,
                            std::initializer_list<std::uint64_t> params);

/// Chunked R-MAT (Chakrabarti et al.): `params.num_edges` quadrant-
/// descent samples, self-loop attempts skipped. Deterministic in
/// (params, seed, chunk_edges); identical to the serial StreamRmat of
/// PR 9 chunk for chunk.
IoResult StreamRmat(const RmatParams& params, std::uint64_t seed,
                    const ChunkedOptions& options, const EdgeSink& sink);

/// Chunked G(n, m): exactly m uniform non-self-loop edge samples, the
/// sample count partitioned exactly across chunks (chunk c draws the
/// attempts with global indices [c*chunk_edges, min(m, ...))). There is
/// no global dedup set — duplicate samples survive the stream and are
/// removed downstream (Graph::Builder / the extmem merge dedup), so the
/// realised simple-graph edge count can undershoot m slightly, like
/// R-MAT. Self-loops are avoided exactly (dst drawn from [0, n-1) and
/// shifted past src), so no rejection loop exists to grind at the
/// density ceiling; m > n*(n-1) is still rejected as infeasible.
IoResult StreamErdosRenyi(NodeId n, EdgeId m, std::uint64_t seed,
                          const ChunkedOptions& options,
                          const EdgeSink& sink);

/// Chunk-parallel Barabasi-Albert: n nodes, out_k attachment samples
/// per node, preferential attachment realised with the Batagelj-Brandes
/// position array whose random draws are *hash-derived* from the global
/// edge index (Sanders & Schulz, "Scalable Generation of Scale-free
/// Graphs") — any chunk can resolve any attachment chain locally, so
/// the model parallelises with zero communication. Self-loop samples
/// (including the degenerate first edge) are skipped; duplicate
/// (v, dst) samples survive to downstream dedup, so out-degrees can
/// undershoot out_k slightly. This is a *different random process* from
/// the sequential in-memory BarabasiAlbert — same model family, not the
/// same graph.
IoResult StreamBarabasiAlbert(NodeId n, NodeId out_k, std::uint64_t seed,
                              const ChunkedOptions& options,
                              const EdgeSink& sink);

/// The hash-resolved attachment target of global BA edge `edge_index`
/// (see StreamBarabasiAlbert). Exposed so tests can replay the chain
/// resolution independently of the chunk driver.
NodeId BarabasiAlbertTarget(std::uint64_t stream_seed, NodeId out_k,
                            std::uint64_t edge_index);

namespace internal {

/// Per-chunk producers, exposed for the chunked-vs-serial differential
/// tests: concatenating chunk 0..k of one of these serially must equal
/// the driver's delivered stream bit for bit.
void RmatChunk(const RmatParams& params, std::uint64_t seed,
               std::uint64_t chunk_index, std::uint64_t attempts,
               std::vector<Edge>* out);
void ErdosRenyiChunk(NodeId n, std::uint64_t stream_seed,
                     std::uint64_t chunk_index, std::uint64_t attempts,
                     std::vector<Edge>* out);
void BarabasiAlbertChunk(NodeId n, NodeId out_k, std::uint64_t stream_seed,
                         std::uint64_t first_edge, std::uint64_t count,
                         std::vector<Edge>* out);

/// The generic driver: `total_attempts` edge-attempt indices split into
/// chunk_edges-sized chunks, `produce(chunk, first, count, out)` filling
/// each chunk's buffer (must depend only on its arguments), delivery to
/// `sink` in ascending chunk order. Stops at the first sink error.
IoResult RunChunked(
    std::uint64_t total_attempts, const ChunkedOptions& options,
    const std::function<void(std::uint64_t chunk, std::uint64_t first,
                             std::uint64_t count, std::vector<Edge>*)>&
        produce,
    const EdgeSink& sink);

}  // namespace internal

}  // namespace gorder::gen

#endif  // GORDER_GEN_CHUNKED_H_

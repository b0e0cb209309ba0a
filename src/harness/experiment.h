#ifndef GORDER_HARNESS_EXPERIMENT_H_
#define GORDER_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "cachesim/cache.h"
#include "graph/graph.h"

namespace gorder::harness {

/// The nine timed workloads, in the paper's presentation order
/// (Figure 5 / original Figure 9 rows).
enum class Workload { kNq, kBfs, kDfs, kScc, kSp, kPr, kDs, kKcore, kDiam };

const std::vector<Workload>& AllWorkloads();
const std::string& WorkloadName(Workload w);  // "NQ", "BFS", ...

/// Per-run knobs. Sources are *logical* ids: they refer to nodes of the
/// original graph and are mapped through the ordering permutation, so
/// every ordering does the same logical work.
struct WorkloadConfig {
  int pagerank_iterations = 20;  // paper uses 100; scaled for laptop runs
  double pagerank_damping = 0.85;
  NodeId sp_source_logical = 0;
  std::vector<NodeId> diam_sources_logical;
};

/// Picks canonical logical sources for a graph: the SP source is the
/// max-out-degree node (a well-connected start, stable across orderings)
/// and `num_diam_sources` further sources are drawn with a fixed seed.
WorkloadConfig MakeDefaultConfig(const Graph& original_graph,
                                 NodeId num_diam_sources = 8,
                                 std::uint64_t seed = 7);

/// Runs `workload` on `graph` (already relabelled by `perm`, where
/// `perm[original] = current`). Returns a result checksum — primarily to
/// defeat dead-code elimination, but also compared across orderings by
/// the harness's sanity checks where the workload is order-invariant.
std::uint64_t RunWorkload(const Graph& graph, Workload workload,
                          const WorkloadConfig& config,
                          const std::vector<NodeId>& perm);

/// Cache-traced twin of RunWorkload: replays the same workload through
/// `caches` (which the caller should Flush() beforehand).
std::uint64_t RunWorkloadTraced(const Graph& graph, Workload workload,
                                const WorkloadConfig& config,
                                const std::vector<NodeId>& perm,
                                cachesim::CacheHierarchy& caches);

/// Times `repeats` runs of the workload and returns the median seconds.
double TimeWorkload(const Graph& graph, Workload workload,
                    const WorkloadConfig& config,
                    const std::vector<NodeId>& perm, int repeats = 3);

/// Deterministic runtime model: replays the workload through a fresh
/// cache hierarchy of the given geometry and returns the modelled total
/// cycles (compute + stall). This is the repo's substitute for wall-clock
/// on the paper's testbed: the scaled-down datasets fit inside a modern
/// host's physical caches, so real wall time no longer differentiates
/// orderings, but the modelled cycles — with the matching scaled cache —
/// reproduce the paper's regime exactly and without timer noise.
double ModelWorkloadCycles(const Graph& graph, Workload workload,
                           const WorkloadConfig& config,
                           const std::vector<NodeId>& perm,
                           const cachesim::CacheHierarchyConfig& geometry);

}  // namespace gorder::harness

#endif  // GORDER_HARNESS_EXPERIMENT_H_

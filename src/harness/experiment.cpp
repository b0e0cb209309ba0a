#include "harness/experiment.h"

#include <algorithm>

#include "algo/algorithms.h"
#include "algo/traced.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace gorder::harness {

namespace {

constexpr const char* kWorkloadNames[] = {"NQ", "BFS", "DFS", "SCC", "SP",
                                          "PR", "DS", "Kcore", "Diam"};

std::uint64_t FoldDouble(double x) {
  // Quantised fold so results that are equal up to floating noise
  // checksum identically.
  return static_cast<std::uint64_t>(x * 1e9);
}

std::vector<NodeId> MapSources(const std::vector<NodeId>& logical,
                               const std::vector<NodeId>& perm) {
  std::vector<NodeId> mapped;
  mapped.reserve(logical.size());
  for (NodeId s : logical) mapped.push_back(perm[s]);
  return mapped;
}

// Per-workload touch counts: every cache-traced run adds its simulated
// L1 reference count, i.e. the number of graph memory touches the
// workload performed (identical across orderings of the same graph).
GORDER_OBS_COUNTER(c_traced_refs, "workload.traced_refs");
GORDER_OBS_COUNTER(c_runs, "workload.runs");
GORDER_OBS_COUNTER(c_traced_runs, "workload.traced_runs");

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload>* kAll = new std::vector<Workload>{
      Workload::kNq, Workload::kBfs, Workload::kDfs,
      Workload::kScc, Workload::kSp, Workload::kPr,
      Workload::kDs, Workload::kKcore, Workload::kDiam};
  return *kAll;
}

const std::string& WorkloadName(Workload w) {
  static const std::vector<std::string>* kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const char* n : kWorkloadNames) names->push_back(n);
    return names;
  }();
  return (*kNames)[static_cast<int>(w)];
}

WorkloadConfig MakeDefaultConfig(const Graph& original_graph,
                                 NodeId num_diam_sources,
                                 std::uint64_t seed) {
  WorkloadConfig config;
  const NodeId n = original_graph.NumNodes();
  GORDER_CHECK(n > 0);
  NodeId best = 0;
  for (NodeId v = 1; v < n; ++v) {
    if (original_graph.OutDegree(v) > original_graph.OutDegree(best)) {
      best = v;
    }
  }
  config.sp_source_logical = best;
  Rng rng(seed);
  for (NodeId i = 0; i < num_diam_sources; ++i) {
    config.diam_sources_logical.push_back(
        static_cast<NodeId>(rng.Uniform(n)));
  }
  return config;
}

std::uint64_t RunWorkload(const Graph& graph, Workload workload,
                          const WorkloadConfig& config,
                          const std::vector<NodeId>& perm) {
  GORDER_OBS_SPAN(span, "workload:" + WorkloadName(workload));
  GORDER_OBS_INC(c_runs);
  switch (workload) {
    case Workload::kNq:
      return algo::Nq(graph).checksum;
    case Workload::kBfs: {
      auto r = algo::BfsForest(graph);
      return r.sum_levels + r.num_reached;
    }
    case Workload::kDfs:
      return algo::DfsForest(graph).finish_checksum;
    case Workload::kScc: {
      auto r = algo::Scc(graph);
      return (static_cast<std::uint64_t>(r.num_components) << 32) |
             r.largest_component;
    }
    case Workload::kSp: {
      auto r = algo::Sp(graph, perm[config.sp_source_logical]);
      return (static_cast<std::uint64_t>(r.num_reached) << 32) | r.max_dist;
    }
    case Workload::kPr: {
      auto r = algo::PageRank(graph, config.pagerank_iterations,
                              config.pagerank_damping);
      return FoldDouble(r.total_mass);
    }
    case Workload::kDs:
      return algo::DominatingSet(graph).set_size;
    case Workload::kKcore:
      return algo::KCore(graph).max_core;
    case Workload::kDiam: {
      auto r = algo::Diameter(graph,
                              MapSources(config.diam_sources_logical, perm));
      return r.diameter_estimate;
    }
  }
  GORDER_CHECK(false && "unhandled workload");
  __builtin_unreachable();
}

std::uint64_t RunWorkloadTraced(const Graph& graph, Workload workload,
                                const WorkloadConfig& config,
                                const std::vector<NodeId>& perm,
                                cachesim::CacheHierarchy& caches) {
  GORDER_OBS_SPAN(span, "workload:" + WorkloadName(workload) + ":traced");
  GORDER_OBS_INC(c_traced_runs);
  const std::uint64_t refs_before = caches.stats().l1_refs;
  struct RefDelta {
    cachesim::CacheHierarchy& caches;
    std::uint64_t before;
    ~RefDelta() {
      GORDER_OBS_ADD(c_traced_refs, caches.stats().l1_refs - before);
    }
  } ref_delta{caches, refs_before};
  switch (workload) {
    case Workload::kNq:
      return algo::NqTraced(graph, caches).checksum;
    case Workload::kBfs: {
      auto r = algo::BfsForestTraced(graph, caches);
      return r.sum_levels + r.num_reached;
    }
    case Workload::kDfs:
      return algo::DfsForestTraced(graph, caches).finish_checksum;
    case Workload::kScc: {
      auto r = algo::SccTraced(graph, caches);
      return (static_cast<std::uint64_t>(r.num_components) << 32) |
             r.largest_component;
    }
    case Workload::kSp: {
      auto r =
          algo::SpTraced(graph, perm[config.sp_source_logical], caches);
      return (static_cast<std::uint64_t>(r.num_reached) << 32) | r.max_dist;
    }
    case Workload::kPr: {
      auto r = algo::PageRankTraced(graph, config.pagerank_iterations,
                                    config.pagerank_damping, caches);
      return FoldDouble(r.total_mass);
    }
    case Workload::kDs:
      return algo::DominatingSetTraced(graph, caches).set_size;
    case Workload::kKcore:
      return algo::KCoreTraced(graph, caches).max_core;
    case Workload::kDiam: {
      auto r = algo::DiameterTraced(
          graph, MapSources(config.diam_sources_logical, perm), caches);
      return r.diameter_estimate;
    }
  }
  GORDER_CHECK(false && "unhandled workload");
  __builtin_unreachable();
}

double TimeWorkload(const Graph& graph, Workload workload,
                    const WorkloadConfig& config,
                    const std::vector<NodeId>& perm, int repeats) {
  GORDER_CHECK(repeats >= 1);
  std::vector<double> times;
  times.reserve(repeats);
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    sink = sink + RunWorkload(graph, workload, config, perm);
    times.push_back(timer.Seconds());
  }
  (void)sink;
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double ModelWorkloadCycles(const Graph& graph, Workload workload,
                           const WorkloadConfig& config,
                           const std::vector<NodeId>& perm,
                           const cachesim::CacheHierarchyConfig& geometry) {
  cachesim::CacheHierarchy caches(geometry);
  RunWorkloadTraced(graph, workload, config, perm, caches);
  return caches.stats().compute_cycles + caches.stats().stall_cycles;
}

}  // namespace gorder::harness

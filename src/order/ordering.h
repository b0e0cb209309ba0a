#ifndef GORDER_ORDER_ORDERING_H_
#define GORDER_ORDER_ORDERING_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace gorder::order {

/// The ten ordering methods of the study (replication §2.3), in its
/// canonical presentation order.
enum class Method {
  kOriginal,    // keep the dataset's own numbering
  kRandom,      // uniform shuffle (replication's added worst-case)
  kMinLa,       // simulated-annealing minimum linear arrangement
  kMinLogA,     // simulated-annealing minimum log arrangement
  kRcm,         // Reverse Cuthill-McKee
  kInDegSort,   // descending in-degree ("DegSort")
  kChDfs,       // children-depth-first traversal order
  kSlashBurn,   // simplified SlashBurn (hubs first, isolates last)
  kLdg,         // Linear Deterministic Greedy bins of cache-line size
  kGorder,      // the paper's contribution

  // ---- Extensions beyond the replication's ten ----
  kMetis,       // multilevel recursive-bisection partitioner ordering
                // (the original paper's Metis baseline, restored)
  kOutDegSort,  // descending out-degree
  kHubSort,     // hubs sorted first, rest in original order (IISWC'18)
  kHubCluster,  // hubs first in original order (pure partition)
  kDbg,         // degree-based grouping into power-of-two classes
  kBoba,        // first-appearance order over the CSR edge stream
                // (arXiv 2306.10410): streaming-speed baseline,
                // communication-free parallel, bit-identical at any
                // thread count
};

/// Tuning knobs. Defaults reproduce the papers' settings.
struct OrderingParams {
  std::uint64_t seed = 42;

  // Gorder: window size w (paper default 5) and the score terms, which
  // the ablation bench toggles.
  NodeId window = 5;
  bool gorder_sibling_score = true;
  bool gorder_neighbor_score = true;
  /// Optional approximation: in-neighbours whose out-degree exceeds this
  /// cap are skipped during sibling-score updates, trading ordering
  /// quality for speed on power-law graphs (see the ablation bench).
  /// 0 (default) = exact updates, as in the paper.
  NodeId gorder_hub_cap = 0;
  /// The paper's lazy-update optimisation: window-exit decrements are
  /// deferred to a per-node pending counter and only applied when the
  /// node reaches the top of the unit heap, halving heap traffic. Same
  /// objective; selection ties can resolve differently.
  bool gorder_lazy_decrements = false;

  // MinLA / MinLogA simulated annealing (replication §2.3 settles on
  // S = m steps and standard energy k = m/n; 0 means "derive from
  // graph"). sa_k_zero_local_search replicates their k = 0 local search.
  std::uint64_t sa_steps = 0;
  double sa_standard_energy = 0.0;
  bool sa_local_search = false;  // force k = 0 (only downhill swaps)

  // LDG bin capacity: 64 ids = one 64-byte cache line per bin of
  // 4-byte node ids... the paper's choice (k = 64).
  NodeId ldg_bin_capacity = 64;

  // Diameter/ChDFS/SlashBurn random choices use `seed`.
};

/// Computes the permutation (`perm[old] = new`) for `method`.
/// Deterministic in (graph, method, params).
std::vector<NodeId> ComputeOrdering(const Graph& graph, Method method,
                                    const OrderingParams& params = {});

/// Name <-> enum mapping ("Original", "Random", "MinLA", "MinLogA",
/// "RCM", "InDegSort", "ChDFS", "SlashBurn", "LDG", "Gorder", plus the
/// extension names "Metis", "OutDegSort", "HubSort", "HubCluster",
/// "DBG", "BOBA"). ParseMethod returns false on an unknown name and
/// leaves `*method` untouched, so user and client input never aborts.
const std::string& MethodName(Method method);
bool ParseMethod(const std::string& name, Method* method);

/// The replication's ten methods, in its presentation order (what the
/// paper-reproduction benches sweep).
const std::vector<Method>& AllMethods();
/// The ten plus this repo's extensions (what the extension bench and
/// the CLI expose).
const std::vector<Method>& AllMethodsExtended();

// ---- Individual algorithms (exposed for tests and ablations) ----

std::vector<NodeId> OriginalOrder(const Graph& graph);
std::vector<NodeId> RandomOrder(const Graph& graph, Rng& rng);
std::vector<NodeId> InDegSortOrder(const Graph& graph);
std::vector<NodeId> ChDfsOrder(const Graph& graph);
std::vector<NodeId> RcmOrder(const Graph& graph);
std::vector<NodeId> SlashBurnOrder(const Graph& graph);
std::vector<NodeId> LdgOrder(const Graph& graph, NodeId bin_capacity);

}  // namespace gorder::order

#endif  // GORDER_ORDER_ORDERING_H_

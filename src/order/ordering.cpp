#include "order/ordering.h"

#include <algorithm>

#include "order/annealing.h"
#include "order/boba.h"
#include "order/degree_grouping.h"
#include "order/gorder.h"
#include "order/metis_like.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace gorder::order {

namespace {

struct MethodInfo {
  Method method;
  const char* name;
};

constexpr MethodInfo kMethods[] = {
    {Method::kOriginal, "Original"},   {Method::kRandom, "Random"},
    {Method::kMinLa, "MinLA"},         {Method::kMinLogA, "MinLogA"},
    {Method::kRcm, "RCM"},             {Method::kInDegSort, "InDegSort"},
    {Method::kChDfs, "ChDFS"},         {Method::kSlashBurn, "SlashBurn"},
    {Method::kLdg, "LDG"},             {Method::kGorder, "Gorder"},
    {Method::kMetis, "Metis"},         {Method::kOutDegSort, "OutDegSort"},
    {Method::kHubSort, "HubSort"},     {Method::kHubCluster, "HubCluster"},
    {Method::kDbg, "DBG"},             {Method::kBoba, "BOBA"},
};

constexpr int kNumPaperMethods = 10;

AnnealingResult RunAnnealing(const Graph& graph, ArrangementEnergy energy,
                             const OrderingParams& params) {
  // Replication defaults: S = m steps, standard energy k = m / n
  // (or pure local search when requested).
  std::uint64_t steps =
      params.sa_steps != 0 ? params.sa_steps : graph.NumEdges();
  double k = params.sa_local_search ? 0.0
             : params.sa_standard_energy != 0.0
                 ? params.sa_standard_energy
                 : static_cast<double>(graph.NumEdges()) /
                       std::max<NodeId>(1, graph.NumNodes());
  Rng rng(params.seed);
  return AnnealArrangement(graph, energy, steps, k, rng);
}

}  // namespace

const std::string& MethodName(Method method) {
  static const std::vector<std::string>* kNames = [] {
    auto* names = new std::vector<std::string>();
    for (const auto& info : kMethods) names->push_back(info.name);
    return names;
  }();
  return (*kNames)[static_cast<int>(method)];
}

bool ParseMethod(const std::string& name, Method* method) {
  for (const auto& info : kMethods) {
    if (name == info.name) {
      *method = info.method;
      return true;
    }
  }
  return false;
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method>* kAll = [] {
    auto* all = new std::vector<Method>();
    int i = 0;
    for (const auto& info : kMethods) {
      if (i++ < kNumPaperMethods) all->push_back(info.method);
    }
    return all;
  }();
  return *kAll;
}

const std::vector<Method>& AllMethodsExtended() {
  static const std::vector<Method>* kAll = [] {
    auto* all = new std::vector<Method>();
    for (const auto& info : kMethods) all->push_back(info.method);
    return all;
  }();
  return *kAll;
}

std::vector<NodeId> ComputeOrdering(const Graph& graph, Method method,
                                    const OrderingParams& params) {
  GORDER_OBS_SPAN(span, "order:" + MethodName(method));
  switch (method) {
    case Method::kOriginal:
      return OriginalOrder(graph);
    case Method::kRandom: {
      Rng rng(params.seed);
      return RandomOrder(graph, rng);
    }
    case Method::kMinLa:
      return RunAnnealing(graph, ArrangementEnergy::kLinear, params).perm;
    case Method::kMinLogA:
      return RunAnnealing(graph, ArrangementEnergy::kLog, params).perm;
    case Method::kRcm:
      return RcmOrder(graph);
    case Method::kInDegSort:
      return InDegSortOrder(graph);
    case Method::kChDfs:
      return ChDfsOrder(graph);
    case Method::kSlashBurn:
      return SlashBurnOrder(graph);
    case Method::kLdg:
      return LdgOrder(graph, params.ldg_bin_capacity);
    case Method::kGorder:
      return GorderOrder(graph, params);
    case Method::kMetis: {
      MetisLikeParams mp;
      mp.seed = params.seed;
      return MetisLikeOrder(graph, mp);
    }
    case Method::kOutDegSort:
      return OutDegSortOrder(graph);
    case Method::kHubSort:
      return HubSortOrder(graph);
    case Method::kHubCluster:
      return HubClusterOrder(graph);
    case Method::kDbg:
      return DbgOrder(graph);
    case Method::kBoba:
      return BobaOrder(graph);
  }
  GORDER_CHECK(false && "unhandled ordering method");
  __builtin_unreachable();
}

}  // namespace gorder::order

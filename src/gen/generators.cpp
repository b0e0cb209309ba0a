#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/logging.h"

namespace gorder::gen {

namespace {

std::uint64_t PackEdge(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

}  // namespace

Graph ErdosRenyi(NodeId n, EdgeId m, Rng& rng) {
  GORDER_CHECK(n >= 2);
  // Exact integer feasibility (n <= 2^32-1, so n*(n-1) fits in 64
  // bits): the old double comparison was lossy above 2^53 and let
  // near-infeasible m reach the allocation and rejection loop below.
  const std::uint64_t max_edges =
      static_cast<std::uint64_t>(n) * (static_cast<std::uint64_t>(n) - 1);
  GORDER_CHECK(m <= max_edges && "ErdosRenyi: m exceeds n*(n-1)");
  Graph::Builder builder(n);
  builder.ReserveEdges(m);
  if (m <= max_edges / 2) {
    // Sparse regime: rejection-sample (src, dst) pairs into a dedup
    // set. With m at most half the edge space every draw hits a fresh
    // edge with probability >= 1/2, so expected draws are O(m).
    std::unordered_set<std::uint64_t> seen;
    // Bounded reserve: feasible m can still be huge, and the table
    // grows on demand anyway — never size one allocation from a count
    // nothing has bounded yet, which would pre-commit multi-GB at once.
    seen.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(m * 2, std::uint64_t{1} << 24)));
    while (seen.size() < m) {
      NodeId src = static_cast<NodeId>(rng.Uniform(n));
      NodeId dst = static_cast<NodeId>(rng.Uniform(n));
      if (src == dst) continue;
      if (seen.insert(PackEdge(src, dst)).second) builder.AddEdge(src, dst);
    }
  } else {
    // Dense regime: rejection sampling would coupon-collector-grind
    // near the density ceiling, so sample the complement instead —
    // choose the max_edges - m *holes* (fewer than half the space, so
    // the same O(holes) rejection bound applies) and emit every other
    // index of the self-loop-free edge enumeration
    //   idx -> src = idx / (n-1), dst = r + (r >= src), r = idx % (n-1).
    const std::uint64_t holes = max_edges - m;
    std::unordered_set<std::uint64_t> excluded;
    excluded.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(holes * 2, std::uint64_t{1} << 24)));
    while (excluded.size() < holes) excluded.insert(rng.Uniform(max_edges));
    for (std::uint64_t idx = 0; idx < max_edges; ++idx) {
      if (excluded.count(idx)) continue;
      const NodeId src = static_cast<NodeId>(idx / (n - 1));
      const std::uint64_t r = idx % (n - 1);
      const NodeId dst = static_cast<NodeId>(r + (r >= src ? 1 : 0));
      builder.AddEdge(src, dst);
    }
  }
  return builder.Build();
}

Graph BarabasiAlbert(NodeId n, NodeId out_k, Rng& rng) {
  GORDER_CHECK(n > out_k && out_k >= 1);
  Graph::Builder builder(n);
  builder.ReserveEdges(static_cast<std::size_t>(n) * out_k);
  // `targets` holds one entry per (in-degree + 1) unit of attachment mass,
  // so uniform sampling from it is preferential attachment.
  std::vector<NodeId> targets;
  targets.reserve(static_cast<std::size_t>(n) * (out_k + 1));
  // Seed clique-ish core of out_k + 1 nodes.
  for (NodeId v = 0; v <= out_k; ++v) {
    for (NodeId w = 0; w <= out_k; ++w) {
      if (v != w) builder.AddEdge(v, w);
    }
    targets.push_back(v);
    targets.push_back(v);  // extra mass for the core
  }
  // Per-source dedup scratch: a node must not emit two parallel edges
  // in one round, or its realised out-degree silently drops when the
  // builder dedups.
  std::vector<NodeId> round;
  round.reserve(out_k);
  for (NodeId v = out_k + 1; v < n; ++v) {
    round.clear();
    for (NodeId e = 0; e < out_k; ++e) {
      // Re-sample from the attachment mass until the target is neither
      // v nor a repeat of this round: a uniform fallback here would
      // bypass preferential attachment. Terminates with probability 1 —
      // the seed core alone provides out_k + 1 distinct candidates.
      NodeId dst;
      do {
        dst = targets[rng.Uniform(targets.size())];
      } while (dst == v ||
               std::find(round.begin(), round.end(), dst) != round.end());
      round.push_back(dst);
      builder.AddEdge(v, dst);
      targets.push_back(dst);
    }
    targets.push_back(v);
  }
  return builder.Build();
}

namespace internal {

Edge SampleRmatEdge(const RmatParams& params, double d, Rng& rng) {
  NodeId src = 0, dst = 0;
  for (int level = 0; level < params.scale; ++level) {
    double na = params.a * (0.9 + 0.2 * rng.UniformDouble());
    double nb = params.b * (0.9 + 0.2 * rng.UniformDouble());
    double nc = params.c * (0.9 + 0.2 * rng.UniformDouble());
    double nd = d * (0.9 + 0.2 * rng.UniformDouble());
    double total = na + nb + nc + nd;
    double r = rng.UniformDouble() * total;
    src <<= 1;
    dst <<= 1;
    if (r < na) {
      // top-left quadrant: no bits set
    } else if (r < na + nb) {
      dst |= 1;
    } else if (r < na + nb + nc) {
      src |= 1;
    } else {
      src |= 1;
      dst |= 1;
    }
  }
  return {src, dst};
}

}  // namespace internal

Graph Rmat(const RmatParams& params, Rng& rng) {
  GORDER_CHECK(params.scale >= 1 && params.scale < 31);
  const double d = 1.0 - params.a - params.b - params.c;
  GORDER_CHECK(d > 0.0);
  const NodeId n = static_cast<NodeId>(1) << params.scale;
  Graph::Builder builder(n);
  builder.ReserveEdges(params.num_edges);
  for (EdgeId e = 0; e < params.num_edges; ++e) {
    const Edge edge = internal::SampleRmatEdge(params, d, rng);
    if (edge.src != edge.dst) builder.AddEdge(edge.src, edge.dst);
  }
  return builder.Build();
}

Graph CopyingModel(NodeId n, NodeId out_k, double copy_prob, Rng& rng) {
  GORDER_CHECK(n > out_k + 1 && out_k >= 1);
  GORDER_CHECK(copy_prob >= 0.0 && copy_prob <= 1.0);
  // Adjacency kept during generation so prototypes can be copied.
  std::vector<std::vector<NodeId>> adj(n);
  const NodeId seed_nodes = out_k + 2;
  for (NodeId v = 0; v < seed_nodes; ++v) {
    for (NodeId e = 1; e <= out_k; ++e) {
      adj[v].push_back((v + e) % seed_nodes);
    }
  }
  for (NodeId v = seed_nodes; v < n; ++v) {
    NodeId proto = static_cast<NodeId>(rng.Uniform(v));
    adj[v].reserve(out_k);
    for (NodeId e = 0; e < out_k; ++e) {
      NodeId dst;
      if (rng.UniformDouble() < copy_prob && e < adj[proto].size()) {
        dst = adj[proto][e];
      } else {
        dst = static_cast<NodeId>(rng.Uniform(v));
      }
      if (dst != v) adj[v].push_back(dst);
    }
  }
  Graph::Builder builder(n);
  builder.ReserveEdges(static_cast<std::size_t>(n) * out_k);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : adj[v]) builder.AddEdge(v, w);
  }
  return builder.Build();
}

Graph WattsStrogatz(NodeId n, NodeId k, double rewire_p, Rng& rng) {
  GORDER_CHECK(n > 2 * k && k >= 1);
  Graph::Builder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId e = 1; e <= k; ++e) {
      NodeId w = (v + e) % n;
      if (rng.UniformDouble() < rewire_p) {
        w = static_cast<NodeId>(rng.Uniform(n));
        if (w == v) w = (v + e) % n;
      }
      builder.AddEdge(v, w);
      builder.AddEdge(w, v);
    }
  }
  return builder.Build();
}

std::vector<NodeId> SamplePowerLawDegrees(NodeId n, double exponent,
                                          NodeId min_deg, NodeId max_deg,
                                          Rng& rng) {
  GORDER_CHECK(min_deg >= 1 && max_deg >= min_deg);
  GORDER_CHECK(exponent > 1.0);
  // Inverse-transform over the continuous power law, rounded down:
  // d = min * (1 - u*(1 - (max/min)^(1-a)))^(1/(1-a)).
  const double a = exponent;
  const double ratio_pow =
      std::pow(static_cast<double>(max_deg) / min_deg, 1.0 - a);
  std::vector<NodeId> degrees(n);
  for (NodeId i = 0; i < n; ++i) {
    double u = rng.UniformDouble();
    double d = min_deg *
               std::pow(1.0 - u * (1.0 - ratio_pow), 1.0 / (1.0 - a));
    degrees[i] = std::min<NodeId>(max_deg,
                                  static_cast<NodeId>(std::floor(d)));
    degrees[i] = std::max(degrees[i], min_deg);
  }
  return degrees;
}

Graph DirectedConfigurationModel(const std::vector<NodeId>& out_degrees,
                                 const std::vector<NodeId>& in_degrees,
                                 Rng& rng) {
  GORDER_CHECK(out_degrees.size() == in_degrees.size());
  const NodeId n = static_cast<NodeId>(out_degrees.size());
  std::vector<NodeId> out_stubs, in_stubs;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId i = 0; i < out_degrees[v]; ++i) out_stubs.push_back(v);
    for (NodeId i = 0; i < in_degrees[v]; ++i) in_stubs.push_back(v);
  }
  GORDER_CHECK(out_stubs.size() == in_stubs.size());
  rng.Shuffle(in_stubs);
  Graph::Builder builder(n);
  builder.ReserveEdges(out_stubs.size());
  for (std::size_t i = 0; i < out_stubs.size(); ++i) {
    builder.AddEdge(out_stubs[i], in_stubs[i]);
  }
  // Builder strips self-loops and duplicates: the erased variant.
  return builder.Build();
}

Graph PowerLawConfigurationGraph(NodeId n, double exponent, NodeId min_deg,
                                 NodeId max_deg, Rng& rng) {
  auto out_deg = SamplePowerLawDegrees(n, exponent, min_deg, max_deg, rng);
  auto in_deg = SamplePowerLawDegrees(n, exponent, min_deg, max_deg, rng);
  // Trim stubs from the larger side (highest-degree first, one at a
  // time) until the sums match.
  auto sum_of = [](const std::vector<NodeId>& d) {
    std::uint64_t s = 0;
    for (NodeId x : d) s += x;
    return s;
  };
  std::uint64_t so = sum_of(out_deg), si = sum_of(in_deg);
  auto& bigger = so > si ? out_deg : in_deg;
  std::uint64_t excess = so > si ? so - si : si - so;
  for (NodeId v = 0; excess > 0; v = (v + 1) % n) {
    if (bigger[v] > 1) {
      --bigger[v];
      --excess;
    }
  }
  return DirectedConfigurationModel(out_deg, in_deg, rng);
}

Graph PlantedPartition(const PlantedPartitionParams& params, Rng& rng) {
  const NodeId n = params.num_nodes;
  const NodeId c = params.num_communities;
  GORDER_CHECK(n >= c && c >= 1);
  // Power-law-ish community sizes: community i gets mass ~ 1/(i+1),
  // normalised to n. This mimics the skewed community-size distribution
  // of real social networks.
  std::vector<NodeId> community_of(n);
  std::vector<double> mass(c);
  double total_mass = 0.0;
  for (NodeId i = 0; i < c; ++i) {
    mass[i] = 1.0 / std::sqrt(static_cast<double>(i) + 1.0);
    total_mass += mass[i];
  }
  std::vector<NodeId> start(c + 1, 0);
  double acc = 0.0;
  for (NodeId i = 0; i < c; ++i) {
    acc += mass[i];
    start[i + 1] = static_cast<NodeId>(acc / total_mass * n);
  }
  start[c] = n;
  std::vector<std::pair<NodeId, NodeId>> ranges(c);
  for (NodeId i = 0; i < c; ++i) {
    ranges[i] = {start[i], std::max<NodeId>(start[i + 1], start[i] + 1)};
    for (NodeId v = start[i]; v < start[i + 1]; ++v) community_of[v] = i;
  }
  // Endpoint sampling is weighted by a per-node power-law "activity" so
  // the social stand-ins get the skewed degree distributions of real
  // platforms (uniform sampling would give near-Poisson degrees).
  // Tickets: node v appears activity_v times; drawing a ticket samples
  // proportionally to activity. One ticket pool per community plus a
  // global pool for the mixing edges.
  std::vector<NodeId> activity =
      SamplePowerLawDegrees(n, /*exponent=*/2.2, /*min_deg=*/1,
                            /*max_deg=*/std::max<NodeId>(2, n / 40), rng);
  std::vector<std::vector<NodeId>> community_tickets(c);
  std::vector<NodeId> global_tickets;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId t = 0; t < activity[v]; ++t) {
      community_tickets[community_of[v]].push_back(v);
      global_tickets.push_back(v);
    }
  }

  // Node ids are assigned community-contiguously, then scattered: the
  // caller decides the exposed ordering (see MakeCrawlOrder / datasets).
  const EdgeId m = static_cast<EdgeId>(params.avg_degree * n);
  std::unordered_set<std::uint64_t> seen;
  // Bounded like ErdosRenyi's: grow on demand past 2^24 buckets.
  seen.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(m * 2, std::uint64_t{1} << 24)));
  Graph::Builder builder(n);
  builder.ReserveEdges(m);
  EdgeId added = 0;
  EdgeId attempts = 0;
  const EdgeId max_attempts = m * 20;
  while (added < m && attempts < max_attempts) {
    ++attempts;
    NodeId src = global_tickets[rng.Uniform(global_tickets.size())];
    NodeId dst;
    if (rng.UniformDouble() >= params.mixing) {
      const auto& pool = community_tickets[community_of[src]];
      dst = pool[rng.Uniform(pool.size())];
    } else {
      dst = global_tickets[rng.Uniform(global_tickets.size())];
    }
    if (src == dst) continue;
    if (seen.insert(PackEdge(src, dst)).second) {
      builder.AddEdge(src, dst);
      ++added;
    }
  }
  return builder.Build();
}

}  // namespace gorder::gen

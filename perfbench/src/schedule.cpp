#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

using gorder::serve::Opcode;

std::vector<Arrival> MakeSchedule(const ScheduleSpec& spec) {
  gorder::Rng rng(spec.seed ^ 0x5c4ed01eULL);
  std::vector<Arrival> out;
  double t = 0.0;
  int next_connection = 0;
  std::uint64_t traversals = 0;
  while (true) {
    // Exponential gap; 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / spec.rate_per_s;
    if (t >= spec.duration_s) break;
    Arrival a;
    a.due_s = t;
    const bool traversal = rng.UniformDouble() < spec.traversal_share;
    const bool first_kind = rng.Uniform(2) == 0;
    // Every fourth traversal is an SP, the rest BFS. SP runs Bellman-Ford
    // rounds and costs about 1.5 times a BFS, so with a random half of
    // each the traversal median fell in the gap between the two and
    // jumped with the draw; at a fixed 3:1 it lies inside the BFS
    // latencies.
    a.op = !traversal ? (first_kind ? Opcode::kNeighbors : Opcode::kDegree)
           : (traversals++ % 4 == 3) ? Opcode::kSp
                                     : Opcode::kBfs;
    const auto& sources = spec.traversal_sources;
    a.node = traversal && !sources.empty()
                 ? sources[rng.Uniform(sources.size())]
                 : static_cast<std::uint32_t>(rng.Uniform(spec.num_nodes));
    a.connection = next_connection;
    next_connection = (next_connection + 1) % spec.connections;
    out.push_back(a);
  }
  if (spec.swap_interval_s > 0) {
    for (int k = 1; k * spec.swap_interval_s < spec.duration_s; ++k) {
      Arrival a;
      a.due_s = k * spec.swap_interval_s;
      a.op = Opcode::kSwapPack;
      out.push_back(a);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.due_s < y.due_s;
                   });
  return out;
}

}  // namespace perfbench

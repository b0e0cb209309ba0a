#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

// The open-loop arrival schedule of the serve phase: when each request is
// due, what it asks and on which connection it goes. A pure function of
// its spec, so a seed replays the same traffic.

#include <cstdint>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

struct ScheduleSpec {
  std::uint64_t seed = 1;
  double rate_per_s = 1000.0;       // Poisson arrival rate of reads
  double traversal_share = 0.02;    // BFS/SP share of reads, rest point
  double duration_s = 10.0;
  double swap_interval_s = 1.0;     // one kSwapPack per interval (0: none)
  std::uint32_t num_nodes = 1;      // point reads are uniform in [0, n)
  // BFS/SP sources are uniform over this list ([0, n) when empty).
  std::vector<std::uint32_t> traversal_sources;
  int connections = 2;
};

struct Arrival {
  double due_s = 0.0;  // seconds after the traffic start
  gorder::serve::Opcode op = gorder::serve::Opcode::kDegree;
  std::uint32_t node = 0;  // reads only
  int connection = 0;
  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Reads arrive as a Poisson process (exponential gaps); half of the
/// point reads are kNeighbors and half kDegree; every fourth traversal
/// is a kSp and the others kBfs. A kSwapPack is due at every multiple of
/// swap_interval_s inside the duration. Reads go to connections in
/// turn; swaps go to connection 0. Sorted by due time.
std::vector<Arrival> MakeSchedule(const ScheduleSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// The benchmark pipeline. Every workload runs the same phases through
// the library's public functions:
//
//   setup    generate the input from the seed, write it as a text edge
//            list (repeated, median reported)
//   ingest   extmem text -> .gpack, store verify, mmap load
//   order    Gorder or BOBA, then Graph::Relabel
//   kernel   the nine-kernel suite on the Original and reordered
//            layouts, interleaved
//   serve    gorderd child serving both packs under open-loop traffic
//
// Ingest, order and kernel repeat in rounds until their share of the
// measured seconds is used, then serve runs once. Every phase runs on one
// thread. A workload fixes the input, the ordering, how many orderings
// and kernel pairs a round runs, and the serve phase's share and rate.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "order/ordering.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::string why;
  // Input: a registry dataset (in-memory generator) or, when `dataset`
  // is empty, a chunked R-MAT stream of 2^rmat_scale nodes and
  // rmat_edge_factor * 2^rmat_scale edge attempts.
  std::string dataset;
  double dataset_scale = 1.0;
  int rmat_scale = 0;
  int rmat_edge_factor = 16;
  gorder::order::Method method = gorder::order::Method::kGorder;
  // Repetitions per round after its one ingest: orderings and
  // Original/reordered kernel pairs.
  int order_reps = 1, kernel_pairs = 1;
  double serve_share = 0.1;  // of --seconds, after the rounds
  double serve_rate = 1000;  // open-loop arrivals per second
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch files of this run (created, emptied)
  std::string self_exe;   // this binary, re-executed as the daemon
};

struct RunResult {
  MetricSet end_to_end;
  MetricSet per_layer;
  Outcome outcome;
  std::vector<std::string> notes;  // tails, derived numbers, layer times
  std::string chrome_trace;        // traced runs only
};

RunResult RunPipeline(const WorkloadSpec& spec, const RunOptions& options);

/// Every metric name the benchmark prints, with its unit: the
/// end-to-end set and the per-layer set.
std::vector<Metric> EndToEndMetricNames();
std::vector<Metric> PerLayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_

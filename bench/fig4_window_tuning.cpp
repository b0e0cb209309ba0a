// Reproduces Figure 4 of the replication (Figure 8 of the paper): the
// effect of Gorder's window size w on PageRank runtime over the
// flickr-like dataset, for w = 1 .. 2^20 (clamped to n). The paper picks
// w = 5 and the replication finds a shallow plateau around w = 64..2048,
// with total variation of only a few percent. We report wall-clock PR
// time, the simulated L1 miss rate, and the time to compute the ordering
// itself (which is what makes small w attractive).

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace gorder;
  auto opt = bench::BenchOptions::Parse(argc, argv, /*default_scale=*/0.2);
  Flags flags(argc, argv);
  const std::string dataset = flags.GetString("dataset", "flickr");
  const int pr_iters = static_cast<int>(flags.GetInt("pr-iters", 5));

  Graph g = bench::MakeDataset(opt, dataset);
  bench::PrintHeader("Figure 4: Gorder window-size tuning (PageRank)", g,
                     dataset);
  auto config = harness::MakeDefaultConfig(g, 3, opt.seed);
  config.pagerank_iterations = pr_iters;

  std::vector<NodeId> windows;
  for (NodeId w = 1; w <= (1u << 20); w *= 4) windows.push_back(w);
  windows.insert(windows.begin() + 2, 5);  // the paper's default

  // Cost metric: modelled cycles through the scaled hierarchy (wall
  // clock at this dataset scale is timer noise; see DESIGN.md §4).
  TablePrinter table({"w", "order time", "PR cycles", "PR vs w=5",
                      "L1 miss rate", "F(pi,5)"});
  double pr_at_5 = 0.0;
  std::vector<std::tuple<NodeId, double, double, double, std::uint64_t>>
      rows;
  const auto geometry = bench::CacheConfigFromFlags(flags);
  for (NodeId w : windows) {
    order::OrderingParams params;
    params.seed = opt.seed;
    params.window = w;
    auto timed =
        bench::ComputeOrderingTimed(g, order::Method::kGorder, params);
    Graph h = g.Relabel(timed.perm);
    cachesim::CacheHierarchy caches(geometry);
    harness::RunWorkloadTraced(h, harness::Workload::kPr, config,
                               timed.perm, caches);
    double pr_cycles =
        caches.stats().compute_cycles + caches.stats().stall_cycles;
    std::uint64_t f5 = GorderScoreUnderPermutation(g, timed.perm, 5);
    if (w == 5) pr_at_5 = pr_cycles;
    rows.emplace_back(w, timed.seconds, pr_cycles,
                      caches.stats().L1MissRate(), f5);
  }
  for (const auto& [w, order_s, pr_cycles, mr, f5] : rows) {
    table.AddRow({std::to_string(w), TablePrinter::Num(order_s, 3),
                  TablePrinter::Count(pr_cycles),
                  TablePrinter::Num(pr_cycles / pr_at_5, 3),
                  TablePrinter::Num(100 * mr, 2) + "%",
                  TablePrinter::Count(static_cast<double>(f5))});
  }
  if (opt.csv) {
    table.PrintCsv();
  } else {
    table.Print();
    std::printf(
        "\nExpected shape (replication Fig 4 / paper Fig 8): runtime\n"
        "varies only a few percent across w; a shallow optimum sits at\n"
        "moderate windows; w=5 is within ~3%% of the plateau while being\n"
        "cheap to compute.\n");
  }
  return 0;
}

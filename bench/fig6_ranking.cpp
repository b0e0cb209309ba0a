// Reproduces Figure 6 of the replication: for every experiment series
// (one workload on one dataset) the orderings are ranked by runtime; the
// figure reports how often each ordering lands at each rank. Expected
// shape: Gorder collects the most first places, RCM and ChDFS follow,
// Random is last almost everywhere, LDG just above Random.
//
//   --tie-ratio=1.5   applies the paper's "beyond 1.5x of best is equal"
//                     bucketing (0 = exact ranking, the default).
//   --extended        also ranks this repo's extension orderings
//                     (Metis, OutDegSort, HubSort, HubCluster, DBG).

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace gorder;
  auto opt = bench::BenchOptions::Parse(argc, argv, /*default_scale=*/0.25);
  Flags flags(argc, argv);
  const double tie_ratio = flags.GetDouble("tie-ratio", 0.0);
  const int pr_iters = static_cast<int>(flags.GetInt("pr-iters", 8));

  std::printf(
      "Figure 6: rank histogram over all (workload x dataset) series "
      "(scale=%.2f, tie-ratio=%.1f)\n\n",
      opt.scale, tie_ratio);

  auto grid = bench::RunSpeedupGrid(opt, pr_iters, /*diam_sources=*/5,
                                    /*progress=*/!opt.csv,
                                    bench::MetricFromFlags(flags),
                                    bench::CacheConfigFromFlags(flags),
                                    flags.GetBool("extended", false));

  // Flatten to series x method.
  std::vector<std::vector<double>> series;
  for (const auto& per_dataset : grid.times) {
    for (const auto& per_workload : per_dataset) {
      series.push_back(per_workload);
    }
  }
  auto table = harness::RankSeries(series, tie_ratio);

  std::vector<std::string> header = {"Ordering"};
  for (std::size_t r = 0; r < grid.methods.size(); ++r) {
    header.push_back('#' + std::to_string(r + 1));
  }
  header.push_back("MeanRank");
  TablePrinter out(header);
  for (std::size_t mi = 0; mi < grid.methods.size(); ++mi) {
    std::vector<std::string> row = {order::MethodName(grid.methods[mi])};
    for (std::size_t r = 0; r < grid.methods.size(); ++r) {
      row.push_back(std::to_string(table.counts[mi][r]));
    }
    row.push_back(TablePrinter::Num(table.MeanRank(mi) + 1, 2));
    out.AddRow(row);
  }
  if (opt.csv) {
    out.PrintCsv();
  } else {
    out.Print();
    std::printf(
        "\n%d series total. Expected shape (paper): Gorder has the most\n"
        "first places and the best mean rank; RCM/ChDFS follow; Random\n"
        "ranks last, LDG second-to-last.\n",
        table.num_series);
  }
  return 0;
}

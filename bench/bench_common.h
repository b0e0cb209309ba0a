#ifndef GORDER_BENCH_BENCH_COMMON_H_
#define GORDER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/gorder_lib.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/timer.h"

namespace gorder::bench {

/// Process-wide artifact store, configured once by `--store-dir` at
/// flag-parse time. Null when the run is storeless (the default); all
/// store-aware helpers below degrade to the direct compute path then.
inline store::Store*& ActiveStoreSlot() {
  static store::Store* active = nullptr;
  return active;
}
inline store::Store* ActiveStore() { return ActiveStoreSlot(); }
inline void SetActiveStore(const std::string& dir) {
  ActiveStoreSlot() = new store::Store(dir);  // lives for the process
}

/// Options shared by all paper-reproduction binaries.
///   --scale=<f>      multiplies every dataset's node/edge budget
///   --datasets=a,b   comma-separated subset of the nine paper stand-ins
///                    (default: all of them)
///   --repeats=<n>    timing repetitions (median reported)
///   --csv            machine-readable output
///   --seed=<s>       RNG seed for generation and randomised orderings
///   --threads=<n>    global thread budget for the shared pool (graph
///                    build/relabel and the untraced algorithm kernels;
///                    results are bit-identical at any value). 0 keeps
///                    the GORDER_THREADS/hardware default. For a full
///                    per-thread-count speedup sweep see
///                    bench/micro_parallel_algo.
///   --quiet          suppress progress narration on stderr
///   --json-out=<f>   write a machine-readable run report at exit
///   --trace-out=<f>  write a Chrome trace (Perfetto-loadable) at exit
///   --store-dir=<d>  on-disk artifact store (src/store): datasets are
///                    resolved to binary gpacks (generate+pack on miss,
///                    zero-copy mmap on hit) and computed orderings are
///                    cached as .gperm artifacts keyed by graph
///                    fingerprint + params, so repeat runs skip both
///                    generation and Gorder recomputation
///   --failpoints=<s> arm fault-injection points (DESIGN.md §14); only
///                    valid in a -DGORDER_FAILPOINTS=ON build
///   --help           print this option summary and exit
struct BenchOptions {
  double scale = 1.0;
  std::vector<std::string> datasets;
  int repeats = 1;
  bool csv = false;
  std::uint64_t seed = 42;
  int threads = 0;
  bool quiet = false;
  std::string json_out;
  std::string trace_out;
  std::string store_dir;

  static void PrintHelp(const char* argv0) {
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Options shared by all paper-reproduction binaries:\n"
        "  --scale=<f>      multiplies every dataset's node/edge budget\n"
        "  --datasets=a,b   comma-separated subset (default: all nine)\n"
        "  --repeats=<n>    timing repetitions (median reported)\n"
        "  --csv            machine-readable output\n"
        "  --seed=<s>       RNG seed for generation and randomised "
        "orderings\n"
        "  --threads=<n>    thread budget for the shared pool "
        "(bit-identical at any value)\n"
        "  --quiet          suppress progress narration on stderr\n"
        "  --json-out=<f>   write a machine-readable run report at exit\n"
        "  --trace-out=<f>  write a Chrome trace (Perfetto) at exit\n"
        "  --store-dir=<d>  on-disk artifact store: datasets load from\n"
        "                   binary gpacks (generated+packed on first use,\n"
        "                   zero-copy mmap'ed afterwards) and orderings\n"
        "                   are cached per graph fingerprint, so warm\n"
        "                   runs skip generation and ordering "
        "computation\n"
        "  --failpoints=<s> arm fault-injection points, e.g.\n"
        "                   store.pack_write.write=err@2 (needs a\n"
        "                   -DGORDER_FAILPOINTS=ON build)\n"
        "  --help           print this summary and exit\n"
        "\n"
        "Individual binaries accept extra flags; see the header comment\n"
        "of the corresponding bench/*.cpp.\n",
        argv0);
  }

  static BenchOptions Parse(int argc, char** argv, double default_scale) {
    Flags flags(argc, argv);
    if (flags.GetBool("help", false)) {
      PrintHelp(BinaryName(argv[0]).c_str());
      std::exit(0);
    }
    BenchOptions opt;
    opt.scale = flags.GetDouble("scale", default_scale);
    // Binaries also pick datasets by their own flags, so the scale must
    // suit every standard dataset.
    for (const auto& spec : gen::AllDatasets()) {
      std::string error;
      if (!gen::CheckScale(spec, opt.scale, &error)) {
        std::fprintf(stderr, "flag --scale: %s\n", error.c_str());
        std::exit(2);
      }
    }
    opt.repeats = static_cast<int>(flags.GetInt("repeats", 1));
    opt.csv = flags.GetBool("csv", false);
    opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
    opt.threads = static_cast<int>(flags.GetInt("threads", 0));
    if (opt.threads > 0) SetNumThreads(opt.threads);
    opt.quiet = flags.GetBool("quiet", false);
    if (opt.quiet) SetLogLevel(LogLevel::kQuiet);
    opt.json_out = flags.GetString("json-out", "");
    opt.trace_out = flags.GetString("trace-out", "");
    opt.store_dir = flags.GetString("store-dir", "");
    if (!opt.store_dir.empty()) SetActiveStore(opt.store_dir);
    util::ArmFailpointsFlag(flags.GetString("failpoints", ""));
    const auto& registry = gen::AllDatasets();
    std::string names = flags.GetString("datasets", "");
    if (names.empty()) {
      for (const auto& spec : registry) {
        opt.datasets.push_back(spec.name);
      }
    } else {
      // Strict subset selection: every name must match the registry
      // exactly, otherwise a typo silently benches the wrong thing.
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        std::size_t comma = names.find(',', pos);
        opt.datasets.push_back(names.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
      std::vector<std::string> valid;
      for (const auto& spec : registry) valid.push_back(spec.name);
      for (const auto& name : opt.datasets) {
        if (std::find(valid.begin(), valid.end(), name) != valid.end()) {
          continue;
        }
        std::string all;
        for (const auto& v : valid) {
          if (!all.empty()) all += ", ";
          all += v;
        }
        std::fprintf(stderr,
                     "error: unknown dataset '%s' in --datasets\n"
                     "valid names: %s\n",
                     name.c_str(), all.c_str());
        std::exit(2);
      }
    }
    obs::RunOptions run;
    run.bench = BinaryName(argv[0]);
    run.flags = flags.Raw();
    run.json_out = opt.json_out;
    run.trace_out = opt.trace_out;
    obs::StartRun(run);
    return opt;
  }

  static std::string BinaryName(const char* argv0) {
    std::string name = argv0 != nullptr ? argv0 : "bench";
    std::size_t slash = name.find_last_of('/');
    return slash == std::string::npos ? name : name.substr(slash + 1);
  }
};

/// Selects the traced-cache geometry from --cache=scaled|xeon. "scaled"
/// (default) shrinks the hierarchy to match the scaled-down datasets so
/// the working-set-to-cache ratio — and hence the paper's miss-rate
/// regime — is preserved; "xeon" is the replication's literal geometry
/// (appropriate when running with --scale large enough to spill a 20 MiB
/// L3).
inline cachesim::CacheHierarchyConfig CacheConfigFromFlags(
    const Flags& flags) {
  std::string kind = flags.GetString("cache", "scaled");
  if (kind == "xeon") {
    return cachesim::CacheHierarchyConfig::ReplicationXeon();
  }
  return cachesim::CacheHierarchyConfig::ScaledBench();
}

/// Resolves a benchmark dataset, through the artifact store when one is
/// active (--store-dir): zero-copy mmap of the pack on hit, generate +
/// pack on miss. Storeless runs generate in memory, exactly as before.
inline Graph MakeDataset(const BenchOptions& opt, const std::string& name) {
  if (store::Store* s = ActiveStore()) {
    return s->GetDataset(name, opt.scale, opt.seed);
  }
  return gen::MakeDataset(name, opt.scale, opt.seed);
}

/// Computes an ordering and reports how long it took. With an active
/// store, `seconds` is the observed setup cost of this run (load on a
/// hit, compute on a miss) and `cold_seconds` what the ordering cost —
/// or would have cost — to compute, so callers can report the amortised
/// speedup.
struct TimedOrdering {
  std::vector<NodeId> perm;
  double seconds = 0.0;
  bool cache_hit = false;
  double cold_seconds = 0.0;
};

inline TimedOrdering ComputeOrderingTimed(const Graph& graph,
                                          order::Method method,
                                          const order::OrderingParams& params) {
  Timer timer;
  TimedOrdering result;
  store::Store* s = ActiveStore();
  std::uint64_t fp = 0;
  if (s != nullptr) {
    fp = store::GraphFingerprint(graph);
    store::Store::CachedOrdering cached;
    if (s->LoadOrdering(fp, method, params, graph.NumNodes(), &cached)) {
      result.perm = std::move(cached.perm);
      result.cache_hit = true;
      result.cold_seconds = cached.compute_seconds;
      result.seconds = timer.Seconds();
      GORDER_LOG_INFO("store: ordering hit %s/%s (loaded %.3fs, saved "
                      "%.2fs)\n",
                      order::MethodName(method).c_str(),
                      store::FingerprintHex(fp).c_str(), result.seconds,
                      cached.compute_seconds - result.seconds);
      return result;
    }
  }
  result.perm = order::ComputeOrdering(graph, method, params);
  result.seconds = timer.Seconds();
  result.cold_seconds = result.seconds;
  if (s != nullptr) {
    s->SaveOrdering(fp, method, params, result.perm, result.seconds);
    GORDER_LOG_INFO("store: ordering miss %s/%s — computed %.2fs, cached\n",
                    order::MethodName(method).c_str(),
                    store::FingerprintHex(fp).c_str(), result.seconds);
  }
  return result;
}

/// Running tally of ordering-cache effectiveness for a bench run; feeds
/// the one-line summary the warm-store benches print.
struct StoreSetupStats {
  int hits = 0;
  int misses = 0;
  double setup_seconds = 0.0;  // what this run actually spent
  double cold_seconds = 0.0;   // what a storeless run would have spent

  void Observe(const TimedOrdering& timed) {
    (timed.cache_hit ? hits : misses)++;
    setup_seconds += timed.seconds;
    cold_seconds += timed.cold_seconds;
  }

  /// Narrates the summary on stderr when a store is active (no-op
  /// otherwise). Stderr, not stdout: warm and cold runs must produce
  /// bit-identical tables/CSV, which CI diffs.
  void Print() const {
    if (ActiveStore() == nullptr) return;
    GORDER_LOG_INFO(
        "store: %d ordering cache hit%s, %d miss%s; ordering setup %.2fs "
        "vs %.2fs cold (%.1fx)\n",
        hits, hits == 1 ? "" : "s", misses, misses == 1 ? "" : "es",
        setup_seconds, cold_seconds,
        cold_seconds / std::max(setup_seconds, 1e-9));
  }
};

inline void PrintHeader(const std::string& title, const Graph& g,
                        const std::string& dataset) {
  std::printf("## %s — %s (n=%s, m=%s)\n", title.c_str(), dataset.c_str(),
              TablePrinter::Count(g.NumNodes()).c_str(),
              TablePrinter::Count(static_cast<double>(g.NumEdges())).c_str());
}

/// The full (dataset x workload x ordering) runtime grid behind Figure 5,
/// Figure S1 and Figure 6 (original paper's Figure 9).
struct SpeedupGrid {
  std::vector<std::string> datasets;
  std::vector<order::Method> methods;
  std::vector<harness::Workload> workloads;
  /// times[d][w][m]: median seconds of workload w on dataset d under
  /// ordering m.
  std::vector<std::vector<std::vector<double>>> times;
  /// order_seconds[d][m]: time to compute ordering m on dataset d.
  std::vector<std::vector<double>> order_seconds;
};

/// Cost metric for the grid: deterministic modelled cycles through the
/// scaled cache hierarchy (default; see ModelWorkloadCycles for why), or
/// raw wall-clock (meaningful once --scale makes graphs out-size the
/// host's physical caches).
enum class GridMetric { kModelCycles, kWallSeconds };

inline GridMetric MetricFromFlags(const Flags& flags) {
  return flags.GetString("metric", "cycles") == "wall"
             ? GridMetric::kWallSeconds
             : GridMetric::kModelCycles;
}

/// Runs the whole grid. Datasets are processed one at a time; orderings
/// are computed once per dataset and every workload is costed on the
/// relabelled graph (modelled cycles, or median wall time of
/// opt.repeats runs).
inline SpeedupGrid RunSpeedupGrid(const BenchOptions& opt, int pr_iterations,
                                  NodeId diam_sources, bool progress,
                                  GridMetric metric = GridMetric::kModelCycles,
                                  const cachesim::CacheHierarchyConfig&
                                      geometry =
                                          cachesim::CacheHierarchyConfig::
                                              ScaledBench(),
                                  bool extended_methods = false) {
  SpeedupGrid grid;
  grid.datasets = opt.datasets;
  grid.methods = extended_methods ? order::AllMethodsExtended()
                                  : order::AllMethods();
  grid.workloads = harness::AllWorkloads();
  StoreSetupStats store_stats;
  for (const auto& name : opt.datasets) {
    GORDER_OBS_SPAN(dataset_span, "dataset:" + name);
    Graph g = MakeDataset(opt, name);
    auto config = harness::MakeDefaultConfig(g, diam_sources, opt.seed);
    config.pagerank_iterations = pr_iterations;
    std::vector<std::vector<double>> dataset_times(
        grid.workloads.size(), std::vector<double>(grid.methods.size(), 0));
    std::vector<double> dataset_order_seconds(grid.methods.size(), 0);
    for (std::size_t mi = 0; mi < grid.methods.size(); ++mi) {
      GORDER_OBS_SPAN(method_span,
                      "ordering:" + order::MethodName(grid.methods[mi]));
      order::OrderingParams params;
      params.seed = opt.seed;
      auto timed = ComputeOrderingTimed(g, grid.methods[mi], params);
      store_stats.Observe(timed);
      dataset_order_seconds[mi] = timed.seconds;
      Graph h = g.Relabel(timed.perm);
      for (std::size_t wi = 0; wi < grid.workloads.size(); ++wi) {
        dataset_times[wi][mi] =
            metric == GridMetric::kWallSeconds
                ? harness::TimeWorkload(h, grid.workloads[wi], config,
                                        timed.perm, opt.repeats)
                : harness::ModelWorkloadCycles(h, grid.workloads[wi],
                                               config, timed.perm, geometry);
      }
      if (progress) {
        GORDER_LOG_INFO("  %s/%s done (order %.2fs)\n", name.c_str(),
                        order::MethodName(grid.methods[mi]).c_str(),
                        timed.seconds);
      }
    }
    grid.times.push_back(std::move(dataset_times));
    grid.order_seconds.push_back(std::move(dataset_order_seconds));
  }
  store_stats.Print();
  return grid;
}

}  // namespace gorder::bench

#endif  // GORDER_BENCH_BENCH_COMMON_H_

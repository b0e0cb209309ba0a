// gorder_cli — command-line front end, mirroring how the original Gorder
// release was used: read an edge list, reorder it, write it back out.
//
// Usage:
//   gorder_cli --cmd=order   --in=g.txt --out=g_gorder.txt
//              [--method=Gorder] [--window=5] [--seed=42] [--threads=N]
//              [--lazy] (Gorder lazy decrements) [--verbose] (per-phase
//              timing: score updates, heap ops, window maintenance)
//   gorder_cli --cmd=stats   --in=g.txt
//   gorder_cli --cmd=score   --in=g.txt [--window=5]
//   gorder_cli --cmd=gen     --dataset=flickr --scale=0.5 --out=g.txt
//   gorder_cli --cmd=gen     --tier=huge --dataset=rmat-huge --scale=0.125
//              --out=g.gpack [--chunk-edges=N] [--mem-budget=MB]
//              (chunk-parallel streaming generation straight into a pack;
//               huge-tier datasets never exist as an in-RAM edge list)
//   gorder_cli --cmd=convert --in=g.txt --out=g.gpack    (text <-> gpack
//                                                         by extension)
//   gorder_cli --cmd=algo    --in=g.txt --algo=pr|bfs|sp|wcc|tc
//              [--iters=20] [--source=N] [--repeats=3] [--threads=N]
//   gorder_cli --cmd=pack    --dataset=pokec --store-dir=store
//                            [--scale=0.25] [--seed=42]
//              (generates the dataset into its canonical store pack; or
//               --in=g.txt --out=g.gpack to pack an arbitrary graph; or
//               --rmat-scale=20 [--rmat-edge-factor=16] --out=g.gpack to
//               pack a synthetic R-MAT stream)
//   gorder_cli --cmd=info    --in=g.gpack   (header + section table +
//                                            peak-memory estimates)
//   gorder_cli --cmd=verify  --in=g.gpack   (full integrity check:
//               checksums, CSR invariants, content fingerprint; exit 0
//               iff the pack is intact)
//
// Graph file formats by extension: .gpack is the mmap-able store pack,
// any other name a text edge list (any command's --in/--out accepts
// either; --cmd=convert translates between them).
//
// Methods: Original Random MinLA MinLogA RCM InDegSort ChDFS SlashBurn
//          LDG Gorder Metis OutDegSort HubSort HubCluster DBG BOBA
//
// --threads=N (or the GORDER_THREADS env var) sizes the shared thread
// pool used by graph build, relabel and the untraced algorithm kernels
// (--cmd=algo); --threads=1 is fully serial, and the output is identical
// at any thread count.
//
// Out-of-core mode (DESIGN.md §18): --extmem [--mem-budget=<MB>] on
// --cmd=pack builds the .gpack through the external sort/merge pipeline
// (bounded RAM, disk-backed runs), and on --cmd=order runs the ordering
// semi-externally over a mapped pack (vertex state in RAM, adjacency
// paged from disk, except Gorder's out-lists, which it copies into RAM;
// bit-identical output). --cmd=order --extmem emits the permutation via
// --map; relabeling stays an in-memory operation.
//
// Every command also accepts --quiet (silence stderr narration),
// --json-out=<f> (machine-readable run report, written at exit) and
// --trace-out=<f> (Chrome trace for Perfetto).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "core/gorder_lib.h"
#include "util/failpoint.h"

namespace gorder {
namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

int LoadGraph(const std::string& path, Graph* g) {
  IoResult r = EndsWith(path, ".gpack") ? store::LoadPack(path, g)
                                         : ReadEdgeList(path, g);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  return 0;
}

int StoreGraph(const std::string& path, const Graph& g) {
  IoResult r = EndsWith(path, ".gpack") ? store::WritePack(path, g)
                                         : WriteEdgeList(path, g);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  return 0;
}

/// Validated dataset lookup for user-supplied --dataset flags: prints
/// the registry on a miss and returns nullptr (callers exit 2, usage
/// error) instead of aborting. Huge-tier names resolve only under an
/// explicit --tier=huge — a typo must not kick off a 10^9-edge stream.
const gen::DatasetSpec* RequireDatasetSpec(const Flags& flags,
                                           const std::string& name) {
  const std::string tier = flags.GetString("tier", "std");
  if (tier != "std" && tier != "huge") {
    std::fprintf(stderr, "error: --tier must be std or huge (got '%s')\n",
                 tier.c_str());
    return nullptr;
  }
  const bool huge = tier == "huge";
  const gen::DatasetSpec* spec = gen::FindDatasetSpec(name);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "error: unknown dataset '%s'\n"
                 "valid names: %s\n"
                 "huge tier (--tier=huge): %s\n",
                 name.c_str(), gen::DatasetNames().c_str(),
                 gen::DatasetNames(gen::DatasetTier::kHuge).c_str());
    return nullptr;
  }
  if (spec->tier == gen::DatasetTier::kHuge && !huge) {
    std::fprintf(stderr,
                 "error: '%s' is a huge-tier streaming dataset; opt in "
                 "with --tier=huge (and --out=<f.gpack>)\n",
                 name.c_str());
    return nullptr;
  }
  return spec;
}

/// --scale for `spec`: false, after printing the accepted range, for a
/// scale gen::CheckScale refuses (callers exit 2).
bool ScaleFromFlags(const Flags& flags, const gen::DatasetSpec& spec,
                    double def, double* scale) {
  *scale = flags.GetDouble("scale", def);
  std::string error;
  if (gen::CheckScale(spec, *scale, &error)) return true;
  std::fprintf(stderr, "flag --scale: %s\n", error.c_str());
  return false;
}

/// Chunked-generation knobs shared by the streaming paths. The chunk
/// size is part of the determinism contract (the stream is a function of
/// (params, seed, chunk_edges)), so it is a flag, not a budget-derived
/// value. It must lie in [1, 2^24].
gen::ChunkedOptions ChunkedFromFlags(const Flags& flags) {
  gen::ChunkedOptions options;
  options.chunk_edges = static_cast<std::size_t>(
      flags.GetIntInRange("chunk-edges", 1u << 18, 1, 1 << 24));
  return options;
}

/// Shared --extmem knobs: --mem-budget=<MB> bounds the streaming buffers
/// of the out-of-core pipeline (run buffer, merge reads).
/// A budget below 1 MB, or one whose byte count overflows int64, exits 2.
extmem::ExtmemOptions ExtmemFromFlags(const Flags& flags) {
  constexpr std::int64_t kMaxBudgetMb = INT64_MAX >> 20;
  extmem::ExtmemOptions options;
  options.mem_budget_bytes =
      static_cast<std::uint64_t>(
          flags.GetIntInRange("mem-budget", 256, 1, kMaxBudgetMb))
      << 20;
  options.scratch_dir = flags.GetString("scratch-dir", "");
  return options;
}

void ReportExtBuild(const extmem::ExtBuildStats& s) {
  GORDER_LOG_INFO(
      "extmem build: %llu edges ingested -> %llu final, %llu runs "
      "(%.1f MB scratch), %llu merge passes\n",
      static_cast<unsigned long long>(s.edges_ingested),
      static_cast<unsigned long long>(s.edges_final),
      static_cast<unsigned long long>(s.runs_written),
      static_cast<double>(s.run_bytes) / (1 << 20),
      static_cast<unsigned long long>(s.merge_passes));
}

int WritePermMap(const std::string& map_path, const std::vector<NodeId>& perm) {
  IoResult r = WritePermutationMap(map_path, perm);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  return 0;
}

/// Validated --method lookup: prints the registry on a miss and returns
/// false (callers exit 2, usage error) instead of aborting.
bool RequireMethod(const Flags& flags, order::Method* method) {
  const std::string name = flags.GetString("method", "Gorder");
  if (order::ParseMethod(name, method)) return true;
  std::string names;
  for (order::Method m : order::AllMethodsExtended()) {
    names += (names.empty() ? "" : ", ") + order::MethodName(m);
  }
  std::fprintf(stderr, "error: unknown method '%s'\nvalid names: %s\n",
               name.c_str(), names.c_str());
  return false;
}

/// --window, the Gorder window w: any NodeId from 1 up. A value outside
/// that range exits 2 instead of wrapping into one.
NodeId WindowFromFlags(const Flags& flags) {
  return static_cast<NodeId>(flags.GetIntInRange(
      "window", 5, 1, std::numeric_limits<NodeId>::max()));
}

order::OrderingParams OrderingParamsFromFlags(const Flags& flags) {
  order::OrderingParams params;
  params.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  params.window = WindowFromFlags(flags);
  params.gorder_lazy_decrements = flags.GetBool("lazy", false);
  return params;
}

/// Semi-external ordering: vertex state in RAM (plus Gorder's out-list
/// copy), adjacency paged from the mapped pack. Emits the permutation
/// (--map); relabeling would pull the whole graph into memory, so it is
/// deliberately not offered here.
int CmdOrderExtmem(const Flags& flags) {
  order::Method method;
  if (!RequireMethod(flags, &method)) return 2;
  const std::string in = flags.GetString("in", "");
  if (!EndsWith(in, ".gpack")) {
    std::fprintf(stderr,
                 "error: --cmd=order --extmem needs --in=<f.gpack> "
                 "(build one with --cmd=pack --extmem)\n");
    return 2;
  }
  const order::OrderingParams params = OrderingParamsFromFlags(flags);
  Timer timer;
  std::vector<NodeId> perm;
  extmem::SemiExternalInfo info;
  IoResult r = extmem::SemiExternalOrder(in, method, params, &perm, &info);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  GORDER_LOG_INFO(
      "%s (semi-external): %.3fs, %.1f MB pack mapped%s, %d threads\n",
      order::MethodName(method).c_str(), timer.Seconds(),
      static_cast<double>(info.pack_bytes) / (1 << 20),
      info.zero_copy ? " zero-copy" : "", NumThreads());
  if (flags.Has("out")) {
    std::fprintf(stderr,
                 "note: --out ignored with --extmem (relabel is in-memory); "
                 "the permutation goes to --map\n");
  }
  const std::string map_path = flags.GetString("map", "");
  if (!map_path.empty()) return WritePermMap(map_path, perm);
  return 0;
}

int CmdOrder(const Flags& flags) {
  if (flags.GetBool("extmem", false)) return CmdOrderExtmem(flags);
  order::Method method;
  if (!RequireMethod(flags, &method)) return 2;
  const order::OrderingParams params = OrderingParamsFromFlags(flags);
  Graph g;
  if (LoadGraph(flags.GetString("in", ""), &g) != 0) return 1;
  const bool verbose = flags.GetBool("verbose", false);
  // Ordering and relabel wall times are reported separately: the total is
  // the pipeline cost that must be amortised by downstream speedups
  // (Faldu et al., IISWC 2020).
  Timer timer;
  std::vector<NodeId> perm;
  if (verbose && method == order::Method::kGorder) {
    // Per-phase cost breakdown (a timed kernel run; the permutation is
    // bit-identical to the untimed one).
    order::GorderPhaseStats stats;
    perm = order::GorderOrder(g, params, &stats);
    auto pct = [&stats](double s) {
      return 100.0 * s / std::max(stats.total_seconds, 1e-12);
    };
    std::printf("Gorder phase breakdown (total %.3fs):\n",
                stats.total_seconds);
    std::printf("  init (heap build + seed):   %8.3fs  %5.1f%%\n",
                stats.init_seconds, pct(stats.init_seconds));
    std::printf("  score updates (entry/exit): %8.3fs  %5.1f%%  "
                "(%llu updates)\n",
                stats.score_seconds, pct(stats.score_seconds),
                static_cast<unsigned long long>(stats.score_updates));
    std::printf("  heap extract (+refiles):    %8.3fs  %5.1f%%  "
                "(%llu places, %llu refiles)\n",
                stats.extract_seconds, pct(stats.extract_seconds),
                static_cast<unsigned long long>(stats.places),
                static_cast<unsigned long long>(stats.lazy_refiles));
    std::printf("  window maintenance (rest):  %8.3fs  %5.1f%%\n",
                stats.window_seconds, pct(stats.window_seconds));
  } else {
    if (verbose) {
      GORDER_LOG_INFO("--verbose phase breakdown is Gorder-only; timing "
                      "%s normally\n",
                      order::MethodName(method).c_str());
    }
    perm = order::ComputeOrdering(g, method, params);
  }
  double order_s = timer.Seconds();
  timer.Reset();
  Graph h = g.Relabel(perm);
  double relabel_s = timer.Seconds();
  GORDER_LOG_INFO(
      "%s: ordering %.3fs, relabel %.3fs (total %.3fs, %d threads)\n",
      order::MethodName(method).c_str(), order_s, relabel_s,
      order_s + relabel_s, NumThreads());
  std::string map_path = flags.GetString("map", "");
  if (!map_path.empty() && WritePermMap(map_path, perm) != 0) return 1;
  return StoreGraph(flags.GetString("out", "out.txt"), h);
}

int CmdStats(const Flags& flags) {
  Graph g;
  if (LoadGraph(flags.GetString("in", ""), &g) != 0) return 1;
  GraphStats s = ComputeStats(g);
  std::printf("nodes:          %u\n", s.num_nodes);
  std::printf("edges:          %llu\n",
              static_cast<unsigned long long>(s.num_edges));
  std::printf("avg degree:     %.2f\n", s.avg_degree);
  std::printf("max out-degree: %u\n", s.max_out_degree);
  std::printf("max in-degree:  %u\n", s.max_in_degree);
  std::printf("csr bytes:      %zu\n", s.memory_bytes);
  std::printf("bandwidth:      %u\n", Bandwidth(g));
  std::printf("minla energy:   %.4g\n", LinearArrangementCost(g));
  std::printf("minloga energy: %.4g\n", LogArrangementCost(g));
  auto cg = compress::CompressedGraph::FromGraph(g);
  std::printf("gap bits/edge:  %.2f\n", cg.BitsPerEdge());
  LocalityProfile p = ComputeLocalityProfile(g);
  std::printf("avg gap:        %.1f\n", p.avg_gap);
  std::printf("avg log2 gap:   %.2f\n", p.avg_log2_gap);
  std::printf("same-line frac: %.1f%%\n", 100 * p.same_line_fraction);
  std::printf("gap<=5 frac:    %.1f%%\n", 100 * p.within_window5);
  std::printf("gap<=1024 frac: %.1f%%\n", 100 * p.within_window1024);
  return 0;
}

int CmdScore(const Flags& flags) {
  const NodeId w = WindowFromFlags(flags);
  Graph g;
  if (LoadGraph(flags.GetString("in", ""), &g) != 0) return 1;
  std::printf("F(identity, w=%u) = %llu\n", w,
              static_cast<unsigned long long>(GorderScore(g, w)));
  return 0;
}

/// Streams a huge-tier dataset chunk-parallel into a .gpack through the
/// external build pipeline. Peak RAM is the extmem budget plus the
/// chunk window — never the edge list, which only ever exists as an
/// ordered sequence of per-chunk buffers in flight.
int StreamHugePack(const Flags& flags, const gen::DatasetSpec& spec,
                   const std::string& out) {
  if (!EndsWith(out, ".gpack")) {
    std::fprintf(stderr,
                 "error: huge-tier datasets are stream-only; pass "
                 "--out=<f.gpack> (got '%s')\n",
                 out.c_str());
    return 2;
  }
  double scale;
  if (!ScaleFromFlags(flags, spec, 1.0, &scale)) return 2;
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const gen::ChunkedOptions chunked = ChunkedFromFlags(flags);
  Timer timer;
  extmem::ExtBuildStats stats;
  NodeId num_nodes = 0;
  IoResult r = extmem::BuildPackFromEdgeStream(
      [&](const std::function<IoResult(const Edge*, std::size_t)>& sink) {
        return gen::StreamDataset(spec.name, scale, seed, chunked, sink,
                                  &num_nodes);
      },
      /*reserve_nodes=*/0, out, ExtmemFromFlags(flags), &stats);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  ReportExtBuild(stats);
  GORDER_LOG_INFO("%s: %.3fs (%.1f Medges/s attempts, %d threads)\n",
                  spec.name.c_str(), timer.Seconds(),
                  static_cast<double>(stats.edges_ingested) / 1e6 /
                      std::max(timer.Seconds(), 1e-12),
                  NumThreads());
  std::printf("%s\n", out.c_str());
  return 0;
}

int CmdGen(const Flags& flags) {
  std::string name = flags.GetString("dataset", "epinion");
  const gen::DatasetSpec* spec = RequireDatasetSpec(flags, name);
  if (spec == nullptr) return 2;
  if (spec->tier == gen::DatasetTier::kHuge) {
    return StreamHugePack(flags, *spec, flags.GetString("out", ""));
  }
  double scale;
  if (!ScaleFromFlags(flags, *spec, 0.25, &scale)) return 2;
  auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  Graph g = gen::MakeDataset(name, scale, seed);
  GORDER_LOG_INFO("generated %s: n=%u m=%llu\n", name.c_str(),
                  g.NumNodes(), static_cast<unsigned long long>(g.NumEdges()));
  return StoreGraph(flags.GetString("out", name + ".txt"), g);
}

/// Packs a graph into the gpack container. Two modes:
///   --dataset=<name> [--store-dir=<d>] [--scale --seed [--out]]
///       generates the dataset and writes its canonical store pack
///       (or --out if given);
///   --in=<graph file> --out=<f.gpack>
///       packs an existing graph file.
/// Packs a synthetic R-MAT stream. The same chunked generator feeds both
/// paths — chunks into the ExtPackBuilder with --extmem, chunks into an
/// in-memory Graph::Builder without — so the two modes produce identical
/// packs and differ only in peak RAM (the basis of the memory-capped CI
/// comparison).
int PackRmatStream(const Flags& flags, const std::string& out) {
  if (out.empty()) {
    std::fprintf(stderr, "error: --rmat-scale needs --out=<f.gpack>\n");
    return 2;
  }
  gen::RmatParams rp;
  rp.scale = static_cast<int>(flags.GetIntInRange("rmat-scale", 20, 1, 30));
  rp.num_edges = static_cast<EdgeId>(flags.GetIntInRange(
                     "rmat-edge-factor", 16, 1, 1 << 20))
                 << rp.scale;
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  const extmem::ExtmemOptions options = ExtmemFromFlags(flags);
  // Chunk size is fixed by the generator contract (determinism depends on
  // it), so both modes use the default regardless of budget.
  const gen::ChunkedOptions chunked;
  const auto n = static_cast<NodeId>(1u << rp.scale);
  IoResult r;
  if (flags.GetBool("extmem", false)) {
    extmem::ExtPackBuilder builder(options);
    r = builder.Begin(out);
    if (r.ok) {
      builder.ReserveNodes(n);
      r = gen::StreamRmat(rp, seed, chunked,
                          [&](const Edge* edges, std::size_t count) {
                            return builder.AddBatch(edges, count);
                          });
    }
    if (r.ok) r = builder.Finish();
    if (r.ok) ReportExtBuild(builder.stats());
  } else {
    Graph::Builder b(n);
    b.ReserveEdges(static_cast<std::size_t>(rp.num_edges));
    r = gen::StreamRmat(rp, seed, chunked,
                        [&](const Edge* edges, std::size_t count) {
                          for (std::size_t i = 0; i < count; ++i) {
                            b.AddEdge(edges[i].src, edges[i].dst);
                          }
                          return IoResult::Ok();
                        });
    if (r.ok) r = store::WritePack(out, b.Build());
  }
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s\n", out.c_str());
  return 0;
}

int CmdPack(const Flags& flags) {
  std::string in = flags.GetString("in", "");
  std::string out = flags.GetString("out", "");
  std::string dataset = flags.GetString("dataset", "");
  if (flags.Has("rmat-scale")) return PackRmatStream(flags, out);
  if (flags.GetBool("extmem", false)) {
    if (in.empty() || out.empty() || EndsWith(in, ".gpack")) {
      std::fprintf(stderr,
                   "error: --cmd=pack --extmem streams a text edge list: "
                   "--in=<g.txt> --out=<f.gpack> (or --rmat-scale=<N>)\n");
      return 2;
    }
    extmem::ExtBuildStats stats;
    IoResult r =
        extmem::StreamEdgeListToPack(in, out, ExtmemFromFlags(flags), &stats);
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    ReportExtBuild(stats);
    std::printf("%s\n", out.c_str());
    return 0;
  }
  Graph g;
  if (!dataset.empty()) {
    const gen::DatasetSpec* spec = RequireDatasetSpec(flags, dataset);
    if (spec == nullptr) return 2;
    if (spec->tier == gen::DatasetTier::kHuge) {
      return StreamHugePack(flags, *spec, out);
    }
    double scale;
    if (!ScaleFromFlags(flags, *spec, 0.25, &scale)) return 2;
    auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
    std::string store_dir = flags.GetString("store-dir", "");
    if (out.empty()) {
      if (store_dir.empty()) {
        std::fprintf(stderr,
                     "error: --cmd=pack --dataset needs --store-dir "
                     "(canonical pack path) or --out=<f.gpack>\n");
        return 2;
      }
      out = store::Store(store_dir).PackPath(dataset, scale, seed);
    }
    g = gen::MakeDataset(dataset, scale, seed);
  } else if (!in.empty()) {
    if (out.empty()) {
      std::fprintf(stderr, "error: --cmd=pack --in needs --out=<f.gpack>\n");
      return 2;
    }
    if (LoadGraph(in, &g) != 0) return 1;
  } else {
    std::fprintf(stderr,
                 "error: --cmd=pack needs --dataset=<name> or --in=<file>\n");
    return 2;
  }
  IoResult r = store::WritePack(out, g);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  GORDER_LOG_INFO("packed n=%u m=%llu -> %s\n", g.NumNodes(),
                  static_cast<unsigned long long>(g.NumEdges()), out.c_str());
  std::printf("%s\n", out.c_str());
  return 0;
}

int CmdInfo(const Flags& flags) {
  const extmem::ExtmemOptions options = ExtmemFromFlags(flags);
  std::string path = flags.GetString("in", "");
  store::GpackInfo info;
  IoResult r = store::ReadPackInfo(path, &info);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("file:        %s (%llu bytes)\n", path.c_str(),
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("format:      gpack v%u, flags=0x%llx\n", info.format_version,
              static_cast<unsigned long long>(info.flags));
  std::printf("nodes:       %llu\n",
              static_cast<unsigned long long>(info.num_nodes));
  std::printf("edges:       %llu\n",
              static_cast<unsigned long long>(info.num_edges));
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(info.fingerprint));
  std::printf("sections:\n");
  for (const auto& s : info.sections) {
    std::printf("  %-13s id=%u item=%uB offset=%-10llu bytes=%-12llu "
                "crc32=%08x\n",
                s.name.c_str(), s.id, s.item_bytes,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.bytes), s.crc32);
  }
  // Peak-RSS estimates (dominant terms) so users can judge whether this
  // graph needs --extmem on their machine.
  const extmem::MemoryEstimates est =
      extmem::EstimateMemory(info.num_nodes, info.num_edges, options);
  auto mb = [](std::uint64_t b) { return static_cast<double>(b) / (1 << 20); };
  std::printf("memory estimates (peak RSS, --mem-budget=%llu MB):\n",
              static_cast<unsigned long long>(options.mem_budget_bytes >> 20));
  std::printf("  mmap load (address space):   %10.1f MB\n",
              mb(est.pack_file_bytes));
  std::printf("  in-memory load (copy):       %10.1f MB\n",
              mb(est.copy_load_bytes));
  std::printf("  in-memory build (FromEdges): %10.1f MB\n",
              mb(est.inmem_build_peak_bytes));
  std::printf("  extmem build (--extmem):     %10.1f MB\n",
              mb(est.extmem_build_bytes));
  // BOBA and the degree methods keep only O(n) vertex state; Gorder
  // also copies the out-lists into RAM (DESIGN.md §18).
  std::printf("  semi-external Gorder:        %10.1f MB (vertex state + "
              "out-list copy)\n",
              mb(est.gorder_state_bytes));
  return 0;
}

int CmdVerify(const Flags& flags) {
  std::string path = flags.GetString("in", "");
  IoResult r = store::VerifyPack(path);
  if (!r.ok) {
    std::fprintf(stderr, "verify FAILED: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("%s: OK\n", path.c_str());
  return 0;
}

int CmdConvert(const Flags& flags) {
  Graph g;
  if (LoadGraph(flags.GetString("in", ""), &g) != 0) return 1;
  return StoreGraph(flags.GetString("out", "out.txt"), g);
}

/// Runs one benchmark kernel on the loaded graph — the CLI surface for
/// the parallel algorithm kernels. Prints a result fingerprint (so runs
/// at different --threads can be diffed for the bit-identity contract)
/// and the median wall time.
int CmdAlgo(const Flags& flags) {
  constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
  const int repeats =
      static_cast<int>(flags.GetIntInRange("repeats", 3, 1, kMaxInt));
  const int iters =
      static_cast<int>(flags.GetIntInRange("iters", 20, 1, kMaxInt));
  Graph g;
  if (LoadGraph(flags.GetString("in", ""), &g) != 0) return 1;
  if (g.NumNodes() == 0) {
    std::fprintf(stderr, "error: graph is empty\n");
    return 1;
  }
  const std::string name = flags.GetString("algo", "pr");
  NodeId src = 0;
  if (flags.Has("source")) {
    src = static_cast<NodeId>(
        flags.GetIntInRange("source", 0, 0, g.NumNodes() - 1));
  } else {
    for (NodeId v = 1; v < g.NumNodes(); ++v) {
      if (g.OutDegree(v) > g.OutDegree(src)) src = v;
    }
  }

  double best = 0.0;
  std::string summary;
  char buf[256];
  for (int r = 0; r < repeats; ++r) {
    Timer timer;
    if (name == "pr") {
      auto res = algo::PageRank(g, iters);
      std::snprintf(buf, sizeof(buf), "iters=%d total_mass=%.17g",
                    res.iterations, res.total_mass);
    } else if (name == "bfs") {
      auto res = algo::BfsForest(g);
      std::snprintf(buf, sizeof(buf),
                    "reached=%u sum_levels=%llu", res.num_reached,
                    static_cast<unsigned long long>(res.sum_levels));
    } else if (name == "sp") {
      auto res = algo::Sp(g, src);
      std::snprintf(buf, sizeof(buf),
                    "source=%u reached=%u ecc=%u rounds=%u", src,
                    res.num_reached, res.max_dist, res.num_rounds);
    } else if (name == "wcc") {
      auto res = algo::Wcc(g);
      std::snprintf(buf, sizeof(buf), "components=%u largest=%u",
                    res.num_components, res.largest_component);
    } else if (name == "tc") {
      std::snprintf(buf, sizeof(buf), "triangles=%llu",
                    static_cast<unsigned long long>(algo::TriangleCount(g)));
    } else {
      std::fprintf(stderr, "error: unknown --algo=%s (pr bfs sp wcc tc)\n",
                   name.c_str());
      return 2;
    }
    double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
    summary = buf;
  }
  std::printf("%s: %s\n", name.c_str(), summary.c_str());
  GORDER_LOG_INFO("%s: best of %d runs %.3fs (%d threads)\n", name.c_str(),
                  repeats, best, NumThreads());
  return 0;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }
  if (flags.GetBool("quiet", false)) SetLogLevel(LogLevel::kQuiet);
  util::ArmFailpointsFlag(flags.GetString("failpoints", ""));
  obs::RunOptions run;
  run.bench = "gorder_cli";
  run.flags = flags.Raw();
  run.json_out = flags.GetString("json-out", "");
  run.trace_out = flags.GetString("trace-out", "");
  obs::StartRun(run);
  std::string cmd = flags.GetString("cmd", "");
  if (cmd == "order") return CmdOrder(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "score") return CmdScore(flags);
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "convert") return CmdConvert(flags);
  if (cmd == "algo") return CmdAlgo(flags);
  if (cmd == "pack") return CmdPack(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "verify") return CmdVerify(flags);
  std::fprintf(stderr,
               "usage: gorder_cli --cmd=order|stats|score|gen|convert|algo"
               "|pack|info|verify ...\n"
               "see the header of tools/gorder_cli.cpp for details\n");
  return 2;
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) { return gorder::Run(argc, argv); }

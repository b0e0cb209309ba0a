#include "pipeline.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>

#include "algo/algorithms.h"
#include "algo/traced.h"
#include "cachesim/cache.h"
#include "extmem/ext_csr.h"
#include "gen/chunked.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/stats.h"
#include "harness/experiment.h"
#include "loadgen.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "schedule.h"
#include "serve/protocol.h"
#include "store/gpack.h"
#include "util/parallel.h"

namespace perfbench {

using gorder::Edge;
using gorder::Graph;
using gorder::IoResult;
using gorder::NodeId;
using gorder::order::Method;
using gorder::serve::Opcode;
using gorder::serve::Status;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    // A round takes about 7 s on `reorder`, 5 s on `ingest` and 3 s on
    // `serve` (4-vCPU Xeon VM).
    w[0].name = "reorder";
    w[0].why =
        "the paper's experiment: Gorder on a social graph whose per-node "
        "arrays exceed L2, nine kernels at 1 thread on both layouts";
    w[0].dataset = "livejournal";
    w[0].dataset_scale = 8;
    w[0].method = Method::kGorder;
    w[0].kernel_pairs = 2;
    // Traversals here take ~40 ms; at 1000 requests/s the daemon's queue
    // filled behind them and it refused reads (kOverloaded).
    w[0].serve_rate = 300;

    w[1].name = "ingest";
    w[1].why =
        "out-of-core path: R-MAT text through extmem, store verify and "
        "mmap load, cheap BOBA ordering, kernels on the BOBA layout";
    w[1].rmat_scale = 18;
    w[1].rmat_edge_factor = 16;
    w[1].method = Method::kBoba;
    w[1].order_reps = 2;
    w[1].serve_rate = 300;

    w[2].name = "serve";
    w[2].why =
        "gorderd under open-loop Poisson traffic (98% point reads, 2% "
        "BFS/SP) with a swap every second between Original and Gorder packs";
    w[2].dataset = "livejournal";
    w[2].dataset_scale = 4;
    w[2].method = Method::kGorder;
    w[2].kernel_pairs = 2;
    w[2].serve_share = 0.4;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr int kSetupReps = 3;
constexpr int kMinRounds = 3;
constexpr int kCheckedTraversals = 8;  // per opcode, hash-checked
constexpr std::uint64_t kExtmemBudgetBytes = 64ull << 20;
constexpr double kTraversalShare = 0.02;  // BFS/SP share of the reads

const char* const kKernelKeys[] = {"nq", "bfs", "dfs", "scc", "sp",
                                   "pr", "ds", "kcore", "diam"};
// Opcodes reported per layer, with their metric keys.
const std::pair<Opcode, const char*> kServeOps[] = {
    {Opcode::kNeighbors, "neighbors"},
    {Opcode::kDegree, "degree"},
    {Opcode::kBfs, "bfs"},
    {Opcode::kSp, "sp"},
    {Opcode::kSwapPack, "swap_pack"}};
const char* const kOrderCounters[] = {
    "boba.touched_nodes", "gorder.places", "gorder.score_updates",
    "unit_heap.decrements", "unit_heap.extracts"};
const char* const kSimNames[] = {"algo.sim_l2_misses", "algo.sim_l3_misses",
                                 "algo.sim_mcycles"};
const char* const kSimUnits[] = {"count", "count", "Mcycles"};
const char* const kPhases[] = {"setup", "ingest", "order", "kernel", "serve"};
const char* const kLayers[] = {"bench", "gen",   "extmem",   "store", "graph",
                               "order", "algo", "cachesim", "serve"};

// Buffered "src dst\n" writer for the setup's text edge list.
class TextWriter {
 public:
  explicit TextWriter(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {
    buf_.reserve(kFlushBytes + 64);
  }
  ~TextWriter() { Close(); }
  TextWriter(const TextWriter&) = delete;
  TextWriter& operator=(const TextWriter&) = delete;

  void Add(NodeId src, NodeId dst) {
    char tmp[32];
    char* p = std::to_chars(tmp, tmp + 16, src).ptr;
    *p++ = ' ';
    p = std::to_chars(p, tmp + 31, dst).ptr;
    *p++ = '\n';
    buf_.append(tmp, p);
    max_id_ = std::max({max_id_, src, dst});
    ++edges_;
    if (buf_.size() >= kFlushBytes) Flush();
  }
  bool ok() const { return file_ != nullptr && ok_; }
  bool Close() {
    if (file_ == nullptr) return false;
    Flush();
    ok_ = std::fclose(file_) == 0 && ok_;
    file_ = nullptr;
    return ok_;
  }
  std::uint64_t edges() const { return edges_; }
  NodeId max_id() const { return max_id_; }

 private:
  static constexpr std::size_t kFlushBytes = 1 << 20;
  void Flush() {
    if (file_ != nullptr && !buf_.empty() &&
        std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
      ok_ = false;
    }
    buf_.clear();
  }
  std::FILE* file_;
  std::string buf_;
  bool ok_ = true;
  std::uint64_t edges_ = 0;
  NodeId max_id_ = 0;
};

bool IsBijection(const std::vector<NodeId>& perm, NodeId n) {
  if (perm.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (NodeId p : perm) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

std::uint64_t Counter(const gorder::obs::MetricsDump& dump,
                      const std::string& name) {
  for (const auto& [key, value] : dump.counters) {
    if (key == name) return value;
  }
  return 0;
}

double Ms(double seconds) { return seconds * 1e3; }

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), opt_(options), tracer_(options.trace) {
    text_path_ = opt_.work_dir + "/edges.txt";
    pack_paths_[0] = opt_.work_dir + "/original.gpack";
    pack_paths_[1] = opt_.work_dir + "/reordered.gpack";
    repeat_pack_path_ = opt_.work_dir + "/repeat.gpack";
  }

  RunResult Run() {
    gorder::SetNumThreads(1);
    {
      Tracer::Scope run(&tracer_, "bench:run");
      EnterPhase("setup");
      Setup();
      EnterPhase(nullptr);
      const double measured_start = Now();
      const auto steal_start = StealJiffies();
      process_peak_ = 0.0;  // peak_rss_mb covers the measured phases
      pipeline_ok_ =
          Rounds(measured_start + Budget(1.0 - spec_.serve_share));
      if (pipeline_ok_) Serve();
      EnterPhase(nullptr);
      measured_s_ = Now() - measured_start;
      const auto steal_end = StealJiffies();
      steal_share_ = (steal_end.first - steal_start.first) /
                     std::max(1.0, steal_end.second - steal_start.second);
      if (opt_.trace && pipeline_ok_) ExactCounts();
    }
    Report();
    if (opt_.trace) result_.chrome_trace = tracer_.ChromeTraceJson();
    return std::move(result_);
  }

 private:
  Outcome& out() { return result_.outcome; }
  double Budget(double share) const { return share * opt_.seconds; }

  // Folds this process's peak RSS into process_peak_ and into the peak
  // of the phase that ran since the last call, resets it, and counts
  // from here for `next` (nullptr: no phase). Free heap memory is
  // returned to the kernel first, so a phase's peak does not depend on
  // how much freed memory the allocator kept from earlier phases.
  void EnterPhase(const char* next) {
    const double peak = PeakRssMb();
    process_peak_ = std::max(process_peak_, peak);
    if (phase_ != nullptr) {
      phase_rss_[phase_] = std::max(phase_rss_[phase_], peak);
    }
    malloc_trim(0);
    out().Check(ResetPeakRss(), "reset peak RSS via /proc/self/clear_refs");
    phase_ = next;
  }

  void Setup() {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      double gen_s = 0.0;
      std::uint64_t generated = 0;
      const Timing total = TimeSpan(tracer_, "bench:setup", [&] {
        TextWriter writer(text_path_);
        if (!spec_.dataset.empty()) {
          Graph g;
          gen_s = TimeSpan(tracer_, "gen:MakeDataset", [&] {
                    g = gorder::gen::MakeDataset(spec_.dataset,
                                                 spec_.dataset_scale, opt_.seed);
                  }).cpu;
          TimeSpan(tracer_, "bench:write_text", [&] {
            for (NodeId v = 0; v < g.NumNodes(); ++v) {
              for (NodeId u : g.OutNeighbors(v)) writer.Add(v, u);
            }
          });
          generated = g.NumEdges();
          expected_edges_ = g.NumEdges();
        } else {
          gorder::gen::RmatParams params;
          params.scale = spec_.rmat_scale;
          params.num_edges = static_cast<gorder::EdgeId>(spec_.rmat_edge_factor)
                             << spec_.rmat_scale;
          gorder::gen::ChunkedOptions chunked;
          chunked.max_threads = 1;
          double sink_s = 0.0;
          IoResult r;
          const Timing stream = TimeSpan(tracer_, "gen:StreamRmat", [&] {
            r = gorder::gen::StreamRmat(
                params, opt_.seed, chunked,
                [&](const Edge* edges, std::size_t count) {
                  sink_s += TimeSpan(tracer_, "bench:write_text", [&] {
                              for (std::size_t i = 0; i < count; ++i) {
                                writer.Add(edges[i].src, edges[i].dst);
                              }
                            }).cpu;
                  return writer.ok() ? IoResult::Ok()
                                     : IoResult::Error("text write failed");
                });
          });
          out().Check(r.ok, "gen::StreamRmat: " + r.error);
          gen_s = stream.cpu - sink_s;
          generated = writer.edges();
        }
        out().Check(writer.Close(), "write text edge list " + text_path_);
        written_edges_ = writer.edges();
        max_id_ = writer.max_id();
      });
      setup_s_.push_back(total.cpu);
      setup_wall_s_.push_back(total.wall);
      gen_s_.push_back(gen_s);
      gen_rate_.push_back(static_cast<double>(generated) / gen_s);
    }
  }

  // Rounds of ingest, order and kernel pairs until `end` (at least
  // kMinRounds). Spreading each phase's repetitions over the whole run,
  // rather than timing each phase in one block, keeps a slow spell of
  // the shared host from moving one metric's median. False when a call
  // or check failed and the later phases cannot run.
  bool Rounds(double end) {
    for (int round = 0;; ++round) {
      if (!Ingest(round == 0)) return false;
      for (int i = 0; i < spec_.order_reps; ++i) {
        if (!Order(round == 0 && i == 0)) return false;
      }
      if (round == 0 && !Publish()) return false;
      for (int i = 0; i < spec_.kernel_pairs; ++i) KernelPair();
      if (round + 1 >= kMinRounds && Now() >= end) break;
    }
    CheckLayoutInvariants();
    return true;
  }

  // text -> .gpack -> verify -> mmap load. The first ingest's mapping is
  // the Original layout the later phases read; each repetition writes a
  // pack of its own, checked and then dropped.
  bool Ingest(bool first) {
    EnterPhase("ingest");
    gorder::extmem::ExtmemOptions options;
    options.mem_budget_bytes = kExtmemBudgetBytes;
    options.scratch_dir = opt_.work_dir;
    const std::string& path = first ? pack_paths_[0] : repeat_pack_path_;
    Graph loaded;
    gorder::extmem::ExtBuildStats stats;
    IoResult r;
    double pack_s = 0.0, verify_s = 0.0, load_s = 0.0;
    const Timing total = TimeSpan(tracer_, "bench:ingest", [&] {
      pack_s = TimeSpan(tracer_, "extmem:StreamEdgeListToPack", [&] {
                 r = gorder::extmem::StreamEdgeListToPack(text_path_, path,
                                                          options, &stats);
               }).cpu;
      extmem_rss_ = PeakRssMb();
      if (!out().Check(r.ok, "extmem::StreamEdgeListToPack: " + r.error)) {
        return;
      }
      verify_s = TimeSpan(tracer_, "store:VerifyPack", [&] {
                   r = gorder::store::VerifyPack(path);
                 }).cpu;
      if (!out().Check(r.ok, "store::VerifyPack: " + r.error)) return;
      load_s = TimeSpan(tracer_, "store:LoadPack", [&] {
                 r = gorder::store::LoadPack(path, &loaded,
                                             gorder::store::LoadMode::kMmap);
               }).cpu;
      out().Check(r.ok, "store::LoadPack: " + r.error);
    });
    if (!r.ok) return false;
    const bool ok = out().Check(
        loaded.NumNodes() == max_id_ + 1 &&
            stats.edges_ingested == written_edges_ &&
            loaded.NumEdges() == stats.edges_final &&
            (expected_edges_ == 0 || loaded.NumEdges() == expected_edges_),
        "pack n/m match the text stream");
    ingest_s_.push_back(total.cpu);
    ingest_wall_s_.push_back(total.wall);
    extmem_pack_s_.push_back(pack_s);
    verify_s_.push_back(verify_s);
    load_s_.push_back(load_s);
    ext_stats_ = stats;
    if (first) original_ = std::move(loaded);
    return ok;
  }

  // Ordering plus Relabel of the Original layout. The first result is
  // kept; each repetition must reproduce its permutation.
  bool Order(bool first) {
    EnterPhase("order");
    gorder::order::OrderingParams params;
    params.window = 5;
    params.seed = opt_.seed;
    const std::string method = gorder::order::MethodName(spec_.method);
    std::vector<NodeId> perm;
    const auto before = gorder::obs::DumpMetrics();
    const Timing compute = TimeSpan(tracer_, "order:" + method, [&] {
      perm = gorder::order::ComputeOrdering(original_, spec_.method, params);
    });
    const auto after = gorder::obs::DumpMetrics();
    if (!out().Check(IsBijection(perm, original_.NumNodes()),
                     method + " permutation is a bijection")) {
      return false;
    }
    Graph relabeled;
    const Timing relabel = TimeSpan(tracer_, "graph:Relabel", [&] {
      relabeled = original_.Relabel(perm);
    });
    if (!out().Check(relabeled.NumEdges() == original_.NumEdges(),
                     "Relabel keeps m")) {
      return false;
    }
    order_s_.push_back(compute.cpu + relabel.cpu);
    order_wall_s_.push_back(compute.wall + relabel.wall);
    compute_s_.push_back(compute.cpu);
    relabel_s_.push_back(relabel.cpu);
    for (const char* name : kOrderCounters) {
      order_counters_[name] = static_cast<double>(Counter(after, name) -
                                                  Counter(before, name));
    }
    if (first) {
      perm_ = std::move(perm);
      reordered_ = std::move(relabeled);
      return true;
    }
    return out().Check(perm == perm_, method + " repeats its permutation");
  }

  // Writes the reordered graph as a pack and maps it, so both kernel arms
  // and the daemon read their layout from an mmap'd .gpack.
  bool Publish() {
    IoResult r;
    store_write_s_ = TimeSpan(tracer_, "store:WritePack", [&] {
                       r = gorder::store::WritePack(pack_paths_[1], reordered_);
                     }).cpu;
    Graph mapped;
    if (out().Check(r.ok, "store::WritePack: " + r.error)) {
      TimeSpan(tracer_, "store:LoadPack", [&] {
        r = gorder::store::LoadPack(pack_paths_[1], &mapped,
                                    gorder::store::LoadMode::kMmap);
      });
    }
    const bool ok =
        out().Check(r.ok && mapped.NumEdges() == reordered_.NumEdges(),
                    "reordered pack loads: " + r.error);
    reordered_ = std::move(mapped);
    return ok;
  }

  // One run of the suite on each layout. Pairs go in ABBA order (the
  // Original layout first in pairs 0 and 3 of every four), so the layout
  // that runs first after a round's ingest and ordering, on colder
  // caches, alternates between rounds for one or two pairs a round. The
  // first pair is the warm-up: its times are dropped and its checksums
  // are the ones every later run must repeat.
  void KernelPair() {
    EnterPhase("kernel");
    const auto& kernels = gorder::harness::AllWorkloads();
    const int pair = kernel_pairs_run_++;
    if (pair == 0) {
      config_ = gorder::harness::MakeDefaultConfig(original_);
      identity_ = gorder::IdentityPermutation(original_.NumNodes());
      for (auto& arm : first_sum_) arm.assign(kernels.size(), 0);
      per_kernel_s_.assign(2, std::vector<std::vector<double>>(kernels.size()));
    }
    const int first_arm = pair % 4 == 1 || pair % 4 == 2 ? 1 : 0;
    for (int k = 0; k < 2; ++k) {
      const int arm = first_arm ^ k;  // 0 Original, 1 reordered
      const Graph& g = arm == 0 ? original_ : reordered_;
      const std::vector<NodeId>& perm = arm == 0 ? identity_ : perm_;
      Timing suite;
      for (std::size_t w = 0; w < kernels.size(); ++w) {
        std::uint64_t sum = 0;
        const Timing t = TimeSpan(
            tracer_,
            std::string("algo:") + kKernelKeys[w] + (arm == 0 ? "_original" : ""),
            [&] {
              sum = gorder::harness::RunWorkload(g, kernels[w], config_, perm);
            });
        suite.cpu += t.cpu;
        suite.wall += t.wall;
        if (pair == 0) {
          first_sum_[arm][w] = sum;
          continue;
        }
        out().Check(sum == first_sum_[arm][w],
                    "kernel " + std::string(kKernelKeys[w]) + " checksum repeats");
        per_kernel_s_[arm][w].push_back(t.cpu);
      }
      if (pair == 0) continue;
      (arm == 0 ? kernel_original_s_ : kernel_s_).push_back(suite.cpu);
      (arm == 0 ? kernel_original_wall_s_ : kernel_wall_s_).push_back(suite.wall);
    }
  }

  // Checksums that do not depend on the numbering agree between layouts.
  void CheckLayoutInvariants() {
    using gorder::harness::Workload;
    const auto& kernels = gorder::harness::AllWorkloads();
    for (std::size_t w = 0; w < kernels.size(); ++w) {
      const Workload kind = kernels[w];
      const std::uint64_t a = first_sum_[0][w], b = first_sum_[1][w];
      if (kind == Workload::kPr) {
        // Quantised mass (1e-9 units); summation order differs by layout.
        const std::uint64_t diff = a > b ? a - b : b - a;
        out().Check(diff <= 1000, "PageRank mass matches across layouts");
      } else if (kind == Workload::kNq || kind == Workload::kScc ||
                 kind == Workload::kSp || kind == Workload::kKcore ||
                 kind == Workload::kDiam) {
        out().Check(a == b, "kernel " + std::string(kKernelKeys[w]) +
                                " checksum matches across layouts");
      }
    }
  }

  void Serve() {
    EnterPhase("serve");
    Daemon daemon;
    std::string error;
    bool started = false;
    serve_start_s_ = TimeSpan(tracer_, "serve:start", [&] {
                       started = daemon.Start(opt_.self_exe, pack_paths_[0],
                                              &error);
                     }).wall;
    if (!out().Check(started, "daemon start: " + error)) return;
    ScheduleSpec sched;
    sched.seed = opt_.seed;
    sched.rate_per_s = spec_.serve_rate;
    sched.traversal_share = kTraversalShare;
    sched.duration_s = Budget(spec_.serve_share);
    sched.swap_interval_s = 1.0;
    sched.num_nodes = original_.NumNodes();
    sched.traversal_sources = TraversalSources();
    sched.connections = 2;
    schedule_ = MakeSchedule(sched);
    TimeSpan(tracer_, "serve:traffic", [&] {
      traffic_ = RunTraffic(daemon.port(), schedule_, pack_paths_,
                            sched.connections);
    });
    out().Check(traffic_.transport_error.empty(),
                "traffic connections: " + traffic_.transport_error);
    std::string stats_json;
    bool got_stats = false;
    TimeSpan(tracer_, "serve:stats", [&] {
      got_stats = FetchStats(daemon.port(), &stats_json, &error);
    });
    if (out().Check(got_stats, "kStats: " + error)) ParseStats(stats_json);
    bool stopped = false;
    TimeSpan(tracer_, "serve:shutdown",
             [&] { stopped = daemon.Stop(&daemon_rss_); });
    out().Check(stopped, "daemon shut down cleanly");
    CheckReplies();
  }

  // Nodes of the largest SCC under both layouts. A request's node id is
  // read in whichever layout is being served when it executes, and a
  // source in the largest SCC reaches most of the graph in either, so
  // every traversal does comparable work. Uniform sources would make
  // the latency bimodal (giant component or a few nodes) and its median
  // jump between the modes from run to run.
  std::vector<std::uint32_t> TraversalSources() const {
    const auto scc = gorder::algo::Scc(original_);
    std::vector<NodeId> size(scc.num_components, 0);
    for (NodeId c : scc.component) ++size[c];
    const NodeId giant = static_cast<NodeId>(
        std::max_element(size.begin(), size.end()) - size.begin());
    const std::vector<NodeId> inverse = gorder::InvertPermutation(perm_);
    std::vector<std::uint32_t> sources;
    for (NodeId v = 0; v < original_.NumNodes(); ++v) {
      if (scc.component[v] == giant && scc.component[inverse[v]] == giant) {
        sources.push_back(v);
      }
    }
    return sources;
  }

  void ParseStats(const std::string& json) {
    gorder::obs::JsonValue doc;
    std::string error;
    if (!out().Check(gorder::obs::ParseJson(json, &doc, &error),
                     "kStats JSON parses: " + error)) {
      return;
    }
    const gorder::obs::JsonValue* windows = doc.Find("windows");
    for (const auto& [op, key] : kServeOps) {
      const gorder::obs::JsonValue* w =
          windows ? windows->Find(std::string("serve.req_us.") + key)
                  : nullptr;
      const gorder::obs::JsonValue* win = w ? w->Find("60s") : nullptr;
      const gorder::obs::JsonValue* p50 = win ? win->Find("p50") : nullptr;
      const gorder::obs::JsonValue* p99 = win ? win->Find("p99") : nullptr;
      if (p50 && p99) exec_ms_[key] = {p50->num / 1e3, p99->num / 1e3};
    }
  }

  // Every reply answered and kOk; BFS/SP results of the first few
  // requests equal a direct algo call on the layout their epoch served.
  void CheckReplies() {
    std::map<std::uint64_t, int> epoch_layout{{1, 0}};
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const ReplyRecord& rec = traffic_.replies[i];
      if (schedule_[i].op == Opcode::kSwapPack && rec.answered &&
          rec.status == Status::kOk) {
        epoch_layout[rec.epoch] =
            traffic_.swap_paths[i] == pack_paths_[0] ? 0 : 1;
      }
    }
    int checked[2] = {0, 0};
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const Arrival& a = schedule_[i];
      const ReplyRecord& rec = traffic_.replies[i];
      const bool ok = rec.answered && rec.status == Status::kOk;
      out().Check(ok, std::string("reply to ") +
                          gorder::serve::OpcodeName(a.op) + " is kOk (got " +
                          (rec.answered ? gorder::serve::StatusName(rec.status)
                                        : "no reply") +
                          ")");
      const int kind = a.op == Opcode::kBfs ? 0 : a.op == Opcode::kSp ? 1 : -1;
      if (!ok || kind < 0 || checked[kind] >= kCheckedTraversals) continue;
      ++checked[kind];
      const auto layout = epoch_layout.find(rec.epoch);
      if (!out().Check(layout != epoch_layout.end(),
                       "reply epoch maps to a served pack")) {
        continue;
      }
      const Graph& g = layout->second == 0 ? original_ : reordered_;
      TimeSpan(tracer_, "algo:check_traversal", [&] {
        if (kind == 0) {
          const auto bfs = gorder::algo::Bfs(g, a.node);
          out().Check(bfs.num_reached == rec.reached &&
                          bfs.sum_levels == rec.extent &&
                          gorder::serve::HashVector64(bfs.level) == rec.hash,
                      "BFS reply equals a direct algo::Bfs");
        } else {
          const auto sp = gorder::algo::Sp(g, a.node);
          out().Check(sp.num_reached == rec.reached &&
                          sp.max_dist == rec.extent &&
                          gorder::serve::HashVector64(sp.dist) == rec.hash,
                      "SP reply equals a direct algo::Sp");
        }
      });
    }
  }

  // Exact, repeatable counts for the traced run: F-scores and the
  // cachesim replay of PageRank (2 iterations) and BFS on both layouts.
  void ExactCounts() {
    TimeSpan(tracer_, "bench:exact_counts", [&] {
      TimeSpan(tracer_, "graph:GorderScore", [&] {
        score_f5_ = static_cast<double>(
            gorder::GorderScoreUnderPermutation(original_, perm_, 5));
        score_f5_original_ =
            static_cast<double>(gorder::GorderScore(original_, 5));
      });
      for (int arm = 0; arm < 2; ++arm) {
        const Graph& g = arm == 0 ? original_ : reordered_;
        const NodeId source = arm == 0 ? config_.sp_source_logical
                                       : perm_[config_.sp_source_logical];
        gorder::cachesim::CacheHierarchy caches(
            gorder::cachesim::CacheHierarchyConfig::ScaledBench());
        TimeSpan(tracer_, "cachesim:replay", [&] {
          gorder::algo::PageRankTraced(g, 2, 0.85, caches);
          gorder::algo::BfsTraced(g, source, caches);
        });
        const auto& s = caches.stats();
        sim_[arm][0] = static_cast<double>(s.l3_refs);  // missed L2
        sim_[arm][1] = static_cast<double>(s.l3_misses);
        sim_[arm][2] = (s.stall_cycles + s.compute_cycles) / 1e6;
      }
    });
  }

  std::vector<double> Latencies(std::initializer_list<Opcode> ops,
                                bool lag = false) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      if (std::find(ops.begin(), ops.end(), schedule_[i].op) == ops.end()) {
        continue;
      }
      const ReplyRecord& rec = traffic_.replies[i];
      if (lag) {
        if (rec.sent_s >= 0) v.push_back(Ms(rec.sent_s - schedule_[i].due_s));
      } else if (rec.answered && rec.status == Status::kOk) {
        v.push_back(Ms(rec.recv_s - schedule_[i].due_s));
      } else {
        // A failed or refused request misses every latency limit.
        v.push_back(INFINITY);
      }
    }
    return v;
  }

  static double MedianOr(const std::vector<double>& v) {
    return v.empty() ? NAN : Median(v);
  }

  void Report() {
    MetricSet& e2e = result_.end_to_end;
    const auto point = Latencies({Opcode::kNeighbors, Opcode::kDegree});
    const auto traverse = Latencies({Opcode::kBfs, Opcode::kSp});
    const auto swap = Latencies({Opcode::kSwapPack});
    e2e.Add("setup_s", MedianOr(setup_s_), "s");
    e2e.Add("peak_rss_mb", std::max(process_peak_, daemon_rss_), "MB");
    e2e.Add("ingest_s", MedianOr(ingest_s_), "s");
    e2e.Add("order_s", MedianOr(order_s_), "s");
    e2e.Add("kernel_s", MedianOr(kernel_s_), "s");
    e2e.Add("kernel_original_s", MedianOr(kernel_original_s_), "s");
    for (const Metric& m : e2e.all()) {
      out().Check(std::isfinite(m.value) && m.value > 0,
                  "end-to-end metric " + m.name + " was measured");
    }

    auto& notes = result_.notes;
    notes.push_back("measured_s: " + Fmt(measured_s_) +
                    " steal_share: " + Fmt(steal_share_));
    // Gated times are CPU seconds; their wall-clock twins are printed so
    // that the time lost to steal, preemption and disk waits shows.
    const std::pair<const char*, const std::vector<double>*> samples[] = {
        {"setup", &setup_s_},   {"setup_wall", &setup_wall_s_},
        {"ingest", &ingest_s_}, {"ingest_wall", &ingest_wall_s_},
        {"order", &order_s_},   {"order_wall", &order_wall_s_},
        {"kernel", &kernel_s_}, {"kernel_wall", &kernel_wall_s_},
        {"kernel_original", &kernel_original_s_},
        {"kernel_original_wall", &kernel_original_wall_s_}};
    for (const auto& [name, values] : samples) {
      notes.push_back(DescribeSample(std::string(name) + "_s", *values, "s"));
    }
    notes.push_back(DescribeSample("serve_point_ms", point, "ms"));
    notes.push_back(DescribeSample("serve_traverse_ms", traverse, "ms"));
    notes.push_back(DescribeSample("serve_swap_ms", swap, "ms"));
    std::vector<double> lag, wire;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const ReplyRecord& rec = traffic_.replies[i];
      if (rec.sent_s < 0) continue;
      lag.push_back(Ms(rec.sent_s - schedule_[i].due_s));
      if (rec.answered) wire.push_back(Ms(rec.recv_s - rec.sent_s));
    }
    notes.push_back(DescribeSample("loadgen_lag_ms", lag, "ms"));
    notes.push_back(DescribeSample("serve_sent_to_reply_ms", wire, "ms"));
    const double k = MedianOr(kernel_s_), ko = MedianOr(kernel_original_s_);
    const double saving = ko - k;
    notes.push_back(
        "derived: kernel_speedup=" + Fmt(ko / k) +
        " break_even_runs=" +
        (saving > 0 ? Fmt(MedianOr(order_s_) / saving)
                    : std::string("n/a")));
    if (opt_.trace) ReportLayers();
  }

  void ReportLayers() {
    MetricSet& m = result_.per_layer;
    m.Add("gen.stream_s", MedianOr(gen_s_), "s");
    m.Add("gen.edges_per_s", MedianOr(gen_rate_), "1/s");
    m.Add("extmem.pack_s", MedianOr(extmem_pack_s_), "s");
    m.Add("extmem.runs_written", ext_stats_.runs_written, "count");
    m.Add("extmem.run_bytes", ext_stats_.run_bytes, "B");
    m.Add("extmem.merge_passes", ext_stats_.merge_passes, "count");
    m.Add("extmem.dedup_ratio",
          static_cast<double>(ext_stats_.edges_final) /
              static_cast<double>(ext_stats_.edges_ingested),
          "ratio");
    m.Add("extmem.peak_rss_mb", extmem_rss_, "MB");
    m.Add("store.verify_s", MedianOr(verify_s_), "s");
    m.Add("store.load_s", MedianOr(load_s_), "s");
    m.Add("store.write_s", store_write_s_, "s");
    m.Add("graph.relabel_s", MedianOr(relabel_s_), "s");
    m.Add("order.compute_s", MedianOr(compute_s_), "s");
    for (const char* name : kOrderCounters) {
      m.Add(name, order_counters_[name], "count");
    }
    m.Add("order.score_f5", score_f5_, "count");
    m.Add("order.score_f5_original", score_f5_original_, "count");
    for (int i = 0; i < 3; ++i) {
      m.Add(kSimNames[i], sim_[1][i], kSimUnits[i]);
      m.Add(std::string(kSimNames[i]) + "_original", sim_[0][i], kSimUnits[i]);
    }
    for (std::size_t w = 0; w < std::size(kKernelKeys); ++w) {
      const std::string base = std::string("algo.") + kKernelKeys[w];
      m.Add(base + "_s", MedianOr(per_kernel_s_[1][w]), "s");
      m.Add(base + "_original_s", MedianOr(per_kernel_s_[0][w]), "s");
    }
    // One scan of the CSR per traversal, per PageRank iteration and per
    // diameter source; two for the undirected-view kernels (DS, Kcore).
    const double scans = 5.0 + config_.pagerank_iterations + 4.0 +
                         static_cast<double>(config_.diam_sources_logical.size());
    m.Add("algo.edges_visited", scans * original_.NumEdges(), "count");
    double sent = 0, ok = 0, overloaded = 0, errors = 0;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const ReplyRecord& rec = traffic_.replies[i];
      if (rec.sent_s >= 0) ++sent;
      if (!rec.answered) continue;
      if (rec.status == Status::kOk) {
        ++ok;
      } else if (rec.status == Status::kOverloaded) {
        ++overloaded;
      } else {
        ++errors;
      }
    }
    for (const auto& [op, key] : kServeOps) {
      const auto lat = Latencies({op});
      const std::string base = std::string("serve.") + key;
      m.Add(base + "_p50_ms", MedianOr(lat), "ms");
      m.Add(base + "_p99_ms", lat.empty() ? NAN : Percentile(lat, 0.99), "ms");
      m.Add(base + "_n", static_cast<double>(lat.size()), "count");
      const auto exec = exec_ms_.find(key);
      m.Add(base + "_exec_p50_ms",
            exec == exec_ms_.end() ? NAN : exec->second.first, "ms");
      m.Add(base + "_exec_p99_ms",
            exec == exec_ms_.end() ? NAN : exec->second.second, "ms");
    }
    m.Add("serve.sent", sent, "count");
    m.Add("serve.ok", ok, "count");
    m.Add("serve.overloaded", overloaded, "count");
    m.Add("serve.errors", errors, "count");
    m.Add("serve.start_s", serve_start_s_, "s");
    m.Add("serve.daemon_rss_mb", daemon_rss_, "MB");
    const auto lag = Latencies({Opcode::kNeighbors, Opcode::kDegree,
                                Opcode::kBfs, Opcode::kSp, Opcode::kSwapPack},
                               /*lag=*/true);
    m.Add("loadgen.lag_p99_ms", lag.empty() ? NAN : Percentile(lag, 0.99), "ms");
    m.Add("loadgen.lag_max_ms",
          lag.empty() ? NAN : *std::max_element(lag.begin(), lag.end()), "ms");
    const auto self = tracer_.LayerSelfSeconds();
    for (const char* layer : kLayers) {
      double s = 0.0;
      for (const auto& [name, value] : self) {
        if (name == layer) s = value;
      }
      m.Add(std::string(layer) + ".self_s", s, "s");
    }
    for (const char* phase : kPhases) {
      m.Add(std::string("rss.") + phase + "_mb", phase_rss_[phase], "MB");
    }
    for (const auto& [layer, s] : self) {
      result_.notes.push_back("self_time " + layer + ": " + Fmt(s) + " s");
    }
    const std::vector<Metric> declared = PerLayerMetricNames();
    bool same = declared.size() == m.all().size();
    for (std::size_t i = 0; same && i < declared.size(); ++i) {
      same = declared[i].name == m.all()[i].name &&
             declared[i].unit == m.all()[i].unit;
    }
    out().Check(same, "per-layer metrics match the declared list");
  }

  const WorkloadSpec& spec_;
  const RunOptions& opt_;
  Tracer tracer_;
  RunResult result_;
  std::string text_path_;
  std::string pack_paths_[2];
  std::string repeat_pack_path_;  // ingests after the first

  // Inputs and intermediate products.
  std::uint64_t written_edges_ = 0;
  std::uint64_t expected_edges_ = 0;  // dataset workloads: m of the graph
  NodeId max_id_ = 0;
  Graph original_, reordered_;
  std::vector<NodeId> perm_, identity_;
  gorder::harness::WorkloadConfig config_;
  int kernel_pairs_run_ = 0;
  std::vector<std::uint64_t> first_sum_[2];  // [arm][kernel], warm-up pair
  std::vector<Arrival> schedule_;
  TrafficResult traffic_;
  bool pipeline_ok_ = false;

  // Measurements.
  // Phase times are CPU seconds; the *_wall_s_ twins are printed as notes.
  std::vector<double> setup_s_, setup_wall_s_, gen_s_, gen_rate_;
  std::vector<double> ingest_s_, ingest_wall_s_, extmem_pack_s_, verify_s_,
      load_s_;
  std::vector<double> order_s_, order_wall_s_, compute_s_, relabel_s_;
  std::vector<double> kernel_s_, kernel_original_s_, kernel_wall_s_,
      kernel_original_wall_s_;
  std::vector<std::vector<std::vector<double>>> per_kernel_s_;  // [arm][k]
  gorder::extmem::ExtBuildStats ext_stats_;
  std::map<std::string, double> order_counters_;
  std::map<std::string, double> phase_rss_;
  const char* phase_ = nullptr;  // phase whose peak RSS is being counted
  std::map<std::string, std::pair<double, double>> exec_ms_;
  double process_peak_ = 0.0, extmem_rss_ = 0.0, daemon_rss_ = 0.0;
  double store_write_s_ = 0.0, serve_start_s_ = 0.0, measured_s_ = 0.0;
  double steal_share_ = 0.0;
  double score_f5_ = 0.0, score_f5_original_ = 0.0;
  double sim_[2][3] = {};
};

}  // namespace

RunResult RunPipeline(const WorkloadSpec& spec, const RunOptions& options) {
  return Runner(spec, options).Run();
}

std::vector<Metric> EndToEndMetricNames() {
  return {{"setup_s", 0, "s"},
          {"peak_rss_mb", 0, "MB"},
          {"ingest_s", 0, "s"},
          {"order_s", 0, "s"},
          {"kernel_s", 0, "s"},
          {"kernel_original_s", 0, "s"}};
}

std::vector<Metric> PerLayerMetricNames() {
  std::vector<Metric> v;
  auto add = [&v](const std::string& name, const char* unit) {
    v.push_back({name, 0.0, unit});
  };
  add("gen.stream_s", "s");
  add("gen.edges_per_s", "1/s");
  add("extmem.pack_s", "s");
  add("extmem.runs_written", "count");
  add("extmem.run_bytes", "B");
  add("extmem.merge_passes", "count");
  add("extmem.dedup_ratio", "ratio");
  add("extmem.peak_rss_mb", "MB");
  add("store.verify_s", "s");
  add("store.load_s", "s");
  add("store.write_s", "s");
  add("graph.relabel_s", "s");
  add("order.compute_s", "s");
  for (const char* name : kOrderCounters) add(name, "count");
  add("order.score_f5", "count");
  add("order.score_f5_original", "count");
  for (int i = 0; i < 3; ++i) {
    add(kSimNames[i], kSimUnits[i]);
    add(std::string(kSimNames[i]) + "_original", kSimUnits[i]);
  }
  for (const char* k : kKernelKeys) {
    add(std::string("algo.") + k + "_s", "s");
    add(std::string("algo.") + k + "_original_s", "s");
  }
  add("algo.edges_visited", "count");
  for (const auto& [op, key] : kServeOps) {
    const std::string base = std::string("serve.") + key;
    add(base + "_p50_ms", "ms");
    add(base + "_p99_ms", "ms");
    add(base + "_n", "count");
    add(base + "_exec_p50_ms", "ms");
    add(base + "_exec_p99_ms", "ms");
  }
  for (const char* name : {"serve.sent", "serve.ok", "serve.overloaded",
                           "serve.errors"}) {
    add(name, "count");
  }
  add("serve.start_s", "s");
  add("serve.daemon_rss_mb", "MB");
  add("loadgen.lag_p99_ms", "ms");
  add("loadgen.lag_max_ms", "ms");
  for (const char* layer : kLayers) add(std::string(layer) + ".self_s", "s");
  for (const char* phase : kPhases) add(std::string("rss.") + phase + "_mb", "MB");
  return v;
}

}  // namespace perfbench

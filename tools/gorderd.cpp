// gorderd — ordering-as-a-service daemon (DESIGN.md §16).
//
// Serves graph queries (neighbours, BFS/SP from a source, PageRank
// top-k, "order this uploaded edge list") over the length-prefixed
// binary protocol of serve/protocol.h, against a graph snapshot that is
// typically an mmap'd .gpack — zero-copy, shared read-only across all
// worker threads. A kSwapPack request republishes a new pack atomically
// while in-flight readers drain on the old epoch.
//
// Usage:
//   gorderd --listen=unix:/tmp/gorderd.sock --pack=graph.gpack
//   gorderd --listen=tcp:7077 --in=graph.txt [--serve-threads=4]
//           [--queue-capacity=128] [--max-connections=64]
//           [--no-swap] [--no-shutdown] [--max-seconds=N]
//           [--admin-addr=tcp:PORT] [--trace-sample=64]
//           [--slow-request-ms=N]
//           [--threads=N] [--quiet] [--json-out=f] [--trace-out=f]
//           [--failpoints=spec]
//
// `--listen=tcp:0` binds an ephemeral port. Once serving, the daemon
// prints readiness lines to stdout —
//
//   ADMIN <resolved admin address>      (only with --admin-addr)
//   LISTENING <resolved address>
//
// — and flushes, so scripts can wait for readiness and learn the ports
// without races (LISTENING is always the last line). It then blocks
// until a client sends kShutdown, SIGINT/SIGTERM arrives, or
// --max-seconds elapses (for CI smoke jobs); any of these drain the
// queue, flush the --json-out report, and exit 0.
//
// `--admin-addr` opens the HTTP observability plane (DESIGN.md §17):
// GET /metrics, /healthz, /tracez. `--trace-sample=N` records 1-in-N
// requests in the trace ring (0 = off); `--slow-request-ms=T` logs and
// force-samples requests slower than T ms.

#include <csignal>
#include <cstdio>
#include <cstring>

#include "core/gorder_lib.h"
#include "util/failpoint.h"

namespace gorder {
namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// SIGINT/SIGTERM request a graceful shutdown: the handler only flips a
/// flag (async-signal-safe); the main loop polls it and runs the same
/// drain path as a client kShutdown, so the --json-out report is still
/// written. A second signal while draining falls through to the default
/// disposition (handlers are one-shot via SA_RESETHAND) and kills the
/// process — the escape hatch for a wedged drain.
volatile std::sig_atomic_t g_signal_shutdown = 0;

void HandleShutdownSignal(int) { g_signal_shutdown = 1; }

void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.Has("threads")) {
    SetNumThreads(static_cast<int>(flags.GetInt("threads", 0)));
  }
  if (flags.GetBool("quiet", false)) SetLogLevel(LogLevel::kQuiet);
  util::ArmFailpointsFlag(flags.GetString("failpoints", ""));
  obs::RunOptions run;
  run.bench = "gorderd";
  run.flags = flags.Raw();
  run.json_out = flags.GetString("json-out", "");
  run.trace_out = flags.GetString("trace-out", "");
  obs::StartRun(run);

  serve::ServerOptions opts;
  const std::string listen = flags.GetString("listen", "");
  std::string parse_error;
  if (listen.empty() ||
      !util::ParseNetAddress(listen, &opts.listen, &parse_error)) {
    std::fprintf(stderr,
                 "usage: gorderd --listen=unix:/path|tcp:PORT "
                 "--pack=f.gpack|--in=<graph file>\n%s\n",
                 parse_error.c_str());
    return 2;
  }
  opts.serve_threads = static_cast<int>(flags.GetInt("serve-threads", 2));
  opts.queue_capacity = static_cast<int>(flags.GetInt("queue-capacity", 128));
  opts.max_connections = static_cast<int>(flags.GetInt("max-connections", 64));
  opts.allow_swap = !flags.GetBool("no-swap", false);
  opts.allow_shutdown = !flags.GetBool("no-shutdown", false);
  if (opts.serve_threads < 1 || opts.queue_capacity < 1 ||
      opts.max_connections < 1) {
    std::fprintf(stderr,
                 "error: --serve-threads, --queue-capacity and "
                 "--max-connections must be positive\n");
    return 2;
  }
  const std::string admin_addr = flags.GetString("admin-addr", "");
  if (!admin_addr.empty()) {
    if (!util::ParseNetAddress(admin_addr, &opts.admin_listen,
                               &parse_error)) {
      std::fprintf(stderr, "--admin-addr: %s\n", parse_error.c_str());
      return 2;
    }
    opts.admin_enabled = true;
  }
  const std::int64_t trace_sample = flags.GetInt("trace-sample", 64);
  const std::int64_t slow_ms = flags.GetInt("slow-request-ms", 0);
  if (trace_sample < 0 || trace_sample > 0xFFFFFFFFll || slow_ms < 0) {
    std::fprintf(stderr,
                 "error: --trace-sample must be in [0, 2^32) and "
                 "--slow-request-ms must be non-negative\n");
    return 2;
  }
  opts.trace_sample = static_cast<std::uint32_t>(trace_sample);
  opts.slow_request_ms = static_cast<int>(slow_ms);

  const std::string pack = flags.GetString("pack", "");
  const std::string in = pack.empty() ? flags.GetString("in", "") : pack;
  if (in.empty()) {
    std::fprintf(stderr, "error: gorderd needs --pack=<f.gpack> or --in\n");
    return 2;
  }
  Graph g;
  IoResult r = EndsWith(in, ".gpack") ? store::LoadPack(in, &g)
                                       : ReadEdgeList(in, &g);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  GORDER_LOG_INFO("gorderd: serving n=%u m=%llu from %s%s\n", g.NumNodes(),
                  static_cast<unsigned long long>(g.NumEdges()), in.c_str(),
                  g.IsMapped() ? " (zero-copy mmap)" : "");

  serve::Server server(std::move(g), opts);
  r = server.Start();
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  if (opts.admin_enabled) {
    util::NetAddress admin_bound = server.options().admin_listen;
    if (!admin_bound.is_unix && admin_bound.port == 0) {
      admin_bound.port = server.AdminPort();
    }
    std::printf("ADMIN %s\n", admin_bound.ToString().c_str());
  }
  util::NetAddress bound = server.options().listen;
  if (!bound.is_unix && bound.port == 0) bound.port = server.Port();
  std::printf("LISTENING %s\n", bound.ToString().c_str());
  std::fflush(stdout);

  InstallSignalHandlers();
  // Poll in short slices so a SIGINT/SIGTERM is noticed promptly even
  // though WaitForShutdown only wakes for client kShutdown requests.
  const double max_seconds = flags.GetDouble("max-seconds", 0.0);
  Timer uptime;
  while (true) {
    if (server.WaitForShutdown(0.25)) break;
    if (g_signal_shutdown != 0) {
      GORDER_LOG_INFO("gorderd: signal received, draining\n");
      break;
    }
    if (max_seconds > 0 && uptime.Seconds() >= max_seconds) {
      GORDER_LOG_INFO("gorderd: --max-seconds=%.1f elapsed, draining\n",
                      max_seconds);
      break;
    }
  }
  server.Stop();
  GORDER_LOG_INFO("gorderd: stopped\n");
  return 0;
}

}  // namespace
}  // namespace gorder

int main(int argc, char** argv) { return gorder::Run(argc, argv); }

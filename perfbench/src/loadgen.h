#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

// The serve phase's two processes: a gorderd child (serve::Server on
// loopback TCP) and an open-loop traffic generator that pipelines
// requests by id, so a slow reply never delays a later send.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "schedule.h"
#include "serve/protocol.h"

namespace perfbench {

/// Entry point of the daemon child: serves `pack_path` with 2 worker
/// threads and a 1-thread kernel pool on tcp:127.0.0.1:0, prints
/// "ready <port>" on stdout, and runs until a kShutdown request.
int RunDaemon(const std::string& pack_path);

/// A daemon child process. The destructor kills and reaps a child that
/// was not stopped, so no process outlives the benchmark.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Starts `exe --daemon <pack_path>` and waits for its ready line.
  bool Start(const std::string& exe, const std::string& pack_path,
             std::string* error);
  int port() const { return port_; }
  /// Sends kShutdown and reaps the child. `*peak_rss_mb` gets the
  /// child's peak RSS (VmHWM of the daemon's own address space; the
  /// rusage of a forked child would also count the parent's pages it
  /// held before exec). False if it did not exit cleanly in time.
  bool Stop(double* peak_rss_mb);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// What came back for one scheduled request.
struct ReplyRecord {
  bool answered = false;
  gorder::serve::Status status = gorder::serve::Status::kInternal;
  std::uint64_t epoch = 0;
  double sent_s = -1.0;  // seconds after the traffic start
  double recv_s = -1.0;
  // kBfs: num_reached, sum_levels, level_hash.
  // kSp: num_reached, max_dist, dist_hash.
  std::uint64_t reached = 0, extent = 0, hash = 0;
};

struct TrafficResult {
  std::vector<ReplyRecord> replies;  // aligned with the schedule
  std::vector<std::string> swap_paths;  // target pack of each request
                                        // (empty for reads)
  std::string transport_error;  // empty when every connection stayed up
};

/// Runs `schedule` against the daemon on `port` over the schedule's
/// connections, from the calling thread: it busy-polls, writing each
/// request when due and matching replies by id, so a slow reply never
/// delays a later send. The k-th kSwapPack (from 0) targets
/// pack_paths[(k + 1) % 2], so swaps alternate away from the initially
/// served pack_paths[0].
TrafficResult RunTraffic(int port, const std::vector<Arrival>& schedule,
                         const std::string pack_paths[2], int connections);

/// The daemon's kStats JSON, read over a fresh connection.
bool FetchStats(int port, std::string* json, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_

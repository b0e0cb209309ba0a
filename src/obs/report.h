#ifndef GORDER_OBS_REPORT_H_
#define GORDER_OBS_REPORT_H_

/// Machine-readable run reports (`--json-out=`).
///
/// Every bench binary and gorder_cli registers itself with `StartRun` at
/// flag-parse time; on process exit the report — environment fingerprint,
/// parsed flags, full metric dump and the nested span tree — is written
/// as one JSON document, and optionally a Chrome trace (`--trace-out=`).
/// This is the file format that populates `BENCH_*.json` and lets CI diff
/// perf PR-over-PR (`tools/check_report.py` validates the schema).
///
/// Schema: see DESIGN.md "Observability"; `schema_version` is bumped on
/// any incompatible change, `schema_minor` on backward-compatible
/// additions (new metric/span families, new optional keys). Validators
/// must treat an absent `schema_minor` as 0.

#include <map>
#include <string>

namespace gorder::obs {

inline constexpr int kReportSchemaVersion = 1;
// Minor 1: store.* metrics and spans (src/store pack + ordering cache).
// Minor 2: serve.*/loadgen.*/net.* metrics and spans (gorderd daemon +
//          its open-loop load generator).
// Minor 3: "windows" section — per-WindowedHistogram 10s/60s
//          count/sum/p50/p99/p999 at report time (the live-latency view
//          the daemon exposes via kStats and /metrics).
// Minor 4: env.affinity_cpus — the CPUs the process may run on.
inline constexpr int kReportSchemaMinorVersion = 4;

/// Host/build identity captured in every report, so a number is never
/// compared against a number from a different machine unknowingly.
struct EnvFingerprint {
  std::string cpu_model;   // /proc/cpuinfo "model name" (or "unknown")
  std::string compiler;    // __VERSION__
  std::string git_sha;     // GORDER_GIT_SHA env, else the build-time sha
  std::string os;          // uname sysname + release
  long l1d_bytes = 0;      // sysconf cache geometry; 0 = unknown
  long l2_bytes = 0;
  long l3_bytes = 0;
  long line_bytes = 0;
  int threads = 0;          // gorder::NumThreads() at report time
  int hardware_concurrency = 0;
  // CPUs in the sched_getaffinity mask; -1 if the call fails. Below
  // hardware_concurrency when a cpuset or taskset confines the process.
  int affinity_cpus = -1;
  bool obs_enabled = false;
  bool hw_counters_available = false;
};

EnvFingerprint CollectEnvFingerprint();

struct RunOptions {
  std::string bench;  // binary name, e.g. "fig5_speedup"
  std::map<std::string, std::string> flags;  // parsed --key=value pairs
  std::string json_out;   // run-report path ("" = skip)
  std::string trace_out;  // Chrome trace path ("" = skip)
};

/// Declares this process a reported run: starts span capture (unless
/// observability is disabled via GORDER_OBS=off), enables hardware-counter
/// spans when the kernel permits them, and arranges for the artifacts to
/// be written at process exit. Idempotent; later calls replace the
/// options.
void StartRun(const RunOptions& options);

/// Renders the full run report document (also used by tests).
std::string RenderRunReportJson();

/// Writes the registered artifacts immediately. Returns false if any
/// file could not be written. Called automatically at exit after
/// StartRun.
bool WriteRunArtifacts();

}  // namespace gorder::obs

#endif  // GORDER_OBS_REPORT_H_

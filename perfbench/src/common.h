#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Helpers shared by the pipeline benchmark: steady and CPU clocks, order
// statistics, the metric set printed as the result, the span recorder
// behind the traced run, and process/machine probes.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gorder::obs {
class JsonWriter;
}  // namespace gorder::obs

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide origin.
double Now();
/// CPU seconds (user + system) used so far by every thread of this
/// process. Unlike wall time it leaves out the time the process did not
/// run: the hypervisor's steal, preemption by other tasks and waits for
/// the disk.
double CpuNow();
/// {steal, total} jiffies of all CPUs since boot, from /proc/stat. The
/// difference of two readings gives the share of CPU time the hypervisor
/// took from this machine in between.
std::pair<double, double> StealJiffies();

// ---- Order statistics ----

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest of p50/p90/p99/p999 that has at least ten samples beyond
/// it in a sample of size n; 0 when even the median has fewer than ten.
double TailQuantile(std::size_t n);
/// "p50", "p90", "p99" or "p999" for a value TailQuantile returns.
std::string QuantileLabel(double q);

/// A number for a human-readable note (6 significant digits).
std::string Fmt(double v);

/// One line describing a sample: count, median, the reportable tail.
std::string DescribeSample(const std::string& name,
                           const std::vector<double>& values,
                           const std::string& unit);

// ---- Metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Names are [A-Za-z0-9_.-]+ starting with a letter or digit (at most 64
/// characters); units are [A-Za-z0-9_/%.-]+ (at most 16).
bool ValidMetricName(const std::string& name);
bool ValidUnit(const std::string& unit);

class MetricSet {
 public:
  /// Appends a metric. Aborts on an invalid or repeated name or an
  /// invalid unit, which are bugs in the benchmark, not in the program
  /// measured.
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }
  /// {"name":{"value":v,"unit":"u"},...} in insertion order, every
  /// digit of each value kept.
  void WriteJson(gorder::obs::JsonWriter& json) const;
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

// ---- Outcome accounting ----

/// Operations attempted and failed. A failure is a failed call, a
/// non-kOk reply or a failed output check.
class Outcome {
 public:
  /// Counts one operation; returns `ok`. A failure is logged to stderr.
  bool Check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Spans ----

/// In-memory span recorder for the traced run. Spans are named
/// "<layer>:<call>", nest by the order they open on the main thread, and
/// are written out at exit in the Chrome trace_event format. When
/// disabled every call is a no-op. Not thread-safe: only the main thread
/// records spans.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  struct Record {
    std::string name;
    int parent = -1;  // index into records(), -1 for a root
    double start_s = 0.0;
    double end_s = -1.0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Record>& records() const { return records_; }

  /// Self time per layer: each span's duration minus its direct
  /// children's, summed over the spans of the layer (the name before
  /// ':'). Sorted by layer name.
  std::vector<std::pair<std::string, double>> LayerSelfSeconds() const;

  /// {"displayTimeUnit":"ms","traceEvents":[{"ph":"X",...}]}, the shape
  /// obs::RenderChromeTraceJson emits; args carry the span id and parent.
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Wall and process CPU seconds of one timed call.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Runs `fn` inside a span and returns its wall and CPU time.
template <typename Fn>
Timing TimeSpan(Tracer& tracer, const std::string& name, Fn&& fn) {
  Tracer::Scope scope(&tracer, name);
  const double wall = Now(), cpu = CpuNow();
  fn();
  return {Now() - wall, CpuNow() - cpu};
}

// ---- Process and machine ----

/// Resets this process's peak RSS (VmHWM) by writing 5 to
/// /proc/self/clear_refs. False when the kernel refuses.
bool ResetPeakRss();
/// Peak RSS (VmHWM) in MB (2^20 bytes) of this process, or of the process
/// whose /proc/<pid>/status is given; 0 if unreadable.
double PeakRssMb(const std::string& status_path = "/proc/self/status");

/// The machine a result was measured on, as one JSON object: online and
/// affinity CPU counts, L2/L3 sizes, whether perf_event_open works, the
/// 1-minute load average and the git sha. Recorded, never used to
/// rescale a metric.
std::string MachineJson(const std::string& git_sha);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

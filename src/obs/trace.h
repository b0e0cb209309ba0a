#ifndef GORDER_OBS_TRACE_H_
#define GORDER_OBS_TRACE_H_

/// RAII nested phase spans.
///
/// A `Span` marks one phase of a run (dataset generation, one ordering,
/// one workload, a CSR build). Spans nest per thread: the innermost open
/// span on the constructing thread becomes the parent. Each closed span
/// records wall time, the per-span delta of every registered counter,
/// and — when hardware-counter spans are enabled and the nesting is
/// shallow enough — real cycles/IPC/L1/LLC numbers from perf_event.
///
/// Recording is off until `StartCapture()` (benches call it through
/// `obs::StartRun`), so library users who never ask for telemetry pay one
/// predictable branch per span site. Span data never feeds back into any
/// algorithm; results are bit-identical with tracing on or off.
///
/// Exports:
///   - `RenderChromeTraceJson()` — Chrome `trace_event` format, loadable
///     in Perfetto / chrome://tracing (`--trace-out=`).
///   - `SnapshotSpans()` — raw records, consumed by the run report.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cachesim/hw_counters.h"

namespace gorder::obs {

inline constexpr std::int64_t kNoParent = -1;

/// Spans deeper than this never open perf counter groups (each group is
/// six file descriptors plus ioctls — fine per dataset/ordering/workload,
/// wasteful per inner CSR phase).
inline constexpr int kHwSpanMaxDepth = 3;

struct SpanRecord {
  std::string name;
  std::int64_t parent = kNoParent;  // index into the record list
  int depth = 0;                    // 0 = root on its thread
  int tid = 0;                      // dense obs::ThreadIndex()
  double start_s = 0.0;             // seconds since the trace epoch
  double dur_s = -1.0;              // -1 while the span is still open
  /// Nonzero counter deltas attributed to this span (including children).
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  bool has_hw = false;
  cachesim::HwStats hw;
};

class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = kNoParent;  // kNoParent when capture was off
  double start_s_ = 0.0;
  std::vector<std::uint64_t> counters_at_start_;
  cachesim::HwCounters* hw_ = nullptr;
};

/// Begins recording spans (idempotent). Records accumulate until
/// ClearSpans(); benches capture for the whole process life.
void StartCapture();
void StopCapture();

/// Opt-in: collect perf_event counters per span (depth < kHwSpanMaxDepth).
/// Callers should check `cachesim::HwCounters::Available()` first.
void SetHwSpansEnabled(bool enabled);

/// Copy of all records so far (open spans have dur_s < 0).
std::vector<SpanRecord> SnapshotSpans();

/// Drops all records. Only safe with no spans open (test support).
void ClearSpans();

/// Seconds since the trace epoch (first use of the obs clock).
double NowSeconds();

/// Chrome trace_event JSON ("traceEvents" array of complete events).
std::string RenderChromeTraceJson();

/// Writes RenderChromeTraceJson() to `path`; false on IO failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace gorder::obs

/// Span macro: `GORDER_OBS_SPAN(span_var, name_expr);`.
#define GORDER_OBS_SPAN(var, ...) ::gorder::obs::Span var(__VA_ARGS__)

#endif  // GORDER_OBS_TRACE_H_

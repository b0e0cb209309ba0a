#ifndef GORDER_OBS_EXPO_H_
#define GORDER_OBS_EXPO_H_

/// Live metric exposition (DESIGN.md §17).
///
/// Two pieces:
///
///  1. `WindowedHistogram` — a log-bucketed distribution like
///     `obs::Histogram`, but recorded into a ring of rotating time
///     slots so "p99 over the last 10s / 60s" is readable at any moment
///     in O(slots × buckets), with no per-observation allocation and no
///     lock on the record path. This is the serving-side latency
///     instrument: the exit-time `Histogram` answers "how was the whole
///     run", the windowed one answers "how is it *right now*".
///
///  2. Prometheus text exposition — renders every registered counter,
///     gauge, histogram and windowed histogram in the Prometheus text
///     format (v0.0.4) with metric names derived mechanically from the
///     PR 3 taxonomy: `<subsystem>.<event>` becomes
///     `gorder_<subsystem>_<event>`, counters gain `_total`, power-of-two
///     histogram buckets become cumulative `le` bounds. Names are stable
///     identifiers — dashboards and the CI scrape validator
///     (tools/check_metrics.py) key on them.
///
/// Same contracts as the rest of `src/obs`: `GORDER_OBS=off` turns every
/// record into a cheap failed branch, and nothing here ever feeds back
/// into an algorithm.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace gorder::obs {

/// The two standard read windows, in seconds. Exposition, kStats and the
/// run report publish both for every windowed histogram.
inline constexpr int kWindowSecondsShort = 10;
inline constexpr int kWindowSecondsLong = 60;

/// Quantiles over one time window of a WindowedHistogram. Values are
/// bucket upper bounds (the histogram is log-bucketed, so a quantile is
/// exact to within its power-of-two bucket).
struct WindowSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
};

/// Power-of-two bucketed distribution over rotating time slots.
///
/// The ring holds kNumSlots slots of kSlotSeconds each — enough to cover
/// the long window with slack, so a 60s read never includes a slot that
/// is being recycled. Record() stamps the calling moment's slot (lazily
/// reclaiming any stale slot that the ring index wraps onto);
/// Snapshot(w) sums the slots overlapping the last `w` seconds and walks
/// the merged buckets for quantiles.
///
/// Concurrency: every field is a relaxed atomic — Record from any number
/// of threads races cleanly with Snapshot from any other (the TSan
/// stress suite hammers exactly this). Slot rotation is approximate at
/// the edges: an observation racing a slot recycle may land in the new
/// slot or be dropped; monitoring reads tolerate that, determinism-
/// sensitive results never come from here.
class WindowedHistogram {
 public:
  static constexpr int kNumBuckets = 32;  // index = bit_width(v), clamped
  static constexpr int kSlotSeconds = 5;
  static constexpr int kNumSlots = 16;    // 80s of history > 60s window

  explicit WindowedHistogram(std::string name) : name_(std::move(name)) {}
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  /// Records `v` into the current time slot (obs trace clock).
  void Record(std::uint64_t v);

  /// Quantiles over the last `window_seconds` (obs trace clock).
  WindowSnapshot Snapshot(int window_seconds) const;

  /// Deterministic variants: the caller supplies the slot tick
  /// (seconds / kSlotSeconds) instead of reading the clock.
  void RecordAtTick(std::uint64_t v, std::int64_t tick);
  WindowSnapshot SnapshotAtTick(int window_seconds, std::int64_t tick) const;

  /// Upper bound of bucket `b`: the largest value with bit_width == b
  /// (0 for bucket 0). Quantiles report these bounds.
  static std::uint64_t BucketUpperBound(int b);

  /// Stamps every slot unused. Only safe with no concurrent recorders
  /// (test support).
  void ResetForTest();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> tick{-1};  // -1 = never used
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
  };

  std::string name_;
  Slot slots_[kNumSlots];
};

/// Registry lookup: the unique windowed histogram for `name`, created on
/// first use. Thread-safe; the reference lives forever (same leak-on-
/// purpose policy as GetCounter).
WindowedHistogram& GetWindowedHistogram(const std::string& name);

/// Point-in-time view of every registered windowed histogram at both
/// standard windows, sorted by name.
struct WindowedDump {
  std::string name;
  WindowSnapshot short_window;  // last kWindowSecondsShort seconds
  WindowSnapshot long_window;   // last kWindowSecondsLong seconds
};
std::vector<WindowedDump> DumpWindowed();

/// Zeroes every slot of every registered windowed histogram (test
/// support; registrations persist).
void ResetAllWindowed();

/// `<subsystem>.<event>` -> `gorder_<subsystem>_<event>`: the stable,
/// mechanical Prometheus spelling of a taxonomy name (every character
/// outside [a-zA-Z0-9_] becomes '_').
std::string PrometheusName(const std::string& metric_name);

/// Renders every registered metric in the Prometheus text format:
/// counters as `<name>_total`, gauges verbatim, histograms as cumulative
/// `_bucket{le="..."}`/`_sum`/`_count` series with power-of-two bounds,
/// windowed histograms as summary-style quantile series labelled
/// `{window="10s"|"60s",quantile="0.5"|"0.99"|"0.999"}` plus a
/// `_count{window=...}` series. Deterministic: sorted by name.
std::string RenderPrometheusText();

}  // namespace gorder::obs

/// Windowed-histogram instrumentation macros, the GORDER_OBS_COUNTER
/// family's counterpart for WindowedHistogram.
#define GORDER_OBS_WINDOWED(var, name) \
  ::gorder::obs::WindowedHistogram& var = \
      ::gorder::obs::GetWindowedHistogram(name)
#define GORDER_OBS_WRECORD(var, v) (var).Record(v)

#endif  // GORDER_OBS_EXPO_H_

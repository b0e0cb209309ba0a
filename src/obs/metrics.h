#ifndef GORDER_OBS_METRICS_H_
#define GORDER_OBS_METRICS_H_

/// Process-wide metric registry with cache-line-padded per-thread shards.
///
/// Hot-path contract: an enabled `Counter::Add` is one relaxed atomic add
/// to a shard this thread almost always owns exclusively, plus one
/// predictable branch on the global enable flag. With `GORDER_OBS=off`
/// in the environment the branch fails and nothing is written.
///
/// Metrics never feed back into any algorithm: results are bit-identical
/// whether observability is on or off.
///
/// Naming scheme (DESIGN.md "Observability"): `<subsystem>.<event>`,
/// lower_snake_case, e.g. `unit_heap.increments`, `pool.chunks`,
/// `csr.build_edges`. Names are stable identifiers — reports and the CI
/// diff tooling key on them.

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gorder::obs {

/// Number of counter shards. Threads hash onto shards by a dense
/// per-thread index, so with up to kMaxShards threads every increment is
/// uncontended; beyond that, shards are shared but stay correct (the adds
/// are relaxed atomics).
inline constexpr int kMaxShards = 64;

/// Dense index of the calling thread (0 for the main thread, then in
/// first-use order). Stable for the lifetime of the thread.
int ThreadIndex();

inline int ThreadShard() { return ThreadIndex() % kMaxShards; }

namespace internal {
/// Runtime master switch, resolved once from the environment
/// (`GORDER_OBS=off|0|false` disables) unless overridden by
/// SetEnabledForTest. Relaxed atomic so concurrent readers are
/// sanitizer-clean; the value only changes in single-threaded phases.
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Test hook: flips the runtime switch (normally env-controlled).
void SetEnabledForTest(bool enabled);

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

/// Monotonic event count. Obtain via GetCounter(); never destroyed, so
/// references remain valid for the process lifetime.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1) {
    if (!Enabled()) return;
    shards_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  CounterShard shards_[kMaxShards];
};

/// Last-write-wins instantaneous value (e.g. configured thread count).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name))  {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(std::int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed distribution: bucket b counts observations v
/// with bit_width(v) == b (bucket 0 holds v == 0), clamped to the last
/// bucket. Good enough for "how skewed were the chunk sizes" questions
/// without per-observation allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(std::uint64_t v);

  std::uint64_t Count() const;
  std::uint64_t Sum() const;
  /// Summed bucket counts, index = clamped bit width of the observation.
  std::vector<std::uint64_t> Buckets() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
  };
  std::string name_;
  Shard shards_[kMaxShards];
};

/// Registry lookups: return the unique metric for `name`, creating it on
/// first use. Thread-safe; the returned reference lives forever. A name
/// registered as one kind must not be re-requested as another (checked).
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name);

/// Point-in-time values of every registered counter, in registration
/// order. Used by spans to compute per-span deltas cheaply.
std::vector<std::uint64_t> SnapshotCounterValues();

/// Names aligned with SnapshotCounterValues(); entry i names value i.
/// (Registration order is append-only, so a later, longer snapshot is a
/// superset of an earlier one.)
std::vector<std::string> CounterNames();

struct MetricsDump {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  struct Hist {
    std::string name;
    std::uint64_t count;
    std::uint64_t sum;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<Hist> histograms;
};

/// Everything currently registered, sorted by name (deterministic report
/// output regardless of registration order).
MetricsDump DumpMetrics();

}  // namespace gorder::obs

/// Instrumentation macros. `GORDER_OBS_COUNTER` declares a namespace- or
/// function-scope handle; the Add macros record through it.
#define GORDER_OBS_COUNTER(var, name) \
  ::gorder::obs::Counter& var = ::gorder::obs::GetCounter(name)
#define GORDER_OBS_GAUGE(var, name) \
  ::gorder::obs::Gauge& var = ::gorder::obs::GetGauge(name)
#define GORDER_OBS_HISTOGRAM(var, name) \
  ::gorder::obs::Histogram& var = ::gorder::obs::GetHistogram(name)
#define GORDER_OBS_ADD(var, n) (var).Add(n)
#define GORDER_OBS_INC(var) (var).Add(1)
#define GORDER_OBS_SET(var, v) (var).Set(v)
#define GORDER_OBS_OBSERVE(var, v) (var).Observe(v)

#endif  // GORDER_OBS_METRICS_H_

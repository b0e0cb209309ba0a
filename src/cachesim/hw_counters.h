#ifndef GORDER_CACHESIM_HW_COUNTERS_H_
#define GORDER_CACHESIM_HW_COUNTERS_H_

#include <cstdint>

namespace gorder::cachesim {

/// Hardware performance counters read via Linux perf_event_open — the
/// same source the papers use (perf/ocperf, replication §3.5). This is
/// the "real hardware" complement to the software CacheHierarchy: when
/// the kernel allows it (perf_event_paranoid and no seccomp filter),
/// benches can report measured L1/LLC miss rates next to simulated ones.
///
/// All methods degrade gracefully: on kernels or containers where the
/// syscall is unavailable, `Start()` returns false and benches fall back
/// to simulation-only output.
inline constexpr int kNumHwEvents = 6;

struct HwStats {
  bool valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l1d_loads = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;

  /// Per-event scheduling status from the kernel: an event that was
  /// opened but only scheduled onto the PMU part of the time (shared with
  /// other sessions) has time_running < time_enabled, and its raw count
  /// undercounts. A report must never present such a miss rate as a
  /// clean measurement — check `multiplexed` / Clean() first.
  bool opened[kNumHwEvents] = {};
  std::uint64_t time_enabled[kNumHwEvents] = {};
  std::uint64_t time_running[kNumHwEvents] = {};
  bool multiplexed = false;  // any event with time_running < time_enabled

  /// min over events of time_running / time_enabled; 1.0 = every event
  /// counted the whole interval, lower = that fraction of it.
  double MinRunningFraction() const {
    if (!valid) return 0.0;
    double min_frac = 1.0;
    for (int i = 0; i < kNumHwEvents; ++i) {
      if (!opened[i] || time_enabled[i] == 0) continue;
      double frac = static_cast<double>(time_running[i]) /
                    static_cast<double>(time_enabled[i]);
      if (frac < min_frac) min_frac = frac;
    }
    return min_frac;
  }

  /// True when the numbers can be quoted as-is: counters read back and no
  /// event was multiplexed away for any part of the interval.
  bool Clean() const { return valid && !multiplexed; }

  double L1MissRate() const {
    return l1d_loads == 0 ? 0.0
                          : static_cast<double>(l1d_misses) / l1d_loads;
  }
  double LlcMissRate() const {
    return llc_loads == 0 ? 0.0
                          : static_cast<double>(llc_misses) / llc_loads;
  }
  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / cycles;
  }
};

class HwCounters {
 public:
  HwCounters() = default;
  ~HwCounters();
  HwCounters(const HwCounters&) = delete;
  HwCounters& operator=(const HwCounters&) = delete;

  /// True if this kernel/container permits opening the counter group.
  static bool Available();

  /// Opens and starts the counters. Returns false (and stays inert) if
  /// any event cannot be opened.
  bool Start();

  /// Stops and reads. `valid` is false if Start() failed or a counter
  /// was multiplexed away entirely.
  HwStats Stop();

  static constexpr int kNumEvents = kNumHwEvents;

 private:
  int fds_[kNumEvents] = {-1, -1, -1, -1, -1, -1};
  bool running_ = false;
};

}  // namespace gorder::cachesim

#endif  // GORDER_CACHESIM_HW_COUNTERS_H_

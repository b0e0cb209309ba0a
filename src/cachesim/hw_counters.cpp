#include "cachesim/hw_counters.h"

#ifdef __linux__
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

namespace gorder::cachesim {

#ifdef __linux__

namespace {

int PerfEventOpen(std::uint32_t type, std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = type;
  attr.config = config;
  attr.disabled = group_fd == -1 ? 1 : 0;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  // Scheduling times alongside the count: if the kernel multiplexed the
  // event (time_running < time_enabled) the raw value undercounts, and
  // the report must flag it rather than quote it as clean.
  attr.read_format =
      PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1,
                                  group_fd, 0));
}

constexpr std::uint64_t CacheConfig(std::uint64_t cache, std::uint64_t op,
                                    std::uint64_t result) {
  return cache | (op << 8) | (result << 16);
}

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

const EventSpec kEvents[HwCounters::kNumEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE, CacheConfig(PERF_COUNT_HW_CACHE_L1D,
                                     PERF_COUNT_HW_CACHE_OP_READ,
                                     PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE, CacheConfig(PERF_COUNT_HW_CACHE_L1D,
                                     PERF_COUNT_HW_CACHE_OP_READ,
                                     PERF_COUNT_HW_CACHE_RESULT_MISS)},
    {PERF_TYPE_HW_CACHE, CacheConfig(PERF_COUNT_HW_CACHE_LL,
                                     PERF_COUNT_HW_CACHE_OP_READ,
                                     PERF_COUNT_HW_CACHE_RESULT_ACCESS)},
    {PERF_TYPE_HW_CACHE, CacheConfig(PERF_COUNT_HW_CACHE_LL,
                                     PERF_COUNT_HW_CACHE_OP_READ,
                                     PERF_COUNT_HW_CACHE_RESULT_MISS)},
};

}  // namespace

HwCounters::~HwCounters() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

bool HwCounters::Available() {
  HwCounters probe;
  if (!probe.Start()) return false;
  probe.Stop();
  return true;
}

bool HwCounters::Start() {
  if (running_) return false;
  int group = -1;
  for (int i = 0; i < kNumEvents; ++i) {
    fds_[i] = PerfEventOpen(kEvents[i].type, kEvents[i].config, group);
    if (fds_[i] < 0) {
      for (int j = 0; j < i; ++j) {
        close(fds_[j]);
        fds_[j] = -1;
      }
      return false;
    }
    if (group == -1) group = fds_[0];
  }
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  running_ = true;
  return true;
}

HwStats HwCounters::Stop() {
  HwStats stats;
  if (!running_) return stats;
  ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  // With PERF_FORMAT_TOTAL_TIME_{ENABLED,RUNNING} each read returns
  // { value, time_enabled, time_running }.
  std::uint64_t values[kNumEvents] = {};
  bool ok = true;
  for (int i = 0; i < kNumEvents; ++i) {
    std::uint64_t buf[3] = {};
    bool read_ok =
        read(fds_[i], buf, sizeof buf) == static_cast<ssize_t>(sizeof buf);
    ok = ok && read_ok;
    values[i] = buf[0];
    stats.opened[i] = read_ok;
    stats.time_enabled[i] = buf[1];
    stats.time_running[i] = buf[2];
    if (read_ok && buf[2] < buf[1]) stats.multiplexed = true;
    close(fds_[i]);
    fds_[i] = -1;
  }
  running_ = false;
  if (!ok) return stats;
  stats.valid = true;
  stats.cycles = values[0];
  stats.instructions = values[1];
  stats.l1d_loads = values[2];
  stats.l1d_misses = values[3];
  stats.llc_loads = values[4];
  stats.llc_misses = values[5];
  return stats;
}

#else  // !__linux__

HwCounters::~HwCounters() = default;
bool HwCounters::Available() { return false; }
bool HwCounters::Start() { return false; }
HwStats HwCounters::Stop() { return HwStats{}; }

#endif

}  // namespace gorder::cachesim

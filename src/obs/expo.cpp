#include "obs/expo.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/trace.h"

namespace gorder::obs {

namespace {

std::int64_t CurrentTick() {
  return static_cast<std::int64_t>(NowSeconds()) /
         WindowedHistogram::kSlotSeconds;
}

struct WindowedRegistry {
  std::mutex mu;
  std::map<std::string, WindowedHistogram*> histograms;

  static WindowedRegistry& Get() {
    static WindowedRegistry* r = new WindowedRegistry;
    return *r;
  }
};

}  // namespace

void WindowedHistogram::Record(std::uint64_t v) {
  if (!Enabled()) return;
  RecordAtTick(v, CurrentTick());
}

void WindowedHistogram::RecordAtTick(std::uint64_t v, std::int64_t tick) {
  Slot& s = slots_[static_cast<std::size_t>(tick) %
                   static_cast<std::size_t>(kNumSlots)];
  std::int64_t seen = s.tick.load(std::memory_order_acquire);
  if (seen != tick) {
    // The ring wrapped onto a stale slot: the first recorder to claim it
    // recycles it. A concurrent Record/Snapshot racing the recycle may
    // land in (or read) a partially cleared slot — bounded, benign
    // imprecision at a window edge, never a data race.
    if (s.tick.compare_exchange_strong(seen, tick,
                                       std::memory_order_acq_rel)) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    } else if (seen != tick) {
      return;  // another tick claimed the slot first; drop the sample
    }
  }
  const int bucket =
      std::min(static_cast<int>(std::bit_width(v)), kNumBuckets - 1);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

WindowSnapshot WindowedHistogram::Snapshot(int window_seconds) const {
  return SnapshotAtTick(window_seconds, CurrentTick());
}

WindowSnapshot WindowedHistogram::SnapshotAtTick(int window_seconds,
                                                 std::int64_t tick) const {
  // A window of w seconds spans ceil(w / slot) full slots plus the
  // in-progress one; clamp to the ring size.
  int want = window_seconds / kSlotSeconds + 1;
  want = std::min(want, kNumSlots);

  std::uint64_t buckets[kNumBuckets] = {};
  WindowSnapshot out;
  for (const Slot& s : slots_) {
    const std::int64_t t = s.tick.load(std::memory_order_acquire);
    if (t < 0 || t > tick || tick - t >= want) continue;
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kNumBuckets; ++b) {
      buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  // Bucket counts are summed racing concurrent Records, so they may not
  // add to `count` exactly; quantile ranks walk the bucket totals.
  std::uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) total += buckets[b];
  if (total == 0) return out;
  auto quantile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1));
    std::uint64_t seen = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) return BucketUpperBound(b);
    }
    return BucketUpperBound(kNumBuckets - 1);
  };
  out.p50 = quantile(0.50);
  out.p99 = quantile(0.99);
  out.p999 = quantile(0.999);
  return out;
}

std::uint64_t WindowedHistogram::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return ~0ull;
  return (1ull << b) - 1;
}

WindowedHistogram& GetWindowedHistogram(const std::string& name) {
  WindowedRegistry& r = WindowedRegistry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(name, new WindowedHistogram(name)).first;
  }
  return *it->second;
}

std::vector<WindowedDump> DumpWindowed() {
  WindowedRegistry& r = WindowedRegistry::Get();
  std::vector<WindowedHistogram*> handles;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    handles.reserve(r.histograms.size());
    for (const auto& [name, h] : r.histograms) handles.push_back(h);
  }
  std::vector<WindowedDump> out;
  out.reserve(handles.size());
  for (const WindowedHistogram* h : handles) {
    out.push_back({h->name(), h->Snapshot(kWindowSecondsShort),
                   h->Snapshot(kWindowSecondsLong)});
  }
  return out;
}

void WindowedHistogram::ResetForTest() {
  for (Slot& s : slots_) {
    s.tick.store(-1, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

void ResetAllWindowed() {
  WindowedRegistry& r = WindowedRegistry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, h] : r.histograms) h->ResetForTest();
}

std::string PrometheusName(const std::string& metric_name) {
  std::string out = "gorder_";
  out.reserve(out.size() + metric_name.size());
  for (char c : metric_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

void AppendLine(std::string* out, const std::string& series,
                std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  *out += series;
  *out += ' ';
  *out += buf;
  *out += '\n';
}

void AppendWindowSeries(std::string* out, const std::string& prom,
                        const char* window, const WindowSnapshot& snap) {
  const std::string suffix = std::string("{window=\"") + window + "\",";
  AppendLine(out, prom + suffix + "quantile=\"0.5\"}", snap.p50);
  AppendLine(out, prom + suffix + "quantile=\"0.99\"}", snap.p99);
  AppendLine(out, prom + suffix + "quantile=\"0.999\"}", snap.p999);
  AppendLine(out, prom + "_count{window=\"" + window + "\"}", snap.count);
  AppendLine(out, prom + "_sum{window=\"" + window + "\"}", snap.sum);
}

}  // namespace

std::string RenderPrometheusText() {
  const MetricsDump dump = DumpMetrics();
  std::string out;
  for (const auto& [name, value] : dump.counters) {
    const std::string prom = PrometheusName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    AppendLine(&out, prom, value);
  }
  for (const auto& [name, value] : dump.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
    out += prom + " " + buf + "\n";
  }
  for (const auto& h : dump.histograms) {
    const std::string prom = PrometheusName(h.name);
    out += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b + 1 < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      if (h.buckets[b] == 0) continue;  // sparse cumulative series is valid
      char bound[32];
      std::snprintf(
          bound, sizeof bound, "%llu",
          static_cast<unsigned long long>(
              WindowedHistogram::BucketUpperBound(static_cast<int>(b))));
      AppendLine(&out, prom + "_bucket{le=\"" + bound + "\"}", cumulative);
    }
    // The clamped top bucket folds into +Inf. Count and buckets are read
    // at slightly different instants under concurrent recording; publish
    // a mutually consistent total.
    const std::uint64_t total =
        std::max(h.count, cumulative + h.buckets.back());
    AppendLine(&out, prom + "_bucket{le=\"+Inf\"}", total);
    AppendLine(&out, prom + "_sum", h.sum);
    AppendLine(&out, prom + "_count", total);
  }
  for (const auto& w : DumpWindowed()) {
    const std::string prom = PrometheusName(w.name);
    out += "# TYPE " + prom + " summary\n";
    AppendWindowSeries(&out, prom, "10s", w.short_window);
    AppendWindowSeries(&out, prom, "60s", w.long_window);
  }
  return out;
}

}  // namespace gorder::obs

#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

namespace gorder::obs {

namespace {

bool EnabledFromEnv() {
  const char* env = std::getenv("GORDER_OBS");
  if (env == nullptr) return true;
  return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "false") != 0;
}

/// Registry of every metric ever requested. Entries are leaked
/// intentionally: handles embedded in hot loops must outlive any static
/// destruction order.
struct Registry {
  std::mutex mu;
  std::map<std::string, Counter*> counters;
  std::map<std::string, Gauge*> gauges;
  std::map<std::string, Histogram*> histograms;
  std::vector<Counter*> counter_order;  // registration order, append-only

  static Registry& Get() {
    static Registry* r = new Registry;
    return *r;
  }
};

std::atomic<int> g_next_thread_index{0};

}  // namespace

namespace internal {
std::atomic<bool> g_enabled{EnabledFromEnv()};
}  // namespace internal

int ThreadIndex() {
  thread_local int index =
      g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void SetEnabledForTest(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::Observe(std::uint64_t v) {
  if (!Enabled()) return;
  int bucket = std::min(static_cast<int>(std::bit_width(v)),
                        kNumBuckets - 1);
  Shard& s = shards_[ThreadShard()];
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::Count() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::Sum() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::uint64_t> Histogram::Buckets() const {
  std::vector<std::uint64_t> out(kNumBuckets, 0);
  for (const auto& s : shards_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      out[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void Histogram::Reset() {
  for (auto& s : shards_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

Counter& GetCounter(const std::string& name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(name, new Counter(name)).first;
    r.counter_order.push_back(it->second);
  }
  return *it->second;
}

Gauge& GetGauge(const std::string& name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    it = r.gauges.emplace(name, new Gauge(name)).first;
  }
  return *it->second;
}

Histogram& GetHistogram(const std::string& name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(name, new Histogram(name)).first;
  }
  return *it->second;
}

std::vector<std::uint64_t> SnapshotCounterValues() {
  Registry& r = Registry::Get();
  std::vector<Counter*> handles;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    handles = r.counter_order;
  }
  std::vector<std::uint64_t> values;
  values.reserve(handles.size());
  for (const Counter* c : handles) values.push_back(c->Value());
  return values;
}

std::vector<std::string> CounterNames() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.counter_order.size());
  for (const Counter* c : r.counter_order) names.push_back(c->name());
  return names;
}

MetricsDump DumpMetrics() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsDump dump;
  for (const auto& [name, c] : r.counters) {
    dump.counters.emplace_back(name, c->Value());
  }
  for (const auto& [name, g] : r.gauges) {
    dump.gauges.emplace_back(name, g->Value());
  }
  for (const auto& [name, h] : r.histograms) {
    dump.histograms.push_back({name, h->Count(), h->Sum(), h->Buckets()});
  }
  return dump;
}

}  // namespace gorder::obs

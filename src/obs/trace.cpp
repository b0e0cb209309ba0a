#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"

namespace gorder::obs {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point Epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}

std::atomic<bool> g_capture{false};
std::atomic<bool> g_hw_spans{false};

/// Record store. A deque keeps references stable while spans close out of
/// order; both the push (span open) and the update (span close) take the
/// mutex, which is fine at phase granularity.
struct SpanStore {
  std::mutex mu;
  std::deque<SpanRecord> records;

  static SpanStore& Get() {
    static SpanStore* store = new SpanStore;
    return *store;
  }
};

/// Innermost open span per thread (indices into the record store).
thread_local std::vector<std::int64_t> t_open_spans;

void WriteHwJson(JsonWriter& json, const cachesim::HwStats& hw) {
  json.BeginObject();
  json.KV("cycles", hw.cycles);
  json.KV("instructions", hw.instructions);
  json.KV("ipc", hw.Ipc());
  json.KV("l1d_loads", hw.l1d_loads);
  json.KV("l1d_misses", hw.l1d_misses);
  json.KV("l1_miss_rate", hw.L1MissRate());
  json.KV("llc_loads", hw.llc_loads);
  json.KV("llc_misses", hw.llc_misses);
  json.KV("llc_miss_rate", hw.LlcMissRate());
  json.KV("multiplexed", hw.multiplexed);
  json.KV("min_running_fraction", hw.MinRunningFraction());
  json.EndObject();
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now() - Epoch()).count();
}

Span::Span(std::string name) {
  if (!g_capture.load(std::memory_order_relaxed)) return;
  const int depth = static_cast<int>(t_open_spans.size());
  counters_at_start_ = SnapshotCounterValues();
  start_s_ = NowSeconds();
  SpanRecord record;
  record.name = std::move(name);
  record.parent = t_open_spans.empty() ? kNoParent : t_open_spans.back();
  record.depth = depth;
  record.tid = ThreadIndex();
  record.start_s = start_s_;
  SpanStore& store = SpanStore::Get();
  {
    std::lock_guard<std::mutex> lock(store.mu);
    index_ = static_cast<std::int64_t>(store.records.size());
    store.records.push_back(std::move(record));
  }
  t_open_spans.push_back(index_);
  if (g_hw_spans.load(std::memory_order_relaxed) &&
      depth < kHwSpanMaxDepth) {
    hw_ = new cachesim::HwCounters;
    if (!hw_->Start()) {
      delete hw_;
      hw_ = nullptr;
    }
  }
}

Span::~Span() {
  if (index_ == kNoParent) return;
  cachesim::HwStats hw;
  bool has_hw = false;
  if (hw_ != nullptr) {
    hw = hw_->Stop();
    has_hw = hw.valid;
    delete hw_;
  }
  const double end_s = NowSeconds();
  std::vector<std::uint64_t> counters_now = SnapshotCounterValues();
  std::vector<std::pair<std::string, std::uint64_t>> deltas;
  if (counters_now.size() >= counters_at_start_.size()) {
    std::vector<std::string> names = CounterNames();
    for (std::size_t i = 0; i < counters_now.size(); ++i) {
      std::uint64_t before =
          i < counters_at_start_.size() ? counters_at_start_[i] : 0;
      if (counters_now[i] > before && i < names.size()) {
        deltas.emplace_back(names[i], counters_now[i] - before);
      }
    }
  }
  t_open_spans.pop_back();
  SpanStore& store = SpanStore::Get();
  std::lock_guard<std::mutex> lock(store.mu);
  SpanRecord& record = store.records[index_];
  record.dur_s = end_s - start_s_;
  record.counter_deltas = std::move(deltas);
  record.has_hw = has_hw;
  record.hw = hw;
}

void StartCapture() { g_capture.store(true, std::memory_order_relaxed); }
void StopCapture() { g_capture.store(false, std::memory_order_relaxed); }

void SetHwSpansEnabled(bool enabled) {
  g_hw_spans.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> SnapshotSpans() {
  SpanStore& store = SpanStore::Get();
  std::lock_guard<std::mutex> lock(store.mu);
  return {store.records.begin(), store.records.end()};
}

void ClearSpans() {
  SpanStore& store = SpanStore::Get();
  std::lock_guard<std::mutex> lock(store.mu);
  store.records.clear();
}

std::string RenderChromeTraceJson() {
  std::vector<SpanRecord> records = SnapshotSpans();
  JsonWriter json;
  json.BeginObject();
  json.KV("displayTimeUnit", "ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const SpanRecord& r : records) {
    if (r.dur_s < 0) continue;  // still open: no complete event
    json.BeginObject();
    json.KV("name", r.name);
    json.KV("cat", "gorder");
    json.KV("ph", "X");
    json.KV("ts", r.start_s * 1e6);
    json.KV("dur", r.dur_s * 1e6);
    json.KV("pid", 1);
    json.KV("tid", r.tid);
    json.Key("args");
    json.BeginObject();
    if (!r.counter_deltas.empty()) {
      json.Key("metrics");
      json.BeginObject();
      for (const auto& [name, delta] : r.counter_deltas) {
        json.KV(name, delta);
      }
      json.EndObject();
    }
    if (r.has_hw) {
      json.Key("hw");
      WriteHwJson(json, r.hw);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

bool WriteChromeTrace(const std::string& path) {
  // Staged + renamed (util/atomic_file): a failed write never leaves a
  // truncated trace a viewer would choke on at the final path.
  return util::WriteFileAtomic(path, RenderChromeTraceJson()).ok;
}

}  // namespace gorder::obs

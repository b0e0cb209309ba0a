#include "obs/report.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "cachesim/hw_counters.h"
#include "obs/expo.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/parallel.h"

#ifndef GORDER_BUILD_GIT_SHA
#define GORDER_BUILD_GIT_SHA "unknown"
#endif

namespace gorder::obs {

namespace {

struct RunState {
  std::mutex mu;
  RunOptions options;
  bool registered = false;

  static RunState& Get() {
    static RunState* state = new RunState;
    return *state;
  }
};

void WriteArtifactsAtExit() { WriteRunArtifacts(); }

long CacheSysconf(int name) {
#ifdef __linux__
  long v = sysconf(name);
  return v > 0 ? v : 0;
#else
  (void)name;
  return 0;
#endif
}

std::string CpuModel() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f != nullptr) {
    char line[512];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) {
          std::string model = colon + 1;
          while (!model.empty() &&
                 (model.front() == ' ' || model.front() == '\t')) {
            model.erase(model.begin());
          }
          while (!model.empty() &&
                 (model.back() == '\n' || model.back() == ' ')) {
            model.pop_back();
          }
          std::fclose(f);
          return model;
        }
      }
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

std::string OsString() {
#ifdef __linux__
  utsname u;
  if (uname(&u) == 0) {
    return std::string(u.sysname) + " " + u.release;
  }
#endif
  return "unknown";
}

void WriteEnvJson(JsonWriter& json, const EnvFingerprint& env) {
  json.BeginObject();
  json.KV("cpu_model", env.cpu_model);
  json.KV("compiler", env.compiler);
  json.KV("git_sha", env.git_sha);
  json.KV("os", env.os);
  json.Key("cache");
  json.BeginObject();
  json.KV("l1d_bytes", static_cast<std::int64_t>(env.l1d_bytes));
  json.KV("l2_bytes", static_cast<std::int64_t>(env.l2_bytes));
  json.KV("l3_bytes", static_cast<std::int64_t>(env.l3_bytes));
  json.KV("line_bytes", static_cast<std::int64_t>(env.line_bytes));
  json.EndObject();
  json.KV("threads", env.threads);
  json.KV("hardware_concurrency", env.hardware_concurrency);
  json.KV("affinity_cpus", env.affinity_cpus);
  json.KV("obs_enabled", env.obs_enabled);
  json.KV("hw_counters_available", env.hw_counters_available);
  json.EndObject();
}

void WriteHwJson(JsonWriter& json, const cachesim::HwStats& hw) {
  json.BeginObject();
  json.KV("cycles", hw.cycles);
  json.KV("instructions", hw.instructions);
  json.KV("ipc", hw.Ipc());
  json.KV("l1_miss_rate", hw.L1MissRate());
  json.KV("llc_miss_rate", hw.LlcMissRate());
  json.KV("multiplexed", hw.multiplexed);
  json.KV("min_running_fraction", hw.MinRunningFraction());
  json.EndObject();
}

void WriteWindowJson(JsonWriter& json, const WindowSnapshot& w) {
  json.BeginObject();
  json.KV("count", w.count);
  json.KV("sum", w.sum);
  json.KV("p50", w.p50);
  json.KV("p99", w.p99);
  json.KV("p999", w.p999);
  json.EndObject();
}

void WriteSpanJson(JsonWriter& json, const std::vector<SpanRecord>& records,
                   const std::vector<std::vector<std::size_t>>& children,
                   std::size_t index) {
  const SpanRecord& r = records[index];
  json.BeginObject();
  json.KV("name", r.name);
  json.KV("tid", r.tid);
  json.KV("start_s", r.start_s);
  json.KV("dur_s", r.dur_s);
  if (!r.counter_deltas.empty()) {
    json.Key("metrics");
    json.BeginObject();
    for (const auto& [name, delta] : r.counter_deltas) json.KV(name, delta);
    json.EndObject();
  }
  if (r.has_hw) {
    json.Key("hw");
    WriteHwJson(json, r.hw);
  }
  if (!children[index].empty()) {
    json.Key("children");
    json.BeginArray();
    for (std::size_t c : children[index]) {
      WriteSpanJson(json, records, children, c);
    }
    json.EndArray();
  }
  json.EndObject();
}

}  // namespace

EnvFingerprint CollectEnvFingerprint() {
  EnvFingerprint env;
  env.cpu_model = CpuModel();
  env.compiler = __VERSION__;
  const char* sha_env = std::getenv("GORDER_GIT_SHA");
  env.git_sha = sha_env != nullptr ? sha_env : GORDER_BUILD_GIT_SHA;
  env.os = OsString();
#ifdef __linux__
  env.l1d_bytes = CacheSysconf(_SC_LEVEL1_DCACHE_SIZE);
  env.l2_bytes = CacheSysconf(_SC_LEVEL2_CACHE_SIZE);
  env.l3_bytes = CacheSysconf(_SC_LEVEL3_CACHE_SIZE);
  env.line_bytes = CacheSysconf(_SC_LEVEL1_DCACHE_LINESIZE);
#endif
  env.threads = NumThreads();
  env.hardware_concurrency =
      static_cast<int>(std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    env.affinity_cpus = CPU_COUNT(&cpus);
  }
#endif
  env.obs_enabled = Enabled();
  env.hw_counters_available = cachesim::HwCounters::Available();
  return env;
}

void StartRun(const RunOptions& options) {
  RunState& state = RunState::Get();
  bool register_atexit = false;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.options = options;
    if (!state.registered) {
      state.registered = true;
      register_atexit = true;
    }
  }
  if (Enabled()) {
    StartCapture();
    const char* hw_env = std::getenv("GORDER_OBS_HW");
    bool hw_wanted =
        hw_env == nullptr || (std::strcmp(hw_env, "off") != 0 &&
                              std::strcmp(hw_env, "0") != 0);
    if (hw_wanted && cachesim::HwCounters::Available()) {
      SetHwSpansEnabled(true);
    }
  }
  if (register_atexit) std::atexit(WriteArtifactsAtExit);
}

std::string RenderRunReportJson() {
  RunState& state = RunState::Get();
  RunOptions options;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    options = state.options;
  }
  EnvFingerprint env = CollectEnvFingerprint();
  MetricsDump metrics = DumpMetrics();
  std::vector<SpanRecord> records = SnapshotSpans();

  JsonWriter json;
  json.BeginObject();
  json.KV("schema", "gorder-run-report");
  json.KV("schema_version", kReportSchemaVersion);
  json.KV("schema_minor", kReportSchemaMinorVersion);
  json.KV("bench", options.bench);
  json.KV("timestamp_unix",
          static_cast<std::int64_t>(
              std::chrono::duration_cast<std::chrono::seconds>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count()));
  json.Key("env");
  WriteEnvJson(json, env);

  json.Key("flags");
  json.BeginObject();
  for (const auto& [key, value] : options.flags) json.KV(key, value);
  json.EndObject();

  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, value] : metrics.counters) json.KV(name, value);
  for (const auto& [name, value] : metrics.gauges) json.KV(name, value);
  json.EndObject();

  json.Key("histograms");
  json.BeginObject();
  for (const auto& h : metrics.histograms) {
    json.Key(h.name);
    json.BeginObject();
    json.KV("count", h.count);
    json.KV("sum", h.sum);
    json.Key("buckets");
    json.BeginArray();
    for (std::uint64_t b : h.buckets) json.Uint(b);
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  // Minor 3: the live-latency windows at report time. Empty for runs
  // that never touched a WindowedHistogram (all bench binaries today);
  // gorderd populates one per active opcode.
  json.Key("windows");
  json.BeginObject();
  for (const WindowedDump& w : DumpWindowed()) {
    json.Key(w.name);
    json.BeginObject();
    json.Key("10s");
    WriteWindowJson(json, w.short_window);
    json.Key("60s");
    WriteWindowJson(json, w.long_window);
    json.EndObject();
  }
  json.EndObject();

  // Span forest: children grouped under their parent, roots in creation
  // order. Open spans (dur_s < 0) are reported as-is so a crashed run
  // still shows where it was.
  std::vector<std::vector<std::size_t>> children(records.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent == kNoParent) {
      roots.push_back(i);
    } else {
      children[static_cast<std::size_t>(records[i].parent)].push_back(i);
    }
  }
  json.Key("spans");
  json.BeginArray();
  for (std::size_t r : roots) WriteSpanJson(json, records, children, r);
  json.EndArray();

  json.EndObject();
  return json.TakeString();
}

bool WriteRunArtifacts() {
  RunState& state = RunState::Get();
  RunOptions options;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    options = state.options;
  }
  bool ok = true;
  if (!options.json_out.empty()) {
    IoResult r = util::WriteFileAtomic(options.json_out,
                                       RenderRunReportJson());
    if (!r.ok) {
      std::fprintf(stderr, "obs: cannot write %s: %s\n",
                   options.json_out.c_str(), r.error.c_str());
      ok = false;
    } else {
      GORDER_LOG_INFO("run report written to %s\n",
                      options.json_out.c_str());
    }
  }
  if (!options.trace_out.empty()) {
    if (!WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "obs: cannot write %s\n",
                   options.trace_out.c_str());
      ok = false;
    } else {
      GORDER_LOG_INFO("chrome trace written to %s (open in Perfetto)\n",
                      options.trace_out.c_str());
    }
  }
  return ok;
}

}  // namespace gorder::obs

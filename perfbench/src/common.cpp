#include "common.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "cachesim/hw_counters.h"
#include "obs/json.h"

namespace perfbench {

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::pair<double, double> StealJiffies() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  double steal = 0.0, total = 0.0;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(f >> v)) return {0.0, 0.0};
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) std::abort();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double TailQuantile(std::size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    // Samples strictly beyond the nearest-rank percentile.
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (n >= rank + 10) best = q;
  }
  return best;
}

std::string QuantileLabel(double q) {
  if (q == 0.5) return "p50";
  if (q == 0.9) return "p90";
  if (q == 0.99) return "p99";
  if (q == 0.999) return "p999";
  return "none";
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string DescribeSample(const std::string& name,
                           const std::vector<double>& values,
                           const std::string& unit) {
  std::ostringstream out;
  out << name << ": n=" << values.size();
  if (values.empty()) return out.str();
  out << " p50=" << Fmt(Median(values)) << unit;
  const double q = TailQuantile(values.size());
  if (q > 0.5) {
    out << " " << QuantileLabel(q) << "=" << Fmt(Percentile(values, q)) << unit;
  }
  out << " max=" << Fmt(*std::max_element(values.begin(), values.end()))
      << unit;
  return out.str();
}

namespace {

bool AllOf(const std::string& s, const char* extra) {
  for (char c : s) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (!alnum && std::string(extra).find(c) == std::string::npos) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !AllOf(name, "_.-")) return false;
  return AllOf(name.substr(0, 1), "");
}

bool ValidUnit(const std::string& unit) {
  return !unit.empty() && unit.size() <= 16 && AllOf(unit, "_/%.-");
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  const bool repeated =
      std::any_of(metrics_.begin(), metrics_.end(),
                  [&](const Metric& m) { return m.name == name; });
  if (!ValidMetricName(name) || !ValidUnit(unit) || repeated) {
    std::fprintf(stderr, "perfbench: invalid metric '%s' [%s]\n",
                 name.c_str(), unit.c_str());
    std::abort();
  }
  metrics_.push_back({name, value, unit});
}

void MetricSet::WriteJson(gorder::obs::JsonWriter& json) const {
  json.BeginObject();
  for (const Metric& m : metrics_) {
    json.Key(m.name);
    json.BeginObject();
    json.KV("value", m.value);
    json.KV("unit", m.unit);
    json.EndObject();
  }
  json.EndObject();
}

std::string MetricSet::ToJson() const {
  gorder::obs::JsonWriter json;
  WriteJson(json);
  return json.TakeString();
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Record r;
  r.name = std::move(name);
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  r.start_s = Now();
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(r));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->records_[index_].end_s = Now();
  tracer_->open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::LayerSelfSeconds() const {
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_s < 0) continue;
    self[i] += r.end_s - r.start_s;
    if (r.parent >= 0) self[r.parent] -= r.end_s - r.start_s;
  }
  std::vector<std::pair<std::string, double>> layers;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].end_s < 0) continue;
    const std::string layer =
        records_[i].name.substr(0, records_[i].name.find(':'));
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& l) { return l.first == layer; });
    if (it == layers.end()) {
      layers.emplace_back(layer, self[i]);
    } else {
      it->second += self[i];
    }
  }
  std::sort(layers.begin(), layers.end());
  return layers;
}

std::string Tracer::ChromeTraceJson() const {
  gorder::obs::JsonWriter json;
  json.BeginObject();
  json.KV("displayTimeUnit", "ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_s < 0) continue;
    json.BeginObject();
    json.KV("name", r.name);
    json.KV("cat", "perfbench");
    json.KV("ph", "X");
    json.KV("ts", r.start_s * 1e6);
    json.KV("dur", (r.end_s - r.start_s) * 1e6);
    json.KV("pid", 1);
    json.KV("tid", 0);
    json.Key("args");
    json.BeginObject();
    json.KV("id", static_cast<std::uint64_t>(i));
    json.KV("parent", static_cast<std::int64_t>(r.parent));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

namespace {

std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

}  // namespace

double PeakRssMb(const std::string& status_path) {
  std::ifstream f(status_path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string MachineJson(const std::string& git_sha) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string l2 = "unknown", l3 = "unknown";
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadFirstLine(dir + "level");
    if (level == "2") l2 = ReadFirstLine(dir + "size");
    if (level == "3") l3 = ReadFirstLine(dir + "size");
  }
  double load1 = -1.0;
  std::istringstream(ReadFirstLine("/proc/loadavg")) >> load1;
  gorder::obs::JsonWriter json;
  json.BeginObject();
  json.KV("online_cpus",
          static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  json.KV("affinity_cpus", affinity);
  json.KV("l2", l2);
  json.KV("l3", l3);
  json.KV("perf_event_open", gorder::cachesim::HwCounters::Available());
  json.KV("perf_event_paranoid",
          ReadFirstLine("/proc/sys/kernel/perf_event_paranoid"));
  json.KV("loadavg_1m", load1);
  json.KV("git_sha", git_sha);
  json.EndObject();
  return json.TakeString();
}

}  // namespace perfbench

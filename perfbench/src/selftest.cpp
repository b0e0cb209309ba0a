// Tests of the benchmark's own helpers, and of BENCHMARK.json against the
// metrics the binary prints. Run from the repository root through
//   python3 perfbench/run.py --selftest
// Exits 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "obs/json.h"
#include "pipeline.h"
#include "schedule.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using perfbench::Percentile;
using perfbench::TailQuantile;

void TestTailQuantile() {
  // The highest percentile with at least ten samples beyond it.
  EXPECT(TailQuantile(0) == 0.0);
  EXPECT(TailQuantile(19) == 0.0);
  EXPECT(TailQuantile(20) == 0.5);
  EXPECT(TailQuantile(99) == 0.5);
  EXPECT(TailQuantile(100) == 0.9);
  EXPECT(TailQuantile(999) == 0.9);
  EXPECT(TailQuantile(1000) == 0.99);
  EXPECT(TailQuantile(9999) == 0.99);
  EXPECT(TailQuantile(10000) == 0.999);
  EXPECT(TailQuantile(1000000) == 0.999);
  for (std::size_t n = 1; n < 20000; n += 7) {
    const double q = TailQuantile(n);
    if (q == 0.0) continue;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
    const double p = Percentile(v, q);
    std::size_t beyond = 0;
    for (double x : v) beyond += x > p;
    EXPECT(beyond >= 10);
  }
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.9) == 90);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(perfbench::Median({3.0}) == 3.0);
  EXPECT(perfbench::QuantileLabel(TailQuantile(1000)) == "p99");
}

void TestSchedule() {
  perfbench::ScheduleSpec spec;
  spec.seed = 17;
  spec.rate_per_s = 1000;
  spec.traversal_share = 0.02;
  spec.duration_s = 5;
  spec.swap_interval_s = 1;
  spec.num_nodes = 5000;
  spec.connections = 2;
  const auto a = perfbench::MakeSchedule(spec);
  EXPECT(a == perfbench::MakeSchedule(spec));  // pure in its spec
  for (auto change : {0, 1, 2, 3}) {
    perfbench::ScheduleSpec other = spec;
    if (change == 0) other.seed = 18;
    if (change == 1) other.rate_per_s = 900;
    if (change == 2) other.traversal_share = 0.5;
    if (change == 3) other.duration_s = 4;
    EXPECT(!(a == perfbench::MakeSchedule(other)));
  }
  std::size_t swaps = 0, traversals = 0, sps = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT(a[i].due_s >= 0 && a[i].due_s < spec.duration_s);
    if (i > 0) EXPECT(a[i - 1].due_s <= a[i].due_s);
    EXPECT(a[i].connection >= 0 && a[i].connection < spec.connections);
    EXPECT(a[i].node < spec.num_nodes);
    using gorder::serve::Opcode;
    swaps += a[i].op == Opcode::kSwapPack;
    traversals += a[i].op == Opcode::kBfs || a[i].op == Opcode::kSp;
    sps += a[i].op == Opcode::kSp;
  }
  EXPECT(sps == traversals / 4);  // BFS:SP fixed at 3:1
  EXPECT(swaps == 4);  // due at 1, 2, 3 and 4 s
  const double reads = static_cast<double>(a.size() - swaps);
  EXPECT(reads > 4500 && reads < 5500);  // Poisson at 1000/s for 5 s
  EXPECT(traversals > 0.01 * reads && traversals < 0.03 * reads);

  // Traversal sources come only from the given list, which is part of
  // the spec like every other field.
  perfbench::ScheduleSpec listed = spec;
  listed.traversal_sources = {7, 4242};
  const auto b = perfbench::MakeSchedule(listed);
  EXPECT(b == perfbench::MakeSchedule(listed));
  EXPECT(!(a == b));
  for (const perfbench::Arrival& x : b) {
    using gorder::serve::Opcode;
    if (x.op == Opcode::kBfs || x.op == Opcode::kSp) {
      EXPECT(x.node == 7 || x.node == 4242);
    }
  }
}

void TestMetricNames() {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  auto all = perfbench::EndToEndMetricNames();
  const auto layer = perfbench::PerLayerMetricNames();
  EXPECT(!all.empty() && !layer.empty() && layer.size() <= 128);
  all.insert(all.end(), layer.begin(), layer.end());
  for (const perfbench::Metric& m : all) {
    EXPECT(std::regex_match(m.name, name_re));
    EXPECT(std::regex_match(m.unit, unit_re));
    EXPECT(perfbench::ValidMetricName(m.name));
    EXPECT(perfbench::ValidUnit(m.unit));
    EXPECT(seen.insert(m.name).second);  // each name used once
  }
  EXPECT(!perfbench::ValidMetricName("_lead"));
  EXPECT(!perfbench::ValidMetricName("has space"));
  EXPECT(!perfbench::ValidMetricName(std::string(65, 'a')));
  EXPECT(!perfbench::ValidUnit(""));
  perfbench::MetricSet set;
  set.Add("a.b_s", 1.25, "s");
  EXPECT(set.ToJson() == "{\"a.b_s\":{\"value\":1.25,\"unit\":\"s\"}}");
}

void TestTracerSelfTime() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(&tracer, "bench:outer");
    perfbench::Tracer::Scope inner(&tracer, "algo:inner");
  }
  const auto& r = tracer.records();
  EXPECT(r.size() == 2 && r[1].parent == 0);
  double total = 0;
  for (const auto& [layer, s] : tracer.LayerSelfSeconds()) {
    EXPECT(layer == "algo" || layer == "bench");
    EXPECT(s >= 0);
    total += s;
  }
  // Self times partition the root span.
  EXPECT(std::abs(total - (r[0].end_s - r[0].start_s)) < 1e-9);
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope s(&off, "bench:x"); }
  EXPECT(off.records().empty());
}

// BENCHMARK.json names the workloads and metrics this binary prints, in
// the same order and with the same units.
void TestBenchmarkJson(const std::string& path) {
  std::ifstream f(path);
  std::stringstream text;
  text << f.rdbuf();
  gorder::obs::JsonValue doc;
  std::string error;
  EXPECT(gorder::obs::ParseJson(text.str(), &doc, &error));
  auto same = [&](const char* key, const std::vector<perfbench::Metric>& want) {
    const gorder::obs::JsonValue* list = doc.Find(key);
    EXPECT(list != nullptr && list->array.size() == want.size());
    if (list == nullptr || list->array.size() != want.size()) return;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const gorder::obs::JsonValue* name = list->array[i].Find("name");
      const gorder::obs::JsonValue* unit = list->array[i].Find("unit");
      EXPECT(name && name->str == want[i].name);
      EXPECT(unit && unit->str == want[i].unit);
    }
  };
  same("end_to_end", perfbench::EndToEndMetricNames());
  same("per_layer", perfbench::PerLayerMetricNames());
  const gorder::obs::JsonValue* workloads = doc.Find("workloads");
  const auto& specs = perfbench::Workloads();
  EXPECT(workloads != nullptr && workloads->array.size() == specs.size());
  for (std::size_t i = 0; workloads && i < specs.size() &&
                          i < workloads->array.size(); ++i) {
    const gorder::obs::JsonValue* name = workloads->array[i].Find("name");
    const gorder::obs::JsonValue* why = workloads->array[i].Find("why");
    EXPECT(name && name->str == specs[i].name);
    EXPECT(why && why->str == specs[i].why);
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestTailQuantile();
  TestSchedule();
  TestMetricNames();
  TestTracerSelfTime();
  TestBenchmarkJson(argc > 1 ? argv[1] : "BENCHMARK.json");
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

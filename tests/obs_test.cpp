// Tests for the observability subsystem: JSON writer escaping, sharded
// counter sums under parallel load, span nesting/ordering and run-report
// rendering.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "obs/expo.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/reqtrace.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace gorder::obs {
namespace {

/// Restores capture/enable state and the thread budget when a test exits;
/// span-dependent tests clear the record store so they see only their own.
class ObsGuard {
 public:
  ObsGuard() {
    SetEnabledForTest(true);
    StopCapture();
    ClearSpans();
  }
  ~ObsGuard() {
    StopCapture();
    ClearSpans();
    SetEnabledForTest(true);
    SetNumThreads(0);
  }
};

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControlChars) {
  JsonWriter w;
  w.BeginObject();
  w.KV("k", std::string("a\"b\\c\n\t\r\b\f\x01z"));
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"k\":\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001z\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity());
  w.Double(1.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,1.5]");
}

TEST(JsonWriterTest, NestedStructuresGetCommasRight) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.BeginArray();
  w.Int(1);
  w.Int(-2);
  w.EndArray();
  w.KV("b", true);
  w.Key("c");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":[1,-2],\"b\":true,\"c\":{}}");
}

TEST(MetricsTest, CounterSumsAcrossThreads) {
  ObsGuard guard;
  Counter& c = GetCounter("obs_test.parallel_adds");
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    c.Reset();
    constexpr std::size_t kItems = 10000;
    ParallelFor(0, kItems, 64, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) c.Add(1);
    });
    EXPECT_EQ(c.Value(), kItems) << "threads=" << threads;
  }
}

TEST(MetricsTest, DisabledCounterDropsAdds) {
  ObsGuard guard;
  Counter& c = GetCounter("obs_test.gated_adds");
  c.Reset();
  SetEnabledForTest(false);
  c.Add(100);
  EXPECT_EQ(c.Value(), 0u);
  SetEnabledForTest(true);
  c.Add(3);
  EXPECT_EQ(c.Value(), 3u);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  ObsGuard guard;
  Histogram& h = GetHistogram("obs_test.hist");
  h.Reset();
  h.Observe(0);   // bucket 0
  h.Observe(1);   // bucket 1
  h.Observe(5);   // bucket 3
  h.Observe(5);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 11u);
  auto buckets = h.Buckets();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[3], 2u);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  ObsGuard guard;
  Gauge& g = GetGauge("obs_test.gauge");
  g.Set(7);
  g.Set(-3);
  EXPECT_EQ(g.Value(), -3);
}

TEST(SpanTest, NotRecordedWithoutCapture) {
  ObsGuard guard;
  { Span s("obs_test.uncaptured"); }
  EXPECT_TRUE(SnapshotSpans().empty());
}

TEST(SpanTest, NestsAndOrders) {
  ObsGuard guard;
  StartCapture();
  {
    Span outer("outer");
    { Span inner1("inner1"); }
    {
      Span inner2("inner2");
      { Span leaf("leaf"); }
    }
  }
  auto spans = SnapshotSpans();
  ASSERT_EQ(spans.size(), 4u);
  // Records are appended in construction order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner1");
  EXPECT_EQ(spans[2].name, "inner2");
  EXPECT_EQ(spans[3].name, "leaf");
  EXPECT_EQ(spans[0].parent, kNoParent);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[3].depth, 2);
  for (const auto& s : spans) {
    EXPECT_GE(s.dur_s, 0.0) << s.name << " left open";
    if (s.parent != kNoParent) {
      EXPECT_GE(s.start_s, spans[s.parent].start_s);
    }
  }
}

TEST(SpanTest, CapturesCounterDeltas) {
  ObsGuard guard;
  Counter& c = GetCounter("obs_test.span_delta");
  c.Reset();
  StartCapture();
  {
    Span s("delta");
    c.Add(42);
  }
  auto spans = SnapshotSpans();
  ASSERT_EQ(spans.size(), 1u);
  bool found = false;
  for (const auto& [name, delta] : spans[0].counter_deltas) {
    if (name == "obs_test.span_delta") {
      EXPECT_EQ(delta, 42u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SpanTest, ChromeTraceRendersEvents) {
  ObsGuard guard;
  StartCapture();
  {
    Span outer("trace \"outer\"");
    Span inner("inner");
  }
  std::string json = RenderChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("trace \\\"outer\\\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(ReportTest, RendersSchemaAndEnv) {
  ObsGuard guard;
  StartCapture();
  {
    Span s("report_phase");
    GetCounter("obs_test.report_counter").Add(5);
  }
  std::string json = RenderRunReportJson();
  EXPECT_NE(json.find("\"schema\":\"gorder-run-report\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"env\":"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_model\""), std::string::npos);
  EXPECT_NE(json.find("\"report_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.report_counter\""), std::string::npos);
}

TEST(ReportTest, EnvFingerprintIsPopulated) {
  EnvFingerprint env = CollectEnvFingerprint();
  EXPECT_FALSE(env.cpu_model.empty());
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.os.empty());
  EXPECT_GE(env.threads, 1);
#ifdef __linux__
  // The affinity mask is a subset of the online CPUs.
  EXPECT_GE(env.affinity_cpus, 1);
  EXPECT_LE(env.affinity_cpus, env.hardware_concurrency);
#endif
  EXPECT_NE(RenderRunReportJson().find("\"affinity_cpus\":" +
                                       std::to_string(env.affinity_cpus)),
            std::string::npos);
}

// Regression: the trace writer used to fopen the final path directly, so
// a crash or full disk left a truncated JSON file a viewer chokes on. It
// now stages through util/atomic_file — success leaves exactly the final
// file, failure leaves nothing at the final path and no staging debris.
TEST(TraceWriterTest, WritesAtomicallyAndFailsClean) {
  ObsGuard guard;
  StartCapture();
  { Span s("atomic_phase"); }
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "gorder_obs_atomic_trace_test";
  fs::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  EXPECT_TRUE(WriteChromeTrace(trace));
  EXPECT_TRUE(fs::exists(trace));
  std::ifstream in(trace);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);

  // Failure path: the final path is an existing directory, so the
  // commit rename cannot succeed. The old content situation (nothing)
  // must be preserved and the staging file cleaned up.
  const std::string blocked = (dir / "blocked").string();
  fs::create_directories(blocked);
  EXPECT_FALSE(WriteChromeTrace(blocked + "/"));
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "staging debris: " << entry.path();
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(WindowedHistogramTest, QuantilesOverOneSlot) {
  ObsGuard guard;
  WindowedHistogram h("obs_test.win_one_slot");
  // 900 fast (bucket 3: values 4..7), 90 medium (bucket 7: 64..127),
  // 10 slow (bucket 11: 1024..2047) — a classic latency shape.
  for (int i = 0; i < 900; ++i) h.RecordAtTick(5, 100);
  for (int i = 0; i < 90; ++i) h.RecordAtTick(100, 100);
  for (int i = 0; i < 10; ++i) h.RecordAtTick(2000, 100);
  WindowSnapshot w = h.SnapshotAtTick(kWindowSecondsShort, 100);
  EXPECT_EQ(w.count, 1000u);
  EXPECT_EQ(w.sum, 900u * 5 + 90u * 100 + 10u * 2000);
  EXPECT_EQ(w.p50, WindowedHistogram::BucketUpperBound(3));   // 7
  EXPECT_EQ(w.p99, WindowedHistogram::BucketUpperBound(7));   // 127
  EXPECT_EQ(w.p999, WindowedHistogram::BucketUpperBound(11));  // 2047
  EXPECT_LE(w.p50, w.p99);
  EXPECT_LE(w.p99, w.p999);
}

TEST(WindowedHistogramTest, OldSlotsAgeOutOfTheWindow) {
  ObsGuard guard;
  WindowedHistogram h("obs_test.win_aging");
  h.RecordAtTick(1000, 10);  // 50s..55s on the slot clock
  h.RecordAtTick(1, 20);     // 100s..105s
  // At tick 20, the 10s window covers ticks {19, 20} — only the fresh
  // record; the 60s window covers ticks {9..20} — both.
  WindowSnapshot short_w = h.SnapshotAtTick(kWindowSecondsShort, 20);
  EXPECT_EQ(short_w.count, 1u);
  EXPECT_EQ(short_w.sum, 1u);
  WindowSnapshot long_w = h.SnapshotAtTick(kWindowSecondsLong, 20);
  EXPECT_EQ(long_w.count, 2u);
  EXPECT_EQ(long_w.sum, 1001u);
  // Far in the future both are empty.
  EXPECT_EQ(h.SnapshotAtTick(kWindowSecondsLong, 1000).count, 0u);
}

TEST(WindowedHistogramTest, WrappedSlotIsRecycledNotDoubleCounted) {
  ObsGuard guard;
  WindowedHistogram h("obs_test.win_recycle");
  // Tick 5 and tick 5 + kNumSlots map to the same ring slot.
  h.RecordAtTick(7, 5);
  const std::int64_t wrapped = 5 + WindowedHistogram::kNumSlots;
  h.RecordAtTick(9, wrapped);
  WindowSnapshot w = h.SnapshotAtTick(kWindowSecondsShort, wrapped);
  EXPECT_EQ(w.count, 1u);
  EXPECT_EQ(w.sum, 9u);
}

TEST(WindowedHistogramTest, DisabledRecordIsDropped) {
  ObsGuard guard;
  WindowedHistogram& h = GetWindowedHistogram("obs_test.win_gated");
  h.ResetForTest();
  SetEnabledForTest(false);
  h.Record(42);
  SetEnabledForTest(true);
  EXPECT_EQ(h.Snapshot(kWindowSecondsLong).count, 0u);
}

TEST(WindowedHistogramTest, DumpIsSortedAndCoversRegistry) {
  ObsGuard guard;
  ResetAllWindowed();
  GetWindowedHistogram("obs_test.win_dump_b").Record(3);
  GetWindowedHistogram("obs_test.win_dump_a").Record(5);
  std::vector<WindowedDump> dump = DumpWindowed();
  std::size_t a = dump.size(), b = dump.size();
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_TRUE(i == 0 || dump[i - 1].name < dump[i].name) << "unsorted";
    if (dump[i].name == "obs_test.win_dump_a") a = i;
    if (dump[i].name == "obs_test.win_dump_b") b = i;
  }
  ASSERT_LT(a, dump.size());
  ASSERT_LT(b, dump.size());
  EXPECT_EQ(dump[a].short_window.count, 1u);
  EXPECT_EQ(dump[a].long_window.sum, 5u);
  EXPECT_EQ(dump[b].long_window.sum, 3u);
}

TEST(PrometheusTest, NamesAreMechanicallySanitised) {
  EXPECT_EQ(PrometheusName("serve.requests"), "gorder_serve_requests");
  EXPECT_EQ(PrometheusName("serve.req_us.bfs"), "gorder_serve_req_us_bfs");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "gorder_weird_name_with_spaces");
}

TEST(PrometheusTest, RendersCounterHistogramAndWindowSeries) {
  ObsGuard guard;
  GetCounter("obs_test.prom_counter").Reset();
  GetCounter("obs_test.prom_counter").Add(7);
  Histogram& h = GetHistogram("obs_test.prom_hist");
  h.Reset();
  h.Observe(1);
  h.Observe(100);
  GetWindowedHistogram("obs_test.prom_win").ResetForTest();
  GetWindowedHistogram("obs_test.prom_win").Record(50);
  std::string text = RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE gorder_obs_test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gorder_obs_test_prom_counter_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gorder_obs_test_prom_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gorder_obs_test_prom_hist_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("gorder_obs_test_prom_hist_count 2"),
            std::string::npos);
  EXPECT_NE(
      text.find(
          "gorder_obs_test_prom_win{window=\"10s\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("gorder_obs_test_prom_win_count{window=\"60s\"} 1"),
            std::string::npos);
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", std::string("a\"b\\c\nz"));
  w.KV("big", std::uint64_t{18446744073709551615ull});
  w.KV("neg", std::int64_t{-42});
  w.KV("pi", 3.25);
  w.KV("yes", true);
  w.Key("list");
  w.BeginArray();
  w.Uint(1);
  w.Null();
  w.EndArray();
  w.EndObject();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Find("name")->str, "a\"b\\c\nz");
  EXPECT_TRUE(doc.Find("big")->is_uint);
  EXPECT_EQ(doc.U64("big"), 18446744073709551615ull);
  EXPECT_EQ(doc.Find("neg")->num, -42.0);
  EXPECT_EQ(doc.Find("pi")->num, 3.25);
  EXPECT_TRUE(doc.Find("yes")->boolean);
  ASSERT_EQ(doc.Find("list")->array.size(), 2u);
  EXPECT_EQ(doc.Find("list")->array[0].uint, 1u);
  EXPECT_EQ(doc.Find("list")->array[1].kind, JsonValue::Kind::kNull);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  JsonValue doc;
  std::string error;
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}",
                          "\"unterminated", "01", "1e", "tru", "{} extra",
                          "\x01"}) {
    EXPECT_FALSE(ParseJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Depth bomb: 100 nested arrays exceeds the parser's depth cap.
  std::string deep(100, '[');
  deep.append(100, ']');
  EXPECT_FALSE(ParseJson(deep, &doc, &error));
}

TEST(JsonParseTest, DecodesUnicodeEscapesToUtf8) {
  JsonValue doc;
  std::string error;
  // BMP code points: ASCII, 2-byte and 3-byte UTF-8, both hex cases.
  ASSERT_TRUE(ParseJson("\"\\u0041\\u00e9\\u20AC\"", &doc, &error)) << error;
  EXPECT_EQ(doc.str, "A\xC3\xA9\xE2\x82\xAC");  // A é €
  // Control characters round-trip through the writer's \u00XX form.
  ASSERT_TRUE(ParseJson("\"\\u0000\\u001f\"", &doc, &error)) << error;
  EXPECT_EQ(doc.str, std::string("\x00\x1F", 2));
  // Surrogate pair: U+1F600 (emoji, astral plane) -> 4-byte UTF-8.
  ASSERT_TRUE(ParseJson("\"\\uD83D\\uDE00\"", &doc, &error)) << error;
  EXPECT_EQ(doc.str, "\xF0\x9F\x98\x80");
  // Highest pair: U+10FFFF.
  ASSERT_TRUE(ParseJson("\"\\uDBFF\\uDFFF\"", &doc, &error)) << error;
  EXPECT_EQ(doc.str, "\xF4\x8F\xBF\xBF");
}

TEST(JsonParseTest, RejectsBadUnicodeEscapes) {
  JsonValue doc;
  std::string error;
  for (const char* bad : {
           "\"\\u12\"",            // truncated hex
           "\"\\u12G4\"",          // non-hex digit
           "\"\\uD800\"",          // high surrogate, nothing after
           "\"\\uD800x\"",         // high surrogate, no \u follow-up
           "\"\\uD800\\n\"",       // high surrogate, wrong escape
           "\"\\uD800\\u0041\"",   // high surrogate + non-surrogate
           "\"\\uD800\\uD800\"",   // high + high
           "\"\\uDC00\"",          // lone low surrogate
           "\"\\uDFFF\\uDC00\"",   // low first
       }) {
    EXPECT_FALSE(ParseJson(bad, &doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(ReqTraceRingTest, SnapshotReturnsNewestFirst) {
  ReqTraceRing ring;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ReqTraceRecord rec;
    rec.trace_id = i;
    rec.exec_us = i * 10;
    ring.Push(rec);
  }
  EXPECT_EQ(ring.TotalPushed(), 5u);
  std::vector<ReqTraceRecord> recent = ring.SnapshotRecent(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].trace_id, 5u);
  EXPECT_EQ(recent[1].trace_id, 4u);
  EXPECT_EQ(recent[2].trace_id, 3u);
}

TEST(ReqTraceRingTest, WrapsAndKeepsOnlyTheLastCapacity) {
  ReqTraceRing ring;
  const std::uint64_t total = ReqTraceRing::kCapacity + 10;
  for (std::uint64_t i = 0; i < total; ++i) {
    ReqTraceRecord rec;
    rec.trace_id = i;
    ring.Push(rec);
  }
  EXPECT_EQ(ring.TotalPushed(), total);
  std::vector<ReqTraceRecord> recent =
      ring.SnapshotRecent(ReqTraceRing::kCapacity * 2);
  ASSERT_EQ(recent.size(), ReqTraceRing::kCapacity);
  EXPECT_EQ(recent.front().trace_id, total - 1);
  EXPECT_EQ(recent.back().trace_id, total - ReqTraceRing::kCapacity);
}

TEST(ReportTest, WindowsSectionCarriesSchemaMinor3) {
  ObsGuard guard;
  ResetAllWindowed();
  GetWindowedHistogram("obs_test.report_win").Record(9);
  std::string json = RenderRunReportJson();
  EXPECT_NE(json.find("\"schema_minor\":4"), std::string::npos);
  EXPECT_NE(json.find("\"windows\":"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.report_win\""), std::string::npos);
  EXPECT_NE(json.find("\"10s\""), std::string::npos);
  EXPECT_NE(json.find("\"60s\""), std::string::npos);
  // And the document as a whole parses with our own parser.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* windows = doc.Find("windows");
  ASSERT_NE(windows, nullptr);
  const JsonValue* win = windows->Find("obs_test.report_win");
  ASSERT_NE(win, nullptr);
  EXPECT_EQ(win->Find("60s")->U64("count"), 1u);
}

}  // namespace
}  // namespace gorder::obs

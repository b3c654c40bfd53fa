// Observability subsystem (ISSUE 2 tentpole): lock-free TraceSink,
// Chrome-trace export, metric exporters (Prometheus/JSON), sliding-window
// GCUPS, per-target counters, and the sampler tick.
//
// The concurrency tests here are the ThreadSanitizer targets of the tsan CI
// job: writers record into per-thread rings while a reader exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporters.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {
namespace {

// Minimal extractor for the flat JSON the exporters emit: the number that
// follows `"key":`.
uint64_t json_u64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return ~uint64_t{0};
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

TraceEvent make_event(const char* name, uint64_t trace_id, uint64_t ts_ns) {
  TraceEvent e;
  e.name = name;
  e.trace_id = trace_id;
  e.ts_ns = ts_ns;
  e.dur_ns = 10;
  return e;
}

TEST(TraceSink, RecordsAndSnapshotsInTimestampOrder) {
  TraceSink sink(64, 4);
  sink.record(make_event("b", 1, 200));
  sink.record(make_event("a", 1, 100));
  auto events = sink.snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_EQ(sink.recorded(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingWrapDropsOldestAndCounts) {
  TraceSink sink(8, 1);  // 8 slots, one thread
  for (uint64_t i = 0; i < 20; ++i)
    sink.record(make_event("e", 1, i));
  EXPECT_EQ(sink.recorded(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);  // 20 written - 8 live
  auto events = sink.snapshot_events();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().ts_ns, 12u);  // oldest survivor
  EXPECT_EQ(events.back().ts_ns, 19u);
}

TEST(TraceSink, ThreadsBeyondCapacityDropButCount) {
  TraceSink sink(16, 1);  // one thread slot only
  sink.record(make_event("main", 1, 1));  // claims the slot
  std::thread t([&] {
    for (int i = 0; i < 5; ++i) sink.record(make_event("evicted", 2, 10));
  });
  t.join();
  EXPECT_EQ(sink.snapshot_events().size(), 1u);
  EXPECT_EQ(sink.dropped(), 5u);
  EXPECT_EQ(sink.recorded(), 6u);
}

TEST(TraceSink, TraceIdsAreMonotone) {
  TraceSink sink;
  const uint64_t a = sink.next_trace_id();
  const uint64_t b = sink.next_trace_id();
  EXPECT_GT(a, 0u);
  EXPECT_EQ(b, a + 1);
}

TEST(TraceSink, ConcurrentWritersAndExportStayConsistent) {
  // TSan target: 4 writers wrap their rings while a reader exports
  // continuously. Every surviving event must read back intact.
  TraceSink sink(256, 8);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20'000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : sink.snapshot_events()) {
        ASSERT_STREQ(e.name, "w");
        ASSERT_EQ(e.dur_ns, e.ts_ns + 1);  // writer invariant, torn-proof
      }
      std::string json = sink.chrome_trace_json();
      ASSERT_NE(json.find("traceEvents"), std::string::npos);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        TraceEvent e;
        e.name = "w";
        e.trace_id = static_cast<uint64_t>(w) + 1;
        e.ts_ns = i;
        e.dur_ns = i + 1;
        e.cells = i;
        sink.record(e);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(sink.recorded(), kWriters * kPerWriter);
  // Final quiescent snapshot: the last 256 events of each writer survive.
  EXPECT_EQ(sink.snapshot_events().size(), kWriters * 256u);
}

TEST(Span, InactiveContextIsNoOp) {
  TraceContext inactive;  // no sink
  EXPECT_FALSE(inactive.active());
  Span span(inactive, "never");
  span.set_isa(simd::Isa::Avx2);
  span.set_width_bits(8);
  span.set_lanes(32);
  span.add_cells(1000);
  span.set_index(3);
  span.set_trunc(TruncCause::Deadline);
  span.end();  // nothing to record, nowhere to record it
}

TEST(Span, RecordsOnceWithAnnotations) {
  TraceSink sink;
  TraceContext ctx{&sink, 42};
  {
    Span span(ctx, "chunk.test");
    span.set_isa(simd::Isa::Avx2);
    span.set_width_bits(8);
    span.set_lanes(32);
    span.add_cells(500);
    span.add_cells(500);
    span.set_index(7);
    span.end();
    span.end();  // idempotent: destructor must not double-record either
  }
  auto events = sink.snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_STREQ(e.name, "chunk.test");
  EXPECT_EQ(e.trace_id, 42u);
  EXPECT_EQ(e.isa, simd::Isa::Avx2);
  EXPECT_EQ(e.width_bits, 8u);
  EXPECT_EQ(e.lanes, 32u);
  EXPECT_EQ(e.cells, 1000u);
  EXPECT_EQ(e.index, 7u);
  EXPECT_EQ(e.trunc, TruncCause::None);
}

TEST(TraceSink, ChromeTraceJsonShape) {
  TraceSink sink;
  TraceContext ctx{&sink, 9};
  {
    Span span(ctx, "annotated");
    span.set_isa(simd::Isa::Scalar);
    span.set_width_bits(16);
    span.set_lanes(64);
    span.add_cells(123);
    span.set_index(4);
    span.set_trunc(TruncCause::Cancelled);
  }
  // Recorded after the annotated span with a later start, so it sorts last
  // and the args-omission checks below can scan from its position onward.
  const uint64_t t0 = sink.now_ns();
  sink.record_span("bare", 9, t0, t0 + 100);
  std::string json = sink.chrome_trace_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"annotated\""), std::string::npos);
  EXPECT_NE(json.find("\"isa\":\"scalar\""), std::string::npos);
  EXPECT_NE(json.find("\"width_bits\":16"), std::string::npos);
  EXPECT_NE(json.find("\"lanes\":64"), std::string::npos);
  EXPECT_NE(json.find("\"cells\":123"), std::string::npos);
  EXPECT_NE(json.find("\"index\":4"), std::string::npos);
  EXPECT_NE(json.find("\"trunc\":\"cancelled\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  // The bare span omits every unset annotation: no isa/lanes in its args.
  const size_t bare = json.find("\"name\":\"bare\"");
  ASSERT_NE(bare, std::string::npos);
  EXPECT_EQ(json.find("\"isa\"", bare), std::string::npos);
  EXPECT_EQ(json.find("\"lanes\"", bare), std::string::npos);
  // Balanced braces => parseable (both exporters are brace-safe strings).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TruncCauseName, CoversAllCauses) {
  EXPECT_STREQ(trunc_cause_name(TruncCause::None), "none");
  EXPECT_STREQ(trunc_cause_name(TruncCause::Cancelled), "cancelled");
  EXPECT_STREQ(trunc_cause_name(TruncCause::Deadline), "deadline");
}

// ---------------------------------------------------------------- exporters

perf::MetricsSnapshot sample_snapshot() {
  perf::MetricsRegistry reg;
  reg.on_submitted();
  reg.on_submitted();
  reg.on_submitted();
  reg.on_rejected_queue_full();
  reg.on_queue_wait(50e-6);
  reg.on_queue_wait(120e-6);
  reg.on_completed(perf::MetricsRegistry::Scenario::Pairwise, 0.25, 1'000'000);
  reg.on_completed(perf::MetricsRegistry::Scenario::Search, 0.5, 2'000'000'000);
  reg.on_kernel_completed(simd::Isa::Avx2, perf::KernelVariant::Diagonal,
                          1'000'000);
  reg.on_kernel_completed(simd::Isa::Avx2, perf::KernelVariant::Batch32,
                          2'000'000'000);
  perf::MetricsSnapshot s = reg.snapshot();
  s.pool_threads = 4;
  s.pool_jobs = 12;
  s.pool_busy_seconds = 0.6;
  return s;
}

TEST(Exporters, PrometheusLinesAreWellFormed) {
  std::string prom = to_prometheus(sample_snapshot());
  // Every non-comment line is `name{labels} value` or `name value`.
  const std::regex line_re(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9].*$)");
  const std::regex comment_re(R"(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)");
  std::istringstream in(prom);
  std::string line;
  size_t samples = 0, comments = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment_re)) << line;
      ++comments;
    } else {
      EXPECT_TRUE(std::regex_match(line, line_re)) << line;
      ++samples;
    }
  }
  EXPECT_GT(samples, 20u);
  EXPECT_GT(comments, 20u);
}

TEST(Exporters, PrometheusCarriesCountersAndWindowGauge) {
  std::string prom = to_prometheus(sample_snapshot());
  EXPECT_NE(prom.find("swve_requests_submitted_total 3"), std::string::npos);
  EXPECT_NE(
      prom.find("swve_requests_failed_total{reason=\"queue_full\"} 1"),
      std::string::npos);
  EXPECT_NE(prom.find("swve_kernel_target_requests_total{isa=\"avx2\","
                      "kernel=\"diagonal\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_kernel_target_cells_total{isa=\"avx2\","
                      "kernel=\"batch32\"} 2000000000"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_gcups_window{window_s=\"60\"}"), std::string::npos);
  EXPECT_NE(prom.find("swve_queue_wait_seconds_count 2"), std::string::npos);
  EXPECT_NE(prom.find("swve_kernel_time_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pool_threads 4"), std::string::npos);
}

TEST(Exporters, JsonRoundTripsCounters) {
  perf::MetricsSnapshot s = sample_snapshot();
  std::string json = to_json(s);
  EXPECT_EQ(json_u64(json, "submitted"), s.submitted);
  EXPECT_EQ(json_u64(json, "completed"), s.completed);
  EXPECT_EQ(json_u64(json, "rejected_queue_full"), s.rejected_queue_full);
  EXPECT_EQ(json_u64(json, "pairwise"), s.pairwise);
  EXPECT_EQ(json_u64(json, "search"), s.search);
  EXPECT_EQ(json_u64(json, "cells"), s.cells);
  EXPECT_EQ(json_u64(json, "threads"), 4u);
  EXPECT_EQ(json_u64(json, "jobs"), 12u);
  EXPECT_NE(json.find("\"targets\":[{\"isa\":\"avx2\",\"kernel\":\"diagonal\""),
            std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Exporters, BuildInfoAndTraceAccounting) {
  perf::MetricsSnapshot s = sample_snapshot();
  s.trace_recorded = 10;
  s.trace_dropped_wrap = 3;
  s.trace_dropped_torn = 1;
  s.trace_dropped_overflow = 2;
  s.pmu_unavailable = 1;
  s.slow_requests = 4;

  BuildInfo info = build_info();
  EXPECT_NE(info.version[0], '\0');
  EXPECT_NE(info.isas[0], '\0');

  std::string prom = to_prometheus(s);
  EXPECT_NE(prom.find("swve_build_info{version=\""), std::string::npos);
  EXPECT_NE(prom.find("swve_trace_events_total 10"), std::string::npos);
  EXPECT_NE(prom.find("swve_trace_dropped_total{cause=\"wrap\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_trace_dropped_total{cause=\"torn\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_trace_dropped_total{cause=\"overflow\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pmu_unavailable 1"), std::string::npos);
  EXPECT_NE(prom.find("swve_slow_requests_total 4"), std::string::npos);

  std::string json = to_json(s);
  EXPECT_NE(json.find("\"build\":{\"version\":\""), std::string::npos);
  EXPECT_EQ(json_u64(json, "recorded"), 10u);
  EXPECT_EQ(json_u64(json, "dropped_wrap"), 3u);
  EXPECT_EQ(json_u64(json, "dropped_torn"), 1u);
  EXPECT_EQ(json_u64(json, "dropped_overflow"), 2u);
  EXPECT_EQ(json_u64(json, "unavailable"), 1u);
  EXPECT_EQ(json_u64(json, "slow_requests"), 4u);
}

// Regression: a hostile build identity (quotes, backslashes, a newline —
// all of which real __VERSION__ strings have contained pieces of) must
// come out as one well-formed exposition line, not break the scrape.
TEST(Exporters, PrometheusEscapesHostileBuildInfoLabels) {
  BuildInfo hostile;
  hostile.version = "1.0\"evil";
  hostile.compiler = "g++ (a \"b\") \\ 13.2\nsecond-line";
  hostile.isas = "scalar+avx2";
  const std::string prom =
      to_prometheus(sample_snapshot(), hostile);

  // The raw quote/backslash/newline are escaped per exposition 0.0.4.
  EXPECT_NE(prom.find("version=\"1.0\\\"evil\""), std::string::npos);
  EXPECT_NE(prom.find("compiler=\"g++ (a \\\"b\\\") \\\\ 13.2\\nsecond-line\""),
            std::string::npos);

  // The whole build_info family is still exactly one sample line that
  // matches the exposition grammar (the escaped value contains no raw
  // newline and no unescaped quote).
  std::istringstream in(prom);
  std::string line;
  size_t build_lines = 0;
  const std::regex line_re(
      R"(^swve_build_info\{[a-zA-Z_]+="([^"\\]|\\.)*"(,[a-zA-Z_]+="([^"\\]|\\.)*")*\} 1$)");
  while (std::getline(in, line)) {
    if (line.rfind("swve_build_info{", 0) != 0) continue;
    ++build_lines;
    EXPECT_TRUE(std::regex_match(line, line_re)) << line;
  }
  EXPECT_EQ(build_lines, 1u);

  EXPECT_EQ(prom_escape_label("plain"), "plain");
  EXPECT_EQ(prom_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prom_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prom_escape_label("a\nb"), "a\\nb");
}

TEST(Exporters, SloStatusRidesAlongInBothFormats) {
  SloStatus st;
  st.state = AlertState::Firing;
  st.instant = AlertState::Warning;
  st.latency_fast_burn = 20.5;
  st.latency_slow_burn = 18.25;
  st.availability_fast_burn = 1.5;
  st.availability_slow_burn = 0.75;
  st.evaluations = 42;
  st.transitions = 3;

  const std::string prom =
      to_prometheus(sample_snapshot(), build_info(), &st);
  EXPECT_NE(prom.find("swve_slo_state 2"), std::string::npos);
  EXPECT_NE(prom.find("swve_slo_burn_rate{objective=\"latency\","
                      "window=\"fast\"} 20.5"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_slo_burn_rate{objective=\"availability\","
                      "window=\"slow\"} 0.75"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_slo_transitions_total 3"), std::string::npos);
  // Without a status, no swve_slo family appears at all.
  EXPECT_EQ(to_prometheus(sample_snapshot()).find("swve_slo_"),
            std::string::npos);

  const std::string json = to_json(sample_snapshot(), &st);
  EXPECT_NE(json.find("\"slo\":{\"state\":\"firing\",\"instant\":"
                      "\"warning\""),
            std::string::npos);
  EXPECT_EQ(json_u64(json, "evaluations"), 42u);
  EXPECT_EQ(to_json(sample_snapshot()).find("\"slo\""), std::string::npos);
}

TEST(Exporters, QueryLengthBinsExportWhenPopulated) {
  perf::MetricsSnapshot s = sample_snapshot();
  s.query_length_bins[8] = 7;   // [256, 512)
  s.query_length_bins[0] = 2;
  const std::string prom = to_prometheus(s);
  EXPECT_NE(prom.find("swve_query_length_requests_total{min_residues="
                      "\"256\"} 7"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_query_length_requests_total{min_residues="
                      "\"0\"} 2"),
            std::string::npos);
  const std::string json = to_json(s);
  EXPECT_NE(json.find("\"query_length_bins\":[2,0,0,0,0,0,0,0,7,"),
            std::string::npos);
}

TEST(Exporters, PmuAttributionCellsInBothFormats) {
  perf::MetricsRegistry reg;
  perf::PmuSample span;
  span.samples = 1;
  span.wall_ns = 1'000'000;
  span.cycles = 3'000'000;
  span.instructions = 6'000'000;
  span.stall_backend = 750'000;
  span.llc_misses = 42;
  reg.on_pmu_sample(simd::Isa::Avx2, perf::KernelVariant::Diagonal, 16, span);
  reg.on_pmu_sample(simd::Isa::Avx2, perf::KernelVariant::Diagonal, 16, span);
  // Out-of-range targets must be dropped, not smeared into a cell.
  reg.on_pmu_sample(static_cast<simd::Isa>(99), perf::KernelVariant::Diagonal,
                    16, span);
  perf::MetricsSnapshot s = reg.snapshot();

  const perf::PmuSample& cell =
      s.pmu[static_cast<int>(simd::Isa::Avx2)][0]
           [perf::MetricsSnapshot::width_index(16)];
  EXPECT_EQ(cell.samples, 2u);
  EXPECT_DOUBLE_EQ(cell.ipc(), 2.0);
  EXPECT_DOUBLE_EQ(cell.backend_stall_fraction(), 0.25);
  EXPECT_EQ(s.pmu_total().samples, 2u);

  std::string prom = to_prometheus(s);
  EXPECT_NE(prom.find("swve_pmu_spans_total{isa=\"avx2\",kernel=\"diagonal\","
                      "width=\"16\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pmu_stall_cycles_total{isa=\"avx2\","
                      "kernel=\"diagonal\",width=\"16\",side=\"backend\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pmu_ipc{isa=\"avx2\",kernel=\"diagonal\","
                      "width=\"16\"} 2"),
            std::string::npos);

  std::string json = to_json(s);
  EXPECT_NE(json.find("\"pmu\":{\"unavailable\":0,\"cells\":[{\"isa\":\"avx2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"width\":16"), std::string::npos);
  EXPECT_NE(json.find("\"ipc\":2"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Exporters, InlineRunsRenderBesideSubmitted) {
  perf::MetricsRegistry reg;
  reg.on_submitted();
  reg.on_submitted();
  reg.on_inline_run();
  const perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.inline_runs, 1u);
  EXPECT_NE(s.to_string().find("submitted 2 (inline 1)"), std::string::npos);
  const std::string prom = to_prometheus(s);
  EXPECT_NE(prom.find("# TYPE swve_requests_inline_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_requests_inline_total 1\n"), std::string::npos);
  const std::string json = to_json(s);
  EXPECT_EQ(json_u64(json, "submitted"), 2u);
  EXPECT_EQ(json_u64(json, "inline_runs"), 1u);
}

TEST(Exporters, FormatSelection) {
  EXPECT_EQ(metrics_format_from_string("text"), MetricsFormat::Text);
  EXPECT_EQ(metrics_format_from_string("prom"), MetricsFormat::Prometheus);
  EXPECT_EQ(metrics_format_from_string("prometheus"),
            MetricsFormat::Prometheus);
  EXPECT_EQ(metrics_format_from_string("json"), MetricsFormat::Json);
  EXPECT_FALSE(metrics_format_from_string("xml").has_value());

  perf::MetricsSnapshot s = sample_snapshot();
  EXPECT_EQ(render_metrics(s, MetricsFormat::Text), s.to_string());
  EXPECT_EQ(render_metrics(s, MetricsFormat::Prometheus), to_prometheus(s));
  EXPECT_EQ(render_metrics(s, MetricsFormat::Json), to_json(s));
}

// ------------------------------------------------------------------ metrics

TEST(MetricsWindow, RecentWorkCountsTowardWindowGcups) {
  perf::MetricsRegistry reg;
  reg.on_completed(perf::MetricsRegistry::Scenario::Search, 0.5, 1'000'000'000);
  perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.window_cells, 1'000'000'000u);
  EXPECT_NEAR(s.window_kernel_seconds, 0.5, 1e-6);
  EXPECT_NEAR(s.window_gcups(), 2.0, 0.01);
  EXPECT_NEAR(s.window_gcups(), s.aggregate_gcups(), 0.01);  // all recent
}

TEST(MetricsTargets, OutOfRangeTargetIsIgnored) {
  perf::MetricsRegistry reg;
  reg.on_kernel_completed(static_cast<simd::Isa>(99),
                          perf::KernelVariant::Diagonal, 10);
  reg.on_kernel_completed(simd::Isa::Sse41, static_cast<perf::KernelVariant>(7),
                          10);
  perf::MetricsSnapshot s = reg.snapshot();
  for (int i = 0; i < perf::MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < perf::MetricsSnapshot::kKernelVariants; ++k)
      EXPECT_EQ(s.target_requests[i][k], 0u) << i << "," << k;
}

TEST(MetricsRegistry, ConcurrentRecordingIsRaceFree) {
  // TSan target: counters, window buckets, and histograms hammered from
  // several threads while another snapshots.
  perf::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      perf::MetricsSnapshot s = reg.snapshot();
      ASSERT_LE(s.pairwise + s.search + s.batch, s.completed);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        reg.on_submitted();
        reg.on_queue_wait(5e-6);
        reg.on_completed(perf::MetricsRegistry::Scenario::Pairwise, 1e-5, 100);
        reg.on_kernel_completed(simd::Isa::Avx2,
                                perf::KernelVariant::Diagonal, 100);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.completed, 20'000u);
  EXPECT_EQ(s.cells, 2'000'000u);
  EXPECT_EQ(s.target_requests[static_cast<int>(simd::Isa::Avx2)][0], 20'000u);
}

// ------------------------------------------------------------------ sampler

TEST(Sampler, CollectsBoundedChronologicalSeries) {
  // The sampler is a tick source: on_sample fires on the sampler thread
  // with a fresh snapshot, a strictly increasing time and a live probe.
  std::atomic<uint64_t> calls{0};
  std::mutex mu;
  std::vector<SamplerTick> ticks;
  std::vector<uint64_t> completed;
  SamplerOptions so;
  so.period_s = 0.005;
  so.freq_probe_ms = 0.5;
  so.on_sample = [&](const SamplerTick& t, const perf::MetricsSnapshot& m) {
    std::lock_guard<std::mutex> lk(mu);
    ticks.push_back(t);
    completed.push_back(m.completed);
  };
  Sampler sampler(so, [&] {
    perf::MetricsSnapshot s;
    s.completed = calls.fetch_add(1) + 1;
    return s;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.stop();
  sampler.stop();  // idempotent

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_EQ(ticks.size(), calls.load());  // one snapshot per tick
  for (size_t i = 1; i < ticks.size(); ++i) {
    EXPECT_GT(ticks[i].t_s, ticks[i - 1].t_s);
    EXPECT_GT(completed[i], completed[i - 1]);
  }
  EXPECT_GT(ticks.back().probe_ghz, 0.1);
  EXPECT_GE(ticks.back().cpufreq_ghz, 0.0);
}

}  // namespace
}  // namespace swve::obs

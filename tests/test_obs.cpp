// Observability subsystem (ISSUE 2 tentpole): lock-free TraceSink,
// Chrome-trace export, metric exporters (Prometheus/JSON), per-target
// counters, and the sampler tick.
//
// The concurrency tests here are the ThreadSanitizer targets of the tsan CI
// job: writers record into per-thread rings while a reader exports.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/json.hpp"
#include "obs/exporters.hpp"
#include "obs/slo.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "perf/metrics.hpp"
#include "sanitizers.hpp"

namespace swve::obs {
namespace {

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

// Resident set size now, as a signed quantity so deltas can be negative.
int64_t resident_bytes() {
  return static_cast<int64_t>(perf::read_process_memory().resident_bytes);
}

TEST(TraceSink, ConstructionTouchesNoRingMemory) {
  if (resident_bytes() == 0) GTEST_SKIP() << "no VmRSS on this platform";
  if (testing_support::kSanitizerAllocator)
    GTEST_SKIP() << "sanitizer shadow memory counts toward VmRSS";
  const int64_t before = resident_bytes();
  TraceSink sink(1 << 16, 64);  // 480 MiB of slots if built up front
  const int64_t built = resident_bytes();
  EXPECT_LT(built - before, int64_t{8} << 20);

  // The first record allocates one ring; 1000 events touch ~117 KiB of it.
  for (uint64_t i = 0; i < 1000; ++i) sink.record(make_event("e", 1, i));
  EXPECT_LT(resident_bytes() - built, int64_t{1} << 20);
  EXPECT_EQ(sink.snapshot_events().size(), 1000u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingAllocationFailureDropsAndCounts) {
  // A ring whose byte size overflows size_t is refused at construction.
  EXPECT_THROW(TraceSink sink(size_t{1} << 62), std::invalid_argument);
  EXPECT_THROW(TraceSink sink(std::numeric_limits<size_t>::max()),
               std::invalid_argument);
  if (testing_support::kSanitizerAllocator)
    GTEST_SKIP() << "sanitizer allocators abort instead of failing a request";

  // 2^44 slots (~2 PiB) fit size_t but no address space: the thread's
  // ring cannot be allocated, so its events are dropped and counted.
  TraceSink sink(size_t{1} << 44, 2);
  for (uint64_t i = 0; i < 5; ++i) sink.record(make_event("lost", 1, i));
  EXPECT_EQ(sink.overflow_dropped(), 5u);
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 5u);
  EXPECT_TRUE(sink.snapshot_events().empty());
  TraceEvent out[4];
  EXPECT_EQ(sink.read_events(out, 4), 0u);
  EXPECT_NE(sink.chrome_trace_json().find("\"dropped_events\":5"),
            std::string::npos);

  // A second thread tries its own ring and is counted the same way.
  std::thread t([&] { sink.record(make_event("lost", 2, 9)); });
  t.join();
  EXPECT_EQ(sink.overflow_dropped(), 6u);
}

TEST(TraceSink, ThreadsRegisterWhileExporting) {
  // TSan target: threads register, allocate their rings and record while
  // another thread runs every exporter. An exporter must never read a ring
  // its owner has not yet published.
  TraceSink sink(64, 32);
  constexpr int kWaves = 6;
  constexpr int kPerWave = 4;
  constexpr uint64_t kPerThread = 100;
  const int devnull = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(devnull, 0);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<TraceEvent> buf(kWaves * kPerWave * 64);
    while (!stop.load(std::memory_order_relaxed)) {
      for (const TraceEvent& e : sink.snapshot_events()) {
        ASSERT_STREQ(e.name, "r");
        ASSERT_EQ(e.dur_ns, e.ts_ns + 1);
      }
      const size_t n = sink.read_events(buf.data(), buf.size());
      for (size_t i = 0; i < n; ++i) ASSERT_STREQ(buf[i].name, "r");
      ASSERT_TRUE(sink.write_chrome_trace(devnull));
    }
  });
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kPerWave; ++w)
      writers.emplace_back([&] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          TraceEvent e = make_event("r", 1, i);
          e.dur_ns = i + 1;
          sink.record(e);
        }
      });
    for (auto& t : writers) t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  ::close(devnull);
  EXPECT_EQ(sink.recorded(), kWaves * kPerWave * kPerThread);
  EXPECT_EQ(sink.overflow_dropped(), 0u);
  // Quiescent: the last 64 events of every thread survive.
  EXPECT_EQ(sink.snapshot_events().size(), kWaves * kPerWave * 64u);
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
  reg.on_completed(perf::Scenario::Pairwise, 0.25, 1'000'000);
  reg.on_completed(perf::Scenario::Search, 0.5, 2'000'000'000);
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

std::string prometheus(const perf::MetricsSnapshot& s,
                       const SloStatus* slo = nullptr) {
  return render_metrics(s, MetricsFormat::Prometheus, slo);
}

net::Json json_doc(const perf::MetricsSnapshot& s,
                   const SloStatus* slo = nullptr,
                   const BuildInfo& build = build_info()) {
  const std::string text = render_metrics(s, MetricsFormat::Json, slo, build);
  auto doc = net::Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc ? *doc : net::Json();
}

/// Value of the series of a labeled JSON family whose `label` is `value`
/// (NaN when absent).
double labeled(const net::Json& family, const std::string& label,
               const std::string& value) {
  if (family.is_array())
    for (const net::Json& series : family.as_array())
      if (series[label].as_string() == value)
        return series["value"].as_number();
  return std::nan("");
}

/// Sum of a labeled JSON family's series.
double family_sum(const net::Json& family) {
  double sum = 0;
  if (family.is_array())
    for (const net::Json& series : family.as_array())
      sum += series["value"].as_number();
  return sum;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// One parsed exposition sample line.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;  ///< values unescaped
  std::string value;
};

std::optional<PromSample> parse_sample(const std::string& line) {
  PromSample s;
  size_t i = line.find_first_of("{ ");
  if (i == std::string::npos) return std::nullopt;
  s.name = line.substr(0, i);
  if (line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"')
        return std::nullopt;
      const std::string key = line.substr(i, eq - i);
      std::string value;
      size_t j = eq + 2;
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] != '\\') {
          value += line[j];
          continue;
        }
        if (++j == line.size()) return std::nullopt;
        value += line[j] == 'n' ? '\n' : line[j];
      }
      if (j == line.size()) return std::nullopt;
      s.labels[key] = value;
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i + 1 >= line.size() || line[i + 1] != ' ') return std::nullopt;
    ++i;
  }
  s.value = line.substr(i + 1);
  return s;
}

/// The family a sample or HELP/TYPE line belongs to (histogram series keep
/// their _bucket/_sum/_count suffix).
std::string family_of(const std::string& line) {
  if (line.rfind("# ", 0) == 0) {
    const size_t begin = line.find(' ', 2) + 1;
    return line.substr(begin, line.find(' ', begin) - begin);
  }
  return line.substr(0, line.find_first_of("{ "));
}

#include "recorded_exposition.inc"

// Families added since the recorded exposition: values that only JSON or
// /statusz carried before, now rendered in every format, the process
// memory gauges, and the gauges only /varz carried before.
const std::set<std::string> kAddedFamilies = {
    "swve_queue_depth",           "swve_sampler_probe_ghz",
    "swve_cpufreq_ghz",
    "swve_shard_sequences",       "swve_shard_batches_total",
    "swve_shard_useful_cells_total", "swve_shard_cycles_total",
    "swve_slo_instant_state",     "swve_slo_evaluations_total",
    "swve_process_resident_bytes", "swve_process_peak_resident_bytes"};

// Every family populated: PMU cells on two ISAs (so the AVX-512 frequency
// ratio is defined), two shards, all three tiers, several length bins and
// both request histograms. Fields are set directly, so the rendering is
// deterministic.
perf::MetricsSnapshot populated_snapshot() {
  using S = perf::MetricsSnapshot;
  S s;
  s.submitted = 1001;
  s.inline_runs = 17;
  s.completed = 960;
  s.rejected_queue_full = 11;
  s.deadline_expired = 7;
  s.invalid_request = 3;
  s.aborted = 2;
  s.pairwise = 500;
  s.search = 400;
  s.batch = 60;
  s.cells = 123'456'789'012;
  s.kernel_seconds = 41.123456789;
  const int avx2 = static_cast<int>(simd::Isa::Avx2);
  const int avx512 = static_cast<int>(simd::Isa::Avx512);
  s.target_requests[avx2][0] = 500;
  s.target_requests[avx512][1] = 460;
  s.target_cells[avx2][0] = 23'456'789'012;
  s.target_cells[avx512][1] = 100'000'000'000;
  s.batch_cells8 = 9'000'000'000;
  s.batch_useful_cells8 = 7'654'321'000;
  s.db_source = 1;
  s.db_map_bytes = 98'765'432;
  s.db_resident_bytes = 87'654'321;
  s.db_load_seconds = 0.0123456789;
  s.result_cache_hits = 250;
  s.result_cache_misses = 750;
  s.result_cache_evictions = 12;
  s.result_cache_entries = 64;
  s.coalesced = 31;
  s.server_connections = 44;
  s.server_active_connections = 5;
  s.server_frames_rx = 1200;
  s.server_frames_tx = 1190;
  s.server_bytes_rx = 4'567'890;
  s.server_bytes_tx = 12'345'678;
  s.server_protocol_errors = 4;
  s.server_http_scrapes = 21;
  for (int t = 0; t < S::kQosTiers; ++t) {
    for (int sc = 0; sc < S::kScenarios; ++sc)
      s.tier_requests[t][sc] = static_cast<uint64_t>(10 * t + sc + 1);
    perf::LatencyHistogram::Snapshot& h = s.tier_latency[t];
    h.buckets[3 + t] = 5;
    h.buckets[10 + t] = 2;
    h.count = 7;
    h.mean_s = 0.000321 * (t + 1);
    h.max_s = 0.0011 * (t + 1);
    h.p50_s = 0.00001 * (t + 1);
    h.p90_s = 0.0005 * (t + 1);
    h.p99_s = 0.001 * (t + 1);
  }
  s.query_length_bins[0] = 2;
  s.query_length_bins[6] = 40;
  s.query_length_bins[9] = 300;
  s.query_length_bins[15] = 1;
  s.log_records = 77;
  s.log_dropped_overflow = 3;
  s.log_dropped_threads = 2;
  s.log_suppressed = 9;
  s.pool_threads = 4;
  s.pool_jobs = 8800;
  s.pool_busy_seconds = 123.456789012;
  perf::PmuSample cell;
  cell.samples = 12;
  cell.wall_ns = 6'000'000;
  cell.cycles = 15'000'000;
  cell.instructions = 33'000'000;
  cell.stall_frontend = 1'500'000;
  cell.stall_backend = 4'500'000;
  cell.llc_misses = 420;
  cell.branch_misses = 99;
  s.pmu[avx2][0][S::width_index(8)] = cell;
  cell.samples = 30;
  cell.wall_ns = 9'000'000;
  cell.cycles = 18'000'000;
  cell.instructions = 52'000'000;
  cell.stall_frontend = 900'000;
  cell.stall_backend = 7'200'000;
  cell.llc_misses = 1300;
  cell.branch_misses = 45;
  s.pmu[avx512][1][S::width_index(16)] = cell;
  s.pmu_unavailable = 0;
  s.slow_requests = 6;
  s.shard_count = 2;
  for (uint32_t i = 0; i < 2; ++i) {
    S::ShardSample& sh = s.shards[i];
    sh.searches = 200 + i;
    sh.batches = 3000 + i;
    sh.cells = 40'000'000'000 + i;
    sh.useful_cells = 30'000'000'000 + i;
    sh.busy_seconds = 10.5 + i;
    sh.llc_misses = 5000 + i;
    sh.cycles = 60'000'000'000 + i;
    sh.queue_depth = i;
    sh.sequences = 1000 + i;
    sh.node = i == 0 ? 0 : -1;
    sh.threads = 2;
    sh.bound = i == 0 ? 1 : 0;
  }
  s.trace_recorded = 8192;
  s.trace_dropped_wrap = 100;
  s.trace_dropped_torn = 1;
  s.trace_dropped_overflow = 3;
  s.uptime_seconds = 3600.25;
  s.process_resident_bytes = 15'000'000;
  s.process_peak_resident_bytes = 30'000'000;
  s.queue_wait.count = 960;
  s.queue_wait.mean_s = 0.000045;
  s.queue_wait.max_s = 0.02;
  s.queue_wait.p50_s = 0.00003;
  s.queue_wait.p90_s = 0.00008;
  s.queue_wait.p99_s = 0.0009;
  s.queue_wait.buckets[4] = 600;
  s.queue_wait.buckets[6] = 350;
  s.queue_wait.buckets[15] = 10;
  s.kernel_time.count = 960;
  s.kernel_time.mean_s = 0.0428;
  s.kernel_time.max_s = 0.9;
  s.kernel_time.p50_s = 0.03;
  s.kernel_time.p90_s = 0.08;
  s.kernel_time.p99_s = 0.4;
  s.kernel_time.buckets[12] = 100;
  s.kernel_time.buckets[15] = 800;
  s.kernel_time.buckets[19] = 59;
  s.kernel_time.buckets[31] = 1;
  return s;
}

obs::SloStatus populated_slo() {
  obs::SloStatus st;
  st.state = obs::AlertState::Firing;
  st.instant = obs::AlertState::Warning;
  st.latency_fast_burn = 20.5;
  st.latency_slow_burn = 18.25;
  st.availability_fast_burn = 1.5;
  st.availability_slow_burn = 0.75;
  st.evaluations = 42;
  st.transitions = 3;
  return st;
}

obs::BuildInfo fixed_build() { return {"9.8.7", "cc 1.2 \"x\"", "scalar+avx2"}; }

/// Checks that `got` emits every line of `want` in order, and that any
/// other line belongs to an added family.
void expect_recorded_lines(const std::string& got,
                           const std::vector<std::string>& want) {
  size_t next = 0;
  for (const std::string& line : lines_of(got)) {
    if (next < want.size() && line == want[next]) {
      ++next;
      continue;
    }
    EXPECT_TRUE(kAddedFamilies.count(family_of(line)))
        << "unexpected line: " << line;
  }
  EXPECT_EQ(next, want.size())
      << "first recorded line missing or out of order: "
      << (next < want.size() ? want[next] : "");
}

TEST(Exporters, PrometheusMatchesRecordedExposition) {
  const perf::MetricsSnapshot s = populated_snapshot();
  const SloStatus slo = populated_slo();
  const std::vector<std::string> recorded = lines_of(kRecordedExposition);
  expect_recorded_lines(
      render_metrics(s, MetricsFormat::Prometheus, &slo, fixed_build()),
      recorded);

  // Without a status the swve_slo_* families are absent, the rest unchanged.
  std::vector<std::string> no_slo;
  for (const std::string& line : recorded)
    if (family_of(line).rfind("swve_slo_", 0) != 0) no_slo.push_back(line);
  const std::string plain =
      render_metrics(s, MetricsFormat::Prometheus, nullptr, fixed_build());
  EXPECT_EQ(plain.find("swve_slo_"), std::string::npos);
  expect_recorded_lines(plain, no_slo);
}

TEST(Exporters, JsonCarriesEveryPrometheusSample) {
  const perf::MetricsSnapshot s = populated_snapshot();
  const SloStatus slo = populated_slo();
  const std::string prom =
      render_metrics(s, MetricsFormat::Prometheus, &slo, fixed_build());
  const net::Json doc = json_doc(s, &slo, fixed_build());
  ASSERT_TRUE(doc.is_object());

  // Families: the TYPE lines, and their kind.
  std::map<std::string, std::string> types;
  for (const std::string& line : lines_of(prom))
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name = family_of(line);
      types[name.substr(5)] = line.substr(line.rfind(' ') + 1);
    }
  std::set<std::string> json_keys;
  for (const auto& [key, value] : doc.as_object()) json_keys.insert(key);
  std::set<std::string> prom_keys;
  for (const auto& [key, type] : types) prom_keys.insert(key);
  EXPECT_EQ(json_keys, prom_keys);

  // The JSON series of `key` whose labels are exactly `labels`.
  const auto find_series = [&](const std::string& key,
                               const std::map<std::string, std::string>&
                                   labels) -> const net::Json* {
    const net::Json& family = doc[key];
    if (labels.empty()) return &family;
    if (!family.is_array()) return nullptr;
    for (const net::Json& series : family.as_array()) {
      bool match = true;
      size_t label_fields = 0;
      for (const auto& [k, v] : series.as_object()) {
        if (!v.is_string()) continue;
        ++label_fields;
        const auto it = labels.find(k);
        match = match && it != labels.end() && it->second == v.as_string();
      }
      if (match && label_fields == labels.size()) return &series;
    }
    return nullptr;
  };

  std::map<std::string, size_t> prom_series;  // per family, sans histogram
  std::map<std::string, int> bucket_index;    // per histogram series
  for (const std::string& line : lines_of(prom)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sample = parse_sample(line);
    ASSERT_TRUE(sample.has_value()) << line;
    const double value = std::strtod(sample->value.c_str(), nullptr);
    std::string key = sample->name.substr(5);
    std::string part;  // histogram line kind
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string sfx = suffix;
      if (key.size() > sfx.size() &&
          key.compare(key.size() - sfx.size(), sfx.size(), sfx) == 0 &&
          types[key.substr(0, key.size() - sfx.size())] == "histogram") {
        key.resize(key.size() - sfx.size());
        part = sfx;
      }
    }
    auto labels = sample->labels;
    const std::string le = labels.count("le") ? labels["le"] : "";
    labels.erase("le");
    const net::Json* series = find_series(key, labels);
    ASSERT_NE(series, nullptr) << "no JSON series for " << line;
    if (part.empty()) {
      ++prom_series[key];
      const net::Json& v = labels.empty() ? *series : (*series)["value"];
      EXPECT_EQ(v.as_number(), value) << line;
    } else if (part == "_sum") {
      ++prom_series[key];
      EXPECT_EQ((*series)["sum"].as_number(), value) << line;
    } else if (part == "_count") {
      EXPECT_EQ((*series)["count"].as_number(), value) << line;
    } else {
      std::string id = key;
      for (const auto& [k, v] : labels) id += "," + k + "=" + v;
      const int i = bucket_index[id]++;
      const net::JsonArray& buckets = (*series)["buckets"].as_array();
      ASSERT_EQ(buckets.size(),
                static_cast<size_t>(perf::LatencyHistogram::kBuckets));
      double cum = 0;
      for (int b = 0; b <= i; ++b) cum += buckets[b].as_number();
      EXPECT_EQ(cum, value) << line;
      EXPECT_EQ(le == "+Inf", i == perf::LatencyHistogram::kBuckets - 1);
    }
  }
  // No JSON series without a Prometheus sample.
  for (const auto& [key, family] : doc.as_object())
    EXPECT_EQ(family.is_array() ? family.as_array().size() : 1u,
              prom_series[key])
        << key;
}

TEST(Exporters, TextIsPrometheusWithoutHeaders) {
  const perf::MetricsSnapshot s = populated_snapshot();
  std::string want;
  for (const std::string& line : lines_of(prometheus(s)))
    if (line.rfind('#', 0) != 0) want += line + "\n";
  EXPECT_EQ(render_metrics(s, MetricsFormat::Text), want);
}

// Regression: the exporter formatted each line into a 512-byte buffer, so a
// long build identity cut the swve_build_info line short and glued the next
// HELP line onto it.
TEST(Exporters, LongBuildInfoSurvivesEveryFormat) {
  std::string compiler;
  while (compiler.size() < 4096) compiler += "gcc \"x\" \\ ";
  compiler.resize(4096);
  const BuildInfo build{"1.0", compiler.c_str(), "scalar"};
  const perf::MetricsSnapshot s = sample_snapshot();

  const std::string prom =
      render_metrics(s, MetricsFormat::Prometheus, nullptr, build);
  size_t build_lines = 0;
  for (const std::string& line : lines_of(prom)) {
    if (line.find("swve_build_info") == std::string::npos) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP swve_build_info ", 0) == 0 ||
                  line == "# TYPE swve_build_info gauge")
          << line.substr(0, 200);
      continue;
    }
    ++build_lines;
    const auto sample = parse_sample(line);
    ASSERT_TRUE(sample.has_value()) << line.substr(0, 200);
    EXPECT_EQ(sample->name, "swve_build_info");
    EXPECT_EQ(sample->labels.at("compiler"), compiler);
    EXPECT_EQ(sample->value, "1");
  }
  EXPECT_EQ(build_lines, 1u);

  const net::Json doc = json_doc(s, nullptr, build);
  ASSERT_TRUE(doc["build_info"].is_array());
  EXPECT_EQ(doc["build_info"].as_array()[0]["compiler"].as_string(), compiler);
}

TEST(Exporters, PrometheusLinesAreWellFormed) {
  std::string prom = prometheus(sample_snapshot());
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
  std::string prom = prometheus(sample_snapshot());
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
  // A ratio family prints its lifetime value as a gauge.
  EXPECT_NE(prom.find("# TYPE swve_gcups_aggregate gauge"), std::string::npos);
  EXPECT_NE(prom.find("swve_queue_wait_seconds_count 2"), std::string::npos);
  EXPECT_NE(prom.find("swve_kernel_time_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pool_threads 4"), std::string::npos);
}

TEST(Exporters, JsonRoundTripsCounters) {
  perf::MetricsSnapshot s = sample_snapshot();
  const std::string text = render_metrics(s, MetricsFormat::Json);
  const net::Json doc = json_doc(s);
  EXPECT_EQ(doc["requests_submitted_total"].as_number(), s.submitted);
  EXPECT_EQ(family_sum(doc["requests_completed_total"]), s.completed);
  EXPECT_EQ(labeled(doc["requests_failed_total"], "reason", "queue_full"),
            s.rejected_queue_full);
  EXPECT_EQ(labeled(doc["requests_completed_total"], "scenario", "pairwise"),
            s.pairwise);
  EXPECT_EQ(labeled(doc["requests_completed_total"], "scenario", "search"),
            s.search);
  EXPECT_EQ(doc["kernel_cells_total"].as_number(), s.cells);
  EXPECT_EQ(doc["pool_threads"].as_number(), 4.0);
  EXPECT_EQ(doc["pool_jobs_total"].as_number(), 12.0);
  EXPECT_NE(text.find("\"kernel_target_requests_total\":[{\"isa\":\"avx2\","
                      "\"kernel\":\"diagonal\""),
            std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
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

  std::string prom = prometheus(s);
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

  const std::string text = render_metrics(s, MetricsFormat::Json);
  EXPECT_NE(text.find("\"build_info\":[{\"version\":\""), std::string::npos);
  const net::Json doc = json_doc(s);
  EXPECT_EQ(doc["trace_events_total"].as_number(), 10.0);
  EXPECT_EQ(labeled(doc["trace_dropped_total"], "cause", "wrap"), 3.0);
  EXPECT_EQ(labeled(doc["trace_dropped_total"], "cause", "torn"), 1.0);
  EXPECT_EQ(labeled(doc["trace_dropped_total"], "cause", "overflow"), 2.0);
  EXPECT_EQ(doc["pmu_unavailable"].as_number(), 1.0);
  EXPECT_EQ(doc["slow_requests_total"].as_number(), 4.0);
}

// Regression: a hostile build identity (quotes, backslashes, a newline —
// all of which real __VERSION__ strings have contained pieces of) must
// come out as one well-formed exposition line, not break the scrape.
TEST(Exporters, PrometheusEscapesHostileBuildInfoLabels) {
  BuildInfo hostile;
  hostile.version = "1.0\"evil";
  hostile.compiler = "g++ (a \"b\") \\ 13.2\nsecond-line";
  hostile.isas = "scalar+avx2";
  const std::string prom = render_metrics(
      sample_snapshot(), MetricsFormat::Prometheus, nullptr, hostile);

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

  const std::string prom = prometheus(sample_snapshot(), &st);
  EXPECT_NE(prom.find("swve_slo_state 2"), std::string::npos);
  EXPECT_NE(prom.find("swve_slo_burn_rate{objective=\"latency\","
                      "window=\"fast\"} 20.5"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_slo_burn_rate{objective=\"availability\","
                      "window=\"slow\"} 0.75"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_slo_transitions_total 3"), std::string::npos);
  // Without a status, no swve_slo family appears at all.
  EXPECT_EQ(prometheus(sample_snapshot()).find("swve_slo_"),
            std::string::npos);

  const net::Json doc = json_doc(sample_snapshot(), &st);
  EXPECT_EQ(doc["slo_state"].as_number(),
            static_cast<double>(AlertState::Firing));
  EXPECT_EQ(doc["slo_instant_state"].as_number(),
            static_cast<double>(AlertState::Warning));
  EXPECT_EQ(doc["slo_evaluations_total"].as_number(), 42.0);
  EXPECT_EQ(render_metrics(sample_snapshot(), MetricsFormat::Json)
                .find("\"slo_"),
            std::string::npos);
}

TEST(Exporters, QueryLengthBinsExportWhenPopulated) {
  perf::MetricsSnapshot s = sample_snapshot();
  s.query_length_bins[8] = 7;   // [256, 512)
  s.query_length_bins[0] = 2;
  const std::string prom = prometheus(s);
  EXPECT_NE(prom.find("swve_query_length_requests_total{min_residues="
                      "\"256\"} 7"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_query_length_requests_total{min_residues="
                      "\"0\"} 2"),
            std::string::npos);
  const std::string json = render_metrics(s, MetricsFormat::Json);
  EXPECT_NE(json.find("\"query_length_requests_total\":["
                      "{\"min_residues\":\"0\",\"value\":2},"
                      "{\"min_residues\":\"256\",\"value\":7}]"),
            std::string::npos);
}

TEST(Exporters, ProcessMemoryGaugesOnlyWhereKnown) {
  perf::MetricsSnapshot s = sample_snapshot();
  EXPECT_EQ(prometheus(s).find("swve_process_"), std::string::npos);
  EXPECT_EQ(render_metrics(s, MetricsFormat::Json).find("process_"),
            std::string::npos);

  s.process_resident_bytes = 12'345'678;
  s.process_peak_resident_bytes = 23'456'789;
  const std::string prom = prometheus(s);
  EXPECT_NE(prom.find("# TYPE swve_process_resident_bytes gauge\n"
                      "swve_process_resident_bytes 12345678\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE swve_process_peak_resident_bytes gauge\n"
                      "swve_process_peak_resident_bytes 23456789\n"),
            std::string::npos);
  const net::Json doc = json_doc(s);
  EXPECT_EQ(doc["process_resident_bytes"].as_number(), 12'345'678);
  EXPECT_EQ(doc["process_peak_resident_bytes"].as_number(), 23'456'789);

  // Where the platform reports them, the peak bounds the current size.
  const perf::ProcessMemory mem = perf::read_process_memory();
  if (mem.resident_bytes == 0) GTEST_SKIP() << "no VmRSS on this platform";
  EXPECT_GE(mem.peak_resident_bytes, mem.resident_bytes);
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

  std::string prom = prometheus(s);
  EXPECT_NE(prom.find("swve_pmu_spans_total{isa=\"avx2\",kernel=\"diagonal\","
                      "width=\"16\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pmu_stall_cycles_total{isa=\"avx2\","
                      "kernel=\"diagonal\",width=\"16\",side=\"backend\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_pmu_ipc{isa=\"avx2\",kernel=\"diagonal\","
                      "width=\"16\"} 2"),
            std::string::npos);

  std::string json = render_metrics(s, MetricsFormat::Json);
  EXPECT_NE(json.find("\"pmu_unavailable\":0,\"pmu_spans_total\":[{\"isa\":"
                      "\"avx2\""),
            std::string::npos);
  const net::Json doc = json_doc(s);
  EXPECT_EQ(labeled(doc["pmu_spans_total"], "width", "16"), 2.0);
  EXPECT_EQ(labeled(doc["pmu_ipc"], "width", "16"), 2.0);
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
  const std::string text = render_metrics(s, MetricsFormat::Text);
  EXPECT_NE(text.find("swve_requests_submitted_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("swve_requests_inline_total 1\n"), std::string::npos);
  const std::string prom = prometheus(s);
  EXPECT_NE(prom.find("# TYPE swve_requests_inline_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("swve_requests_inline_total 1\n"), std::string::npos);
  const net::Json doc = json_doc(s);
  EXPECT_EQ(doc["requests_submitted_total"].as_number(), 2.0);
  EXPECT_EQ(doc["requests_inline_total"].as_number(), 1.0);
}

TEST(Exporters, FormatSelection) {
  EXPECT_EQ(metrics_format_from_string("text"), MetricsFormat::Text);
  EXPECT_EQ(metrics_format_from_string("prom"), MetricsFormat::Prometheus);
  EXPECT_EQ(metrics_format_from_string("prometheus"),
            MetricsFormat::Prometheus);
  EXPECT_EQ(metrics_format_from_string("json"), MetricsFormat::Json);
  EXPECT_FALSE(metrics_format_from_string("xml").has_value());

  // The default build identity is the compiled-in one.
  perf::MetricsSnapshot s = sample_snapshot();
  for (MetricsFormat f :
       {MetricsFormat::Text, MetricsFormat::Prometheus, MetricsFormat::Json})
    EXPECT_EQ(render_metrics(s, f), render_metrics(s, f, nullptr, build_info()));
}

// ------------------------------------------------------------------ metrics

TEST(MetricsTargets, OutOfRangeTargetIsIgnored) {
  perf::MetricsRegistry reg;
  reg.on_kernel_completed(static_cast<simd::Isa>(99),
                          perf::KernelVariant::Diagonal, 10);
  reg.on_kernel_completed(simd::Isa::Avx2, static_cast<perf::KernelVariant>(7),
                          10);
  perf::MetricsSnapshot s = reg.snapshot();
  for (int i = 0; i < perf::MetricsSnapshot::kIsas; ++i)
    for (int k = 0; k < perf::MetricsSnapshot::kKernelVariants; ++k)
      EXPECT_EQ(s.target_requests[i][k], 0u) << i << "," << k;
}

TEST(MetricsRegistry, ConcurrentRecordingIsRaceFree) {
  // TSan target: counters and histograms hammered from
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
        reg.on_completed(perf::Scenario::Pairwise, 1e-5, 100);
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

TEST(MetricsRegistry, ShardedTotalsAreExactUnderConcurrency) {
  // More writer threads than owned shards: kThreadShards + 4 = 260 writers
  // for 256 shard indices, so those that find every index taken (at least
  // the last 4) record into the locked overflow shard. Every family the
  // service records is hammered while a reader snapshots; the summed totals
  // must come out exact.
  using Scenario = perf::Scenario;
  constexpr unsigned kWriters = perf::MetricsRegistry::kThreadShards + 4;
  constexpr uint64_t kIters = 2000, kTotal = kWriters * kIters;
  constexpr double kQueueS = 0x1p-17, kKernelS = 0x1p-15, kTierS = 0x1p-14;
  const auto us_of = [](double s) { return static_cast<uint64_t>(s * 1e6); };
  perf::PmuSample d;
  d.samples = 1;
  d.wall_ns = 1000;
  d.cycles = 7;
  d.instructions = 11;
  d.stall_frontend = 2;
  d.stall_backend = 3;
  d.llc_misses = 5;
  d.branch_misses = 1;

  perf::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const perf::MetricsSnapshot s = reg.snapshot();
      ASSERT_LE(s.pairwise + s.search + s.batch, s.completed);
      ASSERT_LE(s.completed, kTotal);
    }
  });
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const auto sc = static_cast<Scenario>(w % 3);
      for (uint64_t i = 0; i < kIters; ++i) {
        reg.on_query_length(100);
        reg.on_submitted();
        reg.on_inline_run();
        reg.on_queue_wait(kQueueS);
        reg.on_completed(sc, kKernelS, 100);
        reg.on_tier_completed(w % 3, sc, kTierS);
        reg.on_kernel_completed(simd::Isa::Avx2, perf::KernelVariant::Diagonal,
                                100);
        reg.on_pmu_sample(simd::Isa::Avx2, perf::KernelVariant::Diagonal, 16,
                          d);
        reg.on_frame_rx(10);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.submitted, kTotal);
  EXPECT_EQ(s.inline_runs, kTotal);
  EXPECT_EQ(s.completed, kTotal);
  EXPECT_EQ(s.pairwise + s.search + s.batch, kTotal);
  // Writer w records scenario and tier w % 3: 87, 87 and 86 writers.
  const auto writers_of = [&](unsigned r) {
    return (kWriters + 2 - r) / 3 * kIters;
  };
  EXPECT_EQ(s.pairwise, writers_of(0));
  EXPECT_EQ(s.search, writers_of(1));
  EXPECT_EQ(s.batch, writers_of(2));
  EXPECT_EQ(s.cells, kTotal * 100);
  EXPECT_EQ(s.query_length_bins[perf::MetricsSnapshot::length_bin_of(100)],
            kTotal);
  EXPECT_EQ(s.server_frames_rx, kTotal);
  EXPECT_EQ(s.server_bytes_rx, kTotal * 10);
  const auto avx2 = static_cast<int>(simd::Isa::Avx2);
  EXPECT_EQ(s.target_requests[avx2][0], kTotal);
  EXPECT_EQ(s.target_cells[avx2][0], kTotal * 100);

  // Histograms: exact counts and sums.
  const auto expect_hist = [&](const perf::LatencyHistogram::Snapshot& h,
                               uint64_t count, double seconds) {
    EXPECT_EQ(h.count, count);
    const uint64_t us = us_of(seconds);
    EXPECT_EQ(h.buckets[static_cast<size_t>(std::bit_width(us))], count);
    EXPECT_DOUBLE_EQ(h.mean_s, static_cast<double>(us) * 1e-6);
    EXPECT_DOUBLE_EQ(h.max_s, static_cast<double>(us) * 1e-6);
  };
  expect_hist(s.queue_wait, kTotal, kQueueS);
  expect_hist(s.kernel_time, kTotal, kKernelS);
  for (unsigned t = 0; t < 3; ++t) {
    expect_hist(s.tier_latency[t], writers_of(t), kTierS);
    EXPECT_EQ(s.tier_requests[t][t], writers_of(t));
  }

  // PMU attribution cell: exact sums of every field.
  const perf::PmuSample& c =
      s.pmu[avx2][0][perf::MetricsSnapshot::width_index(16)];
  EXPECT_EQ(c.samples, kTotal);
  EXPECT_EQ(c.wall_ns, kTotal * 1000);
  EXPECT_EQ(c.cycles, kTotal * 7);
  EXPECT_EQ(c.instructions, kTotal * 11);
  EXPECT_EQ(c.stall_frontend, kTotal * 2);
  EXPECT_EQ(c.stall_backend, kTotal * 3);
  EXPECT_EQ(c.llc_misses, kTotal * 5);
  EXPECT_EQ(c.branch_misses, kTotal);
  EXPECT_EQ(s.pmu_total().samples, kTotal);
}

TEST(MetricsRegistry, RecordsWhileEveryShardIndexIsHeld) {
  // Long-lived threads, one per owned shard, record once and stay alive, so
  // every index is held (by them or by this process's other threads). A
  // thread started then still records, on the overflow shard; once the
  // holders exit, a new thread owns a shard again. Totals stay exact.
  constexpr unsigned kShards = perf::MetricsRegistry::kThreadShards;
  perf::MetricsRegistry reg;
  std::latch held(kShards), release(1);
  std::vector<std::thread> holders;
  for (unsigned h = 0; h < kShards; ++h) {
    holders.emplace_back([&] {
      reg.on_submitted();
      held.count_down();
      release.wait();
    });
  }
  held.wait();

  const auto record_once = [&] {
    unsigned index = 0;
    std::thread([&] {
      reg.on_submitted();
      reg.on_completed(perf::Scenario::Search, 0x1p-15, 7);
      index = perf::detail::t_metrics_shard;
    }).join();
    return index;
  };
  EXPECT_GE(record_once(), kShards);
  perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.submitted, kShards + 1);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.search, 1u);

  release.count_down();
  for (auto& t : holders) t.join();
  EXPECT_LT(record_once(), kShards);
  s = reg.snapshot();
  EXPECT_EQ(s.submitted, kShards + 2);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.cells, 14u);
  EXPECT_EQ(s.kernel_time.count, 2u);
}

TEST(MetricsRegistry, ExitedThreadsHandTheirShardOn) {
  // Waves of short-lived recording threads, more of them in all than twice
  // the owned shards. Within a wave every thread records once and waits for
  // the others, so all of them are live together: a wave wider than
  // kThreadShards must put some threads on the overflow shard. An index
  // returns to the free list when its thread exits, so every thread of a
  // wave half that wide owns a shard (this process's other threads hold
  // fewer than half the indices). Totals stay exact, and a concurrent
  // reader never sees more scenario completions than completions.
  using Scenario = perf::Scenario;
  constexpr unsigned kShards = perf::MetricsRegistry::kThreadShards;
  constexpr unsigned kWaves[] = {kShards / 2, kShards + 5, kShards / 2,
                                 kShards + 9, kShards / 2};
  constexpr uint64_t kIters = 500;
  perf::MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const perf::MetricsSnapshot s = reg.snapshot();
      ASSERT_LE(s.pairwise + s.search + s.batch, s.completed);
    }
  });

  uint64_t threads = 0;
  for (const unsigned width : kWaves) {
    std::latch all_live(width);
    std::atomic<unsigned> overflowed{0};
    std::vector<std::thread> wave;
    for (unsigned w = 0; w < width; ++w) {
      wave.emplace_back([&, w] {
        const auto sc = static_cast<Scenario>(w % 3);
        for (uint64_t i = 0; i < kIters; ++i) {
          reg.on_submitted();
          reg.on_queue_wait(0x1p-17);
          reg.on_completed(sc, 0x1p-15, 100);
          reg.on_kernel_completed(simd::Isa::Avx2,
                                  perf::KernelVariant::Diagonal, 100);
          if (i == 0) {
            if (perf::detail::t_metrics_shard >= kShards) ++overflowed;
            all_live.arrive_and_wait();
          }
        }
      });
    }
    for (auto& t : wave) t.join();
    threads += width;
    if (width > kShards)
      EXPECT_GE(overflowed.load(), width - kShards) << "wave of " << width;
    else
      EXPECT_EQ(overflowed.load(), 0u) << "wave of " << width;
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  ASSERT_GT(threads, 2 * kShards);

  const uint64_t total = threads * kIters;
  const perf::MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.submitted, total);
  EXPECT_EQ(s.completed, total);
  EXPECT_EQ(s.pairwise + s.search + s.batch, total);
  EXPECT_EQ(s.cells, total * 100);
  EXPECT_EQ(s.queue_wait.count, total);
  EXPECT_EQ(s.kernel_time.count, total);
  EXPECT_EQ(s.target_requests[static_cast<int>(simd::Isa::Avx2)][0], total);
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

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "obs/pmu.hpp"
#include "obs/trace.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/gcups.hpp"
#include "perf/metrics.hpp"
#include "perf/table.hpp"
#include "perf/timer.hpp"
#include "perf/topdown.hpp"
#include "pmu_lane.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::perf {
namespace {

TEST(Gcups, Math) {
  EXPECT_DOUBLE_EQ(gcups(2'000'000'000ull, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(gcups(1'000'000'000ull, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(gcups(100, 0.0), 0.0);
  EXPECT_EQ(alignment_cells(100, 1000), 100'000u);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double s = sw.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
  sw.reset();
  EXPECT_LT(sw.seconds(), 0.015);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"name", "gcups"});
  t.row({"query1", Table::num(1.234, 2)});
  t.row({"a-much-longer-name", Table::num(10.5, 2)});
  std::ostringstream os;
  t.print(os);
  std::string text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.23"), std::string::npos);
  EXPECT_NE(text.find("10.50"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  // Every line has the same length (fixed-width columns).
  std::istringstream in(text);
  std::string line;
  size_t len = 0;
  while (std::getline(in, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Table, Helpers) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::integer(42), "42");
  EXPECT_EQ(Table::percent(0.123, 1), "12.3%");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.row({"only-one"});
  std::ostringstream os;
  EXPECT_NO_THROW(t.print(os));
}

TEST(FreqMonitor, SpinChainCountsAdds) {
  uint64_t sink = 1;
  EXPECT_EQ(spin_chain(1000, &sink), 8000u);
  EXPECT_NE(sink, 1u);
}

TEST(FreqMonitor, MeasuresPlausibleFrequency) {
  FreqSample s = measure_frequency(30);
  // Anything from a throttled VM to a boosted desktop core.
  EXPECT_GT(s.ghz, 0.2);
  EXPECT_LT(s.ghz, 10.0);
}

#if defined(__x86_64__)
// The spin kernel must count one cycle per add. An inline chain of
// dependent register-register adds timed here is the yardstick. Both sides
// take the best of ten short interleaved runs, so a preempted run on a busy
// host (a parallel ctest) cannot decide the comparison.
TEST(FreqMonitor, AgreesWithAnInlineAddChain) {
  auto inline_chain_ghz = [] {
    constexpr uint64_t kIters = uint64_t{1} << 20;
    uint64_t a = 0;
    const uint64_t b = 1;
    Stopwatch sw;
    for (uint64_t k = 0; k < kIters; ++k)
      asm volatile(
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
          "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\tadd %1, %0"
          : "+r"(a)
          : "r"(b));
    return static_cast<double>(8 * kIters) / sw.seconds() / 1e9;
  };
  double inline_ghz = 0, measured_ghz = 0;
  for (int run = 0; run < 10; ++run) {
    inline_ghz = std::max(inline_ghz, inline_chain_ghz());
    measured_ghz = std::max(measured_ghz, measure_frequency(3).ghz);
  }
  EXPECT_NEAR(measured_ghz / inline_ghz, 1.0, 0.10)
      << "measure_frequency " << measured_ghz << " GHz, inline chain "
      << inline_ghz << " GHz";
}
#endif

TEST(FreqMonitor, ScalingReportShape) {
  FreqScalingReport rep = frequency_scaling(2, 20);
  ASSERT_EQ(rep.threads.size(), 2u);
  EXPECT_EQ(rep.threads[0], 1);
  EXPECT_EQ(rep.threads[1], 2);
  for (double g : rep.ghz_mean) EXPECT_GT(g, 0.1);
  for (size_t i = 0; i < rep.ghz_min.size(); ++i)
    EXPECT_LE(rep.ghz_min[i], rep.ghz_mean[i] + 1e-9);
}

TEST(TopDown, FractionsAreSane) {
  ModelInputs model;
  model.instructions = 50'000'000;
  model.mem_bytes = 10'000'000;
  TopDownResult r = topdown_analyze(
      [] {
        volatile uint64_t x = 0;
        for (int i = 0; i < 50'000'000; ++i) x = x + 1;
      },
      model);
  EXPECT_GE(r.retiring, 0.0);
  EXPECT_LE(r.retiring, 1.0);
  EXPECT_GE(r.backend_bound, 0.0);
  EXPECT_LE(r.retiring + r.frontend_bound + r.bad_speculation + r.backend_bound,
            1.0 + 1e-6);
  EXPECT_NEAR(r.memory_bound + r.core_bound, r.backend_bound, 1e-9);
  EXPECT_FALSE(r.source.empty());
  EXPECT_GT(r.cycles, 0u);
}

// topdown_analyze reads obs::PmuSession, so it honours a forced state: the
// model answers under "off" and "eperm", the counters when they work, and
// the workload runs once on every path.
TEST(TopDown, FollowsPmuSessionState) {
  obs::PmuSession& pmu = obs::PmuSession::instance();
  struct RestoreLane {
    ~RestoreLane() {
      obs::PmuSession::instance().simulate_for_test(test::lane_pmu_mode());
    }
  } restore;
  ModelInputs model;
  model.instructions = 1'000'000;
  model.ghz = 2.0;               // no frequency probe
  model.memory_fraction = 0.1;   // no bandwidth sweep
  int runs = 0;
  const auto workload = [&runs] {
    ++runs;
    volatile uint64_t x = 0;
    for (int i = 0; i < 1'000'000; ++i) x = x + 1;
  };

  for (const char* mode : {"off", "eperm"}) {
    pmu.simulate_for_test(mode);
    runs = 0;
    const TopDownResult r = topdown_analyze(workload, model);
    EXPECT_EQ(r.source, "model") << mode;
    EXPECT_FALSE(r.hardware_counters) << mode;
    EXPECT_GT(r.cycles, 0u) << mode;
    EXPECT_EQ(runs, 1) << mode;
  }

  pmu.simulate_for_test(nullptr);  // probe the real hardware
  runs = 0;
  const TopDownResult r = topdown_analyze(workload, model);
  EXPECT_EQ(runs, 1);
  if (pmu.available()) {
    EXPECT_EQ(r.source, "perf_event");
    EXPECT_TRUE(r.hardware_counters);
    EXPECT_GT(r.cycles, 0u);
  } else {
    EXPECT_EQ(r.source, "model") << pmu.unavailable_reason();
  }
}

TEST(TopDown, StreamingBandwidthPositive) {
  double bw = streaming_bandwidth_gbps();
  EXPECT_GT(bw, 0.5);
  EXPECT_LT(bw, 1000.0);
  EXPECT_DOUBLE_EQ(bw, streaming_bandwidth_gbps());  // cached
}

// ---------------------------------------------------------------------------
// LatencyHistogram bucket semantics: bucket 0 is [0, 1us); bucket i >= 1 is
// [2^(i-1), 2^i) us; the last bucket saturates.

TEST(LatencyHistogram, BucketBoundaries) {
  LatencyHistogram h;
  h.record(0.0);          // 0 us -> bucket 0
  h.record(0.5e-6);       // 0.5 us -> bucket 0
  h.record(1e-6);         // exactly 1 us -> bucket 1 ([1, 2) us)
  h.record(2e-6);         // 2 us -> bucket 2 ([2, 4) us)
  h.record(1024e-6);      // 2^10 us -> bucket 11
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[11], 1u);
  EXPECT_EQ(s.count, 5u);
}

TEST(LatencyHistogram, SaturatesAtLastBucket) {
  LatencyHistogram h;
  h.record(1e5);   // ~28 hours: far beyond 2^30 us
  h.record(1e9);   // absurd, must still land in the last bucket
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.buckets[LatencyHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(s.count, 2u);
}

TEST(LatencyHistogram, PercentilesInterpolateWithinBucket) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(3e-6);  // all in bucket 2: [2,4) us
  LatencyHistogram::Snapshot s = h.snapshot();
  // The raw bucket upper bound would report 4 us; log-linear interpolation
  // keeps every percentile strictly inside the bucket.
  EXPECT_GT(s.p50_s, 2e-6);
  EXPECT_LT(s.p50_s, 4e-6);
  EXPECT_NEAR(s.p50_s, 2e-6 * std::exp2(0.5), 0.1e-6);  // ~2.83 us
  // p99 interpolates high in the bucket but is clamped to the observed max.
  EXPECT_LE(s.p99_s, s.max_s + 1e-12);
  EXPECT_GE(s.p99_s, s.p50_s);
}

TEST(LatencyHistogram, PercentileClampedToObservedMax) {
  LatencyHistogram h;
  h.record(5e-6);  // lone sample in bucket 3 ([4, 8) us)
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_LE(s.p99_s, 5e-6 + 1e-12);  // never above the max, despite 8us bound
}

// Snapshot window algebra: subtract() carves out the samples recorded
// between two snapshots of one histogram; merge() folds disjoint
// histograms (e.g. tiers) together. Both recompute percentiles with the
// same interpolation live snapshots use.

TEST(LatencyHistogram, SnapshotSubtractIsolatesTheWindow) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.record(3e-6);  // bucket 2
  LatencyHistogram::Snapshot before = h.snapshot();
  for (int i = 0; i < 5; ++i) h.record(100e-6);  // bucket 7: [64, 128) us
  LatencyHistogram::Snapshot after = h.snapshot();

  LatencyHistogram::Snapshot d =
      LatencyHistogram::Snapshot::subtract(after, before);
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.buckets[2], 0u);  // the old samples cancel out
  EXPECT_EQ(d.buckets[7], 5u);
  // Window percentiles come from the window's only bucket, not the
  // lifetime distribution (whose p50 is still in bucket 2).
  EXPECT_GT(d.p50_s, 64e-6);
  EXPECT_LE(d.p50_s, 128e-6);
  EXPECT_NEAR(d.mean_s, 100e-6, 1e-9);
}

TEST(LatencyHistogram, SnapshotSubtractEmptyWindowIsZero) {
  LatencyHistogram h;
  h.record(3e-6);
  LatencyHistogram::Snapshot s = h.snapshot();
  LatencyHistogram::Snapshot d = LatencyHistogram::Snapshot::subtract(s, s);
  EXPECT_EQ(d.count, 0u);
  EXPECT_DOUBLE_EQ(d.p50_s, 0.0);
  EXPECT_DOUBLE_EQ(d.p99_s, 0.0);
  EXPECT_DOUBLE_EQ(d.mean_s, 0.0);
}

TEST(LatencyHistogram, SnapshotSubtractClampsNonMonotonePairs) {
  LatencyHistogram small, big;
  small.record(3e-6);
  for (int i = 0; i < 4; ++i) big.record(3e-6);
  // "now" has fewer samples than "prev" (counter reset / mixed-up
  // histograms): per-bucket clamp to zero, never underflow.
  LatencyHistogram::Snapshot d = LatencyHistogram::Snapshot::subtract(
      small.snapshot(), big.snapshot());
  EXPECT_EQ(d.count, 0u);
  for (uint64_t b : d.buckets) EXPECT_EQ(b, 0u);
}

TEST(LatencyHistogram, SnapshotMergeIsCountWeighted) {
  LatencyHistogram a, b;
  for (int i = 0; i < 3; ++i) a.record(2e-6);
  for (int i = 0; i < 1; ++i) b.record(1000e-6);
  LatencyHistogram::Snapshot m = LatencyHistogram::Snapshot::merge(
      a.snapshot(), b.snapshot());
  EXPECT_EQ(m.count, 4u);
  EXPECT_EQ(m.buckets[2], 3u);
  EXPECT_EQ(m.buckets[10], 1u);  // 1000 us: [512, 1024) us
  EXPECT_NEAR(m.mean_s, (3 * 2e-6 + 1 * 1000e-6) / 4.0, 1e-9);
  EXPECT_NEAR(m.max_s, 1000e-6, 1e-12);
  EXPECT_GE(m.p99_s, m.p50_s);  // percentiles recomputed over the union
}

TEST(LatencyHistogram, CountOverIsExactAtBucketBoundaries) {
  LatencyHistogram h;
  h.record(0.5e-6);   // bucket 0, upper 1us
  h.record(100e-6);   // bucket 8, upper 128us
  h.record(5000e-6);  // bucket 13, upper 8192us
  LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count_over(0.0), 3u);
  EXPECT_EQ(s.count_over(1e-6), 2u);     // bucket 0 ends exactly here
  EXPECT_EQ(s.count_over(128e-6), 1u);   // bucket 8 ends exactly here
  EXPECT_EQ(s.count_over(64e-6), 2u);    // inside bucket 8: conservative
  EXPECT_EQ(s.count_over(1.0), 0u);
}

TEST(MetricsDelta, CounterHelpersShareOneDefinition) {
  EXPECT_EQ(counter_delta(10, 4), 6u);
  EXPECT_EQ(counter_delta(4, 10), 0u);  // reset clamps, never wraps
}

TEST(MetricsDelta, QueryLengthBinsMatchPackingRegimes) {
  using S = MetricsSnapshot;
  EXPECT_EQ(S::length_bin_of(0), 0);
  EXPECT_EQ(S::length_bin_of(1), 0);
  EXPECT_EQ(S::length_bin_of(2), 1);
  EXPECT_EQ(S::length_bin_of(3), 1);
  EXPECT_EQ(S::length_bin_of(4), 2);
  EXPECT_EQ(S::length_bin_of(320), 8);      // [256, 512)
  EXPECT_EQ(S::length_bin_of(32768), S::kLengthBins - 1);
  EXPECT_EQ(S::length_bin_of(1u << 30), S::kLengthBins - 1);  // saturates
  EXPECT_EQ(S::length_bin_lower(0), 0u);
  EXPECT_EQ(S::length_bin_lower(1), 2u);
  EXPECT_EQ(S::length_bin_lower(8), 256u);
  EXPECT_EQ(S::length_bin_lower(S::kLengthBins - 1), 32768u);
}

// ---------------------------------------------------------------------------
// Pay-for-what-you-use tracing: a traced pairwise request returns a
// bit-identical alignment to an untraced one.

TEST(TracingOverhead, TracedPairwiseIsBitIdentical) {
  seq::Sequence q = seq::generate_sequence(404, 150);
  seq::Sequence r = seq::generate_sequence(405, 220);

  auto run = [&](obs::TraceSink* sink) {
    service::ServiceOptions opt;
    opt.obs.trace_sink = sink;
    service::AlignService svc(opt);
    service::AlignRequest rq;
    rq.query = q;
    rq.reference = r;
    rq.options.traceback = true;
    return service::submit_future(svc, std::move(rq)).get().value();
  };

  obs::TraceSink sink;
  service::AlignResponse traced = run(&sink);
  service::AlignResponse plain = run(nullptr);

  EXPECT_EQ(traced.alignment.score, plain.alignment.score);
  EXPECT_EQ(traced.alignment.end_query, plain.alignment.end_query);
  EXPECT_EQ(traced.alignment.end_ref, plain.alignment.end_ref);
  EXPECT_EQ(traced.alignment.begin_query, plain.alignment.begin_query);
  EXPECT_EQ(traced.alignment.begin_ref, plain.alignment.begin_ref);
  EXPECT_EQ(traced.alignment.cigar, plain.alignment.cigar);
  EXPECT_EQ(traced.alignment.width_used, plain.alignment.width_used);
  EXPECT_EQ(traced.alignment.isa_used, plain.alignment.isa_used);
  EXPECT_EQ(traced.alignment.stats.cells, plain.alignment.stats.cells);
  // The traced run actually recorded spans; the untraced one had no sink to
  // record into and its trace_id stays 0.
  EXPECT_GT(sink.recorded(), 0u);
  EXPECT_GT(traced.trace.trace_id, 0u);
  EXPECT_EQ(plain.trace.trace_id, 0u);
}

}  // namespace
}  // namespace swve::perf

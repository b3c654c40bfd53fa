// Telemetry history store + burn-rate SLO engine.
//
// The store is fed hand-built MetricsSnapshots so every window value in a
// point (read back from its /varz JSON) can be checked against arithmetic
// done here; the SLO tests drive the engine through the store exactly as
// the sampler hook does in production (push, then evaluate at the same
// timestamp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "net/json.hpp"
#include "obs/exporters.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "perf/metrics.hpp"
#include "seq/database.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::obs {
namespace {

using perf::LatencyHistogram;
using perf::MetricsSnapshot;

/// A snapshot whose counters are all simple functions of `scale`, so two
/// snapshots at different scales produce known deltas.
MetricsSnapshot scaled_snapshot(uint64_t scale) {
  MetricsSnapshot s;
  s.submitted = 110 * scale;
  s.completed = 100 * scale;
  s.pairwise = 100 * scale;
  s.rejected_queue_full = 4 * scale;
  s.deadline_expired = 3 * scale;
  s.invalid_request = 2 * scale;
  s.aborted = 1 * scale;
  s.cells = 2'000'000'000ull * scale;
  s.kernel_seconds = 1.0 * static_cast<double>(scale);
  s.result_cache_hits = 30 * scale;
  s.result_cache_misses = 10 * scale;
  s.log_dropped_overflow = 5 * scale;
  s.tier_requests[1][0] = 100 * scale;  // standard tier, pairwise
  LatencyHistogram h;
  for (uint64_t i = 0; i < 100 * scale; ++i) h.record(100e-6);
  s.tier_latency[1] = h.snapshot();
  s.query_length_bins[8] = 90 * scale;  // [256, 512) residues
  s.query_length_bins[5] = 10 * scale;
  s.pmu[1][0][0].samples = 10 * scale;
  s.pmu[1][0][0].wall_ns = 1'000'000 * scale;
  s.pmu[1][0][0].cycles = 3'000'000 * scale;
  s.pmu[1][0][0].instructions = 6'000'000 * scale;
  s.pmu[1][0][0].stall_backend = 300'000 * scale;
  return s;
}

/// The store's /varz document, parsed.
net::Json varz(const TimeSeriesStore& store,
               std::string_view series = {}) {
  std::string bad;
  const auto families = parse_family_keys(series, &bad);
  EXPECT_TRUE(families.has_value()) << bad;
  const std::string text = store.json(families.value_or(FamilySet{}));
  auto doc = net::Json::parse(text);
  EXPECT_TRUE(doc.has_value()) << text;
  return doc ? *doc : net::Json();
}

/// The newest point of the store's /varz document (null when empty).
net::Json newest(const TimeSeriesStore& store, std::string_view series = {}) {
  const net::Json doc = varz(store, series);
  const net::JsonArray& pts = doc["points"].as_array();
  return pts.empty() ? net::Json() : pts.back();
}

/// The series of a labeled family whose `label` is `value` (null if none).
const net::Json& labeled(const net::Json& family, const std::string& label,
                         const std::string& value) {
  static const net::Json kNone;
  for (const net::Json& s : family.as_array())
    if (s[label].as_string() == value) return s;
  return kNone;
}

/// Sum of a labeled family's values.
double sum_of(const net::Json& family) {
  double sum = 0;
  for (const net::Json& s : family.as_array()) sum += s["value"].as_number();
  return sum;
}

TEST(TimeSeries, FirstPushOnlySeedsTheBaseline) {
  TimeSeriesStore store({1.0, 16});
  store.push(scaled_snapshot(1), 10.0);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.points().empty());
  store.push(scaled_snapshot(2), 12.0);
  EXPECT_EQ(store.size(), 1u);
  const std::vector<TimeSeriesPoint> pts = store.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_DOUBLE_EQ(pts[0].t_s, 12.0);
  EXPECT_DOUBLE_EQ(pts[0].dt_s, 2.0);
}

TEST(TimeSeries, DeltasMatchHandComputedSnapshots) {
  TimeSeriesStore store({1.0, 16});
  store.push(scaled_snapshot(1), 0.0);
  MetricsSnapshot now = scaled_snapshot(3);
  now.queue_depth = 7;
  store.push(now, 2.0);

  const net::Json p = newest(store);
  ASSERT_TRUE(p.is_object());
  const double dt = p["dt_s"].as_number();
  EXPECT_DOUBLE_EQ(dt, 2.0);
  // scale 1 -> 3 over dt = 2 s: completions 100 -> 300 is 100/s.
  const double completed = sum_of(p["requests_completed_total"]);
  EXPECT_EQ(completed, 200);
  EXPECT_EQ(p["requests_submitted_total"].as_number(), 220);
  EXPECT_DOUBLE_EQ(completed / dt, 100.0);
  // failures = queue_full + deadline + invalid + aborted = 10 per scale.
  EXPECT_EQ(sum_of(p["requests_failed_total"]), 20);
  EXPECT_DOUBLE_EQ(sum_of(p["requests_failed_total"]) / dt, 10.0);
  // cache: hits 30 -> 90 (+60) of lookups 40 -> 120 (+80).
  const net::Json& lookups = p["result_cache_lookups_total"];
  EXPECT_EQ(labeled(lookups, "result", "hit")["value"].as_number(), 60);
  EXPECT_EQ(sum_of(lookups), 80);
  // gcups: +4e9 cells over +2 kernel-seconds, a window Ratio.
  EXPECT_DOUBLE_EQ(p["gcups_aggregate"].as_number(), 2.0);
  EXPECT_EQ(p["queue_depth"].as_number(), 7);
  EXPECT_EQ(sum_of(p["log_dropped_total"]), 10);
  // tier 1 (standard): 200 more requests over 2 s; its 100us window
  // latency is what the tier's subtracted histogram reports.
  EXPECT_DOUBLE_EQ(
      labeled(p["tier_requests_total"], "tier", "standard")["value"].as_number() /
          dt,
      100.0);
  const net::Json& standard =
      labeled(p["tier_latency_seconds"], "tier", "standard");
  EXPECT_EQ(standard["count"].as_number(), 200);
  EXPECT_GT(standard["p99_s"].as_number(), 64e-6);
  EXPECT_LE(standard["p99_s"].as_number(), 128e-6);
  // query lengths: bin [256, 512) gained 180, bin [32, 64) gained 20.
  const net::Json& lengths = p["query_length_requests_total"];
  EXPECT_EQ(labeled(lengths, "min_residues", "256")["value"].as_number(), 180);
  EXPECT_EQ(labeled(lengths, "min_residues", "32")["value"].as_number(), 20);
  // PMU cell delta: +4M instructions over +2M cycles -> IPC 2; each a
  // window Ratio of the cell's counter deltas.
  const std::string isa = simd::isa_name(static_cast<simd::Isa>(1));
  ASSERT_EQ(p["pmu_ipc"].as_array().size(), 1u);
  EXPECT_EQ(p["pmu_ipc"].as_array()[0]["isa"].as_string(), isa);
  EXPECT_EQ(labeled(p["pmu_spans_total"], "isa", isa)["value"].as_number(), 20);
  EXPECT_DOUBLE_EQ(labeled(p["pmu_ipc"], "isa", isa)["value"].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(
      labeled(p["pmu_backend_stall_fraction"], "isa", isa)["value"].as_number(),
      0.1);
  EXPECT_DOUBLE_EQ(
      labeled(p["pmu_effective_ghz"], "isa", isa)["value"].as_number(), 3.0);
}

TEST(TimeSeries, RingEvictsOldestAtCapacity) {
  TimeSeriesStore store({1.0, 3});
  for (uint64_t i = 1; i <= 6; ++i)
    store.push(scaled_snapshot(i), static_cast<double>(i));
  EXPECT_EQ(store.size(), 3u);  // 5 points made, capacity 3
  const std::vector<TimeSeriesPoint> pts = store.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts.front().t_s, 4.0);
  EXPECT_DOUBLE_EQ(pts.back().t_s, 6.0);
}

TEST(TimeSeries, WindowQueryFiltersOldPoints) {
  TimeSeriesStore store({1.0, 64});
  for (uint64_t i = 1; i <= 10; ++i)
    store.push(scaled_snapshot(i), static_cast<double>(i));
  EXPECT_EQ(store.points().size(), 9u);
  // Window 3 s back from the newest point (t = 10): t in [7, 10].
  EXPECT_EQ(store.points(3.0).size(), 4u);
  EXPECT_DOUBLE_EQ(store.points(3.0).front().t_s, 7.0);
}

TEST(TimeSeries, NonAdvancingClockReseedsInsteadOfDividingByZero) {
  TimeSeriesStore store({1.0, 16});
  store.push(scaled_snapshot(1), 5.0);
  store.push(scaled_snapshot(2), 5.0);  // same timestamp: reseed only
  EXPECT_EQ(store.size(), 0u);
  store.push(scaled_snapshot(3), 6.0);
  // The baseline is the scale-2 snapshot, not scale-1.
  EXPECT_EQ(sum_of(newest(store)["requests_completed_total"]), 100);
}

TEST(TimeSeries, CounterResetClampsToZero) {
  TimeSeriesStore store({1.0, 16});
  store.push(scaled_snapshot(5), 0.0);
  store.push(scaled_snapshot(1), 1.0);  // counters went backwards
  const net::Json p = newest(store);
  EXPECT_EQ(sum_of(p["requests_completed_total"]), 0);
  EXPECT_EQ(p["kernel_cells_total"].as_number(), 0);
  EXPECT_DOUBLE_EQ(p["gcups_aggregate"].as_number(), 0.0);
}

TEST(TimeSeries, SeriesNamesValidateAndSelect) {
  std::string bad;
  EXPECT_TRUE(parse_family_keys("requests_completed_total", &bad));
  EXPECT_TRUE(parse_family_keys("pmu_ipc", &bad));
  EXPECT_TRUE(parse_family_keys("query_length_requests_total", &bad));
  EXPECT_FALSE(parse_family_keys("qps,bogus", &bad));
  EXPECT_EQ(bad, "qps");  // the first unknown key
  EXPECT_FALSE(parse_family_keys("swve_queue_depth", &bad));  // keys, not names
  EXPECT_TRUE(parse_family_keys("", &bad)->all());

  TimeSeriesStore store({1.0, 16});
  store.push(scaled_snapshot(1), 0.0);
  store.push(scaled_snapshot(2), 1.0);
  const net::Json all = newest(store);
  EXPECT_TRUE(all["requests_completed_total"].is_array());
  EXPECT_TRUE(all["pmu_ipc"].is_array());
  EXPECT_TRUE(all["query_length_requests_total"].is_array());
  const net::Json only = newest(store, "requests_completed_total");
  EXPECT_TRUE(only["requests_completed_total"].is_array());
  EXPECT_TRUE(only["pmu_ipc"].is_null());
  EXPECT_TRUE(only["result_cache_lookups_total"].is_null());
  EXPECT_EQ(only.as_object().size(), 3u);  // t_s, dt_s and the family
  const net::Json two =
      newest(store, "requests_completed_total, result_cache_lookups_total");
  EXPECT_TRUE(two["requests_completed_total"].is_array());
  EXPECT_TRUE(two["result_cache_lookups_total"].is_array());
}

// TSan target: one pusher (the sampler role) racing readers (/varz
// scrapes and the SLO engine's slo_windows()); the store's mutex must make
// this clean.
TEST(TimeSeries, ConcurrentPushAndReadIsClean) {
  TimeSeriesStore store({1.0, 32});
  std::atomic<bool> stop{false};
  std::thread pusher([&] {
    for (uint64_t i = 1; i <= 2000; ++i)
      store.push(scaled_snapshot(i), static_cast<double>(i));
    stop.store(true, std::memory_order_release);
  });
  std::string bad;
  const FamilySet completions =
      *parse_family_keys("requests_completed_total", &bad);
  uint64_t reads = 0;
  while (!stop.load(std::memory_order_acquire)) {
    reads += store.slo_windows(8.0).size();
    reads += store.points(8.0).size();
    if ((reads & 63) == 0) (void)store.json(completions, 4.0);
    // Readers come and go (a scrape, a tick's evaluation); a reader that
    // never lets go of the lock would only starve the pusher.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  pusher.join();
  EXPECT_EQ(store.size(), 32u);
}

// ---------------------------------------------------------------------------
// /varz points against the family table

/// Label members of a JSON series (its string-valued fields).
std::map<std::string, std::string> labels_of(const net::Json& series) {
  std::map<std::string, std::string> out;
  if (series.is_object())
    for (const auto& [k, v] : series.as_object())
      if (v.is_string()) out[k] = v.as_string();
  return out;
}

/// The series of `family` labeled exactly like `like` (null if none; an
/// unlabeled family is its own series).
const net::Json* same_series(const net::Json& family, const net::Json& like) {
  if (!family.is_array()) return family.is_null() ? nullptr : &family;
  for (const net::Json& s : family.as_array())
    if (labels_of(s) == labels_of(like)) return &s;
  return nullptr;
}

/// A series' value: the number of an unlabeled family, or `value`.
double value_of(const net::Json& series) {
  return series.is_number() ? series.as_number() : series["value"].as_number();
}

TEST(Varz, PointIsTheFamilyTableWindow) {
  // Two snapshots of a live service (pairwise and searches between them),
  // pushed as two sampler ticks: the point between them must be each
  // family's window under its type's rule, against the JSON renderings of
  // the two snapshots.
  seq::SyntheticConfig cfg;
  cfg.seed = 7;
  cfg.target_residues = 30'000;
  cfg.max_length = 400;
  const seq::SequenceDatabase db = seq::SequenceDatabase::synthetic(cfg);
  service::ServiceOptions opt;
  opt.pool_threads = 2;
  opt.serve.telemetry_cadence_s = 0;  // this test is the sampler
  service::AlignService svc(db, opt);
  const auto run = [&](uint64_t seed) {
    service::SearchRequest rq;
    rq.query = seq::generate_sequence(seed, 120);
    ASSERT_TRUE(service::submit_future(svc, std::move(rq)).get().ok());
    service::AlignRequest pair;
    pair.query = seq::generate_sequence(seed + 1, 90);
    pair.reference = seq::generate_sequence(seed + 2, 110);
    ASSERT_TRUE(service::submit_future(svc, std::move(pair)).get().ok());
  };
  run(1);
  const MetricsSnapshot was = svc.metrics();
  for (uint64_t seed = 10; seed < 16; seed += 3) run(seed);
  const MetricsSnapshot now = svc.metrics();

  TimeSeriesStore store({1.0, 4});
  store.push(was, 1.0);
  store.push(now, 2.0);
  const net::Json point = newest(store);
  ASSERT_TRUE(point.is_object());
  const auto parse = [](const MetricsSnapshot& s) {
    return *net::Json::parse(render_metrics(s, MetricsFormat::Json));
  };
  const net::Json old_doc = parse(was), new_doc = parse(now);
  std::map<std::string, std::string> types;  // key -> Prometheus TYPE
  std::istringstream prom(render_metrics(now, MetricsFormat::Prometheus));
  for (std::string line; std::getline(prom, line);)
    if (line.rfind("# TYPE swve_", 0) == 0) {
      const size_t sp = line.find(' ', 12);
      types[line.substr(12, sp - 12)] = line.substr(sp + 1);
    }
  // Gauges whose window is a ratio of deltas, not the newer value.
  const std::set<std::string> ratios = {
      "gcups_aggregate",      "batch_packing_efficiency",
      "pool_utilization",     "pmu_ipc",
      "pmu_backend_stall_fraction", "pmu_frontend_stall_fraction",
      "pmu_effective_ghz",    "shard_gcups",
      "dedup_ratio"};

  size_t counters = 0, gauges = 0, histograms = 0;
  for (const auto& [key, family] : point.as_object()) {
    if (key == "t_s" || key == "dt_s") continue;
    ASSERT_FALSE(new_doc[key].is_null()) << key << " is not a family key";
    const std::vector<net::Json> series =
        family.is_array() ? family.as_array() : std::vector<net::Json>{family};
    for (const net::Json& s : series) {
      const net::Json* is = same_series(new_doc[key], s);
      ASSERT_NE(is, nullptr) << key << " " << s.dump();
      const net::Json* was_s = same_series(old_doc[key], s);
      const std::string& type = types[key];
      if (type == "histogram") {
        ++histograms;
        const double old_count = was_s ? (*was_s)["count"].as_number() : 0;
        EXPECT_EQ(s["count"].as_number(), (*is)["count"].as_number() - old_count)
            << key;
        const net::JsonArray& b = s["buckets"].as_array();
        for (size_t i = 0; i < b.size(); ++i)
          EXPECT_EQ(b[i].as_number(),
                    (*is)["buckets"].as_array()[i].as_number() -
                        (was_s ? (*was_s)["buckets"].as_array()[i].as_number() : 0))
              << key << " bucket " << i;
      } else if (type == "counter") {
        ++counters;
        // Exact for integers; a double counter prints at 6 or 9 significant
        // digits, so the difference of two renderings is that close.
        const double want = value_of(*is) - (was_s ? value_of(*was_s) : 0);
        EXPECT_NEAR(value_of(s), want, 1e-5 * value_of(*is))
            << key << " " << s.dump();
      } else if (ratios.count(key) == 0) {
        ++gauges;
        EXPECT_EQ(value_of(s), value_of(*is)) << key << " " << s.dump();
      }
    }
  }
  EXPECT_GT(counters, 20u);
  EXPECT_GT(gauges, 5u);
  EXPECT_GE(histograms, 3u);
  // A ratio is its counters' window ratio: GCUPS over the window's cells
  // and kernel seconds.
  const double cells = point["kernel_cells_total"].as_number();
  const double kernel_s = point["kernel_seconds_total"].as_number();
  ASSERT_GT(kernel_s, 0);
  EXPECT_NEAR(point["gcups_aggregate"].as_number(), cells / kernel_s / 1e9,
              1e-5 * point["gcups_aggregate"].as_number());
}

// ---------------------------------------------------------------------------
// SLO burn rates

/// Feed `store` one second of traffic per tick: `good` completions and
/// `bad` errors, each latency `lat_s`.
void feed(TimeSeriesStore& store, MetricsSnapshot& cum, double& t,
          uint64_t good, uint64_t bad, double lat_s = 100e-6,
          uint64_t lat_count = 0) {
  cum.completed += good;
  cum.pairwise += good;
  cum.aborted += bad;
  LatencyHistogram h;
  // Rebuild the cumulative tier histogram: carry the old buckets and add
  // this tick's samples.
  LatencyHistogram::Snapshot add;
  for (uint64_t i = 0; i < (lat_count ? lat_count : good); ++i)
    h.record(lat_s);
  add = h.snapshot();
  cum.tier_latency[1] =
      LatencyHistogram::Snapshot::merge(cum.tier_latency[1], add);
  t += 1.0;
  store.push(cum, t);
}

TEST(Slo, AvailabilityBurnMatchesHandMath) {
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 0;  // availability only
  opt.availability_objective = 0.999;
  opt.enter_evals = 1;
  opt.exit_evals = 1;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);  // baseline
  // 10% errors against a 0.1% budget: burn = 100.
  for (int i = 0; i < 5; ++i) feed(store, cum, t, 90, 10);
  const SloStatus st = eng.evaluate(t);
  EXPECT_NEAR(st.availability_fast_burn, 100.0, 1e-6);
  EXPECT_NEAR(st.availability_slow_burn, 100.0, 1e-6);
  EXPECT_EQ(st.instant, AlertState::Firing);
  EXPECT_EQ(st.state, AlertState::Firing);  // enter_evals = 1
  EXPECT_DOUBLE_EQ(st.latency_fast_burn, 0.0);
}

TEST(Slo, LatencyBurnCountsHistogramTail) {
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 1e-3;  // 1 ms
  opt.latency_objective = 0.99;
  opt.availability_objective = 0;  // latency only
  opt.enter_evals = 1;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);
  // Per tick: 90 requests at 100 us (fast), 10 at 5 ms (violations).
  for (int i = 0; i < 3; ++i) {
    feed(store, cum, t, 90, 0, 100e-6, 90);
    // Second push in the same tick would reseed; fold the slow samples
    // into the next tick instead:
    LatencyHistogram slow;
    for (int j = 0; j < 10; ++j) slow.record(5e-3);
    cum.tier_latency[1] = LatencyHistogram::Snapshot::merge(
        cum.tier_latency[1], slow.snapshot());
    cum.completed += 10;
  }
  store.push(cum, t + 0.5);  // flush the last tick's slow tail
  // Bad fraction ~0.1 against a 0.01 budget: burn ~10.
  const SloStatus st = eng.evaluate(t + 0.5);
  EXPECT_GT(st.latency_fast_burn, 5.0);
  EXPECT_LT(st.latency_fast_burn, 15.0);
  EXPECT_EQ(st.instant, AlertState::Warning);  // 6 <= burn < 14.4
  EXPECT_DOUBLE_EQ(st.availability_fast_burn, 0.0);
}

TEST(Slo, MultiWindowRequiresBothWindowsBurning) {
  // A burst that already ended: the fast window still sees only clean
  // traffic by the time it slides past, but the slow window remembers the
  // errors. min(fast, slow) must stay below threshold -> no alert.
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 0;
  opt.availability_objective = 0.999;
  opt.fast_window_s = 5;
  opt.slow_window_s = 60;
  opt.enter_evals = 1;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);
  for (int i = 0; i < 3; ++i) feed(store, cum, t, 50, 50);  // the burst
  for (int i = 0; i < 10; ++i) feed(store, cum, t, 100, 0);  // recovery
  const SloStatus st = eng.evaluate(t);
  EXPECT_DOUBLE_EQ(st.availability_fast_burn, 0.0);  // fast window clean
  EXPECT_GT(st.availability_slow_burn, 14.4);        // slow still burning
  EXPECT_EQ(st.instant, AlertState::Ok);
}

TEST(Slo, HysteresisEscalatesAfterConsecutiveEvals) {
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 0;
  opt.availability_objective = 0.999;
  opt.enter_evals = 2;
  opt.exit_evals = 3;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);
  feed(store, cum, t, 0, 100);  // 100% errors: burn 1000, instant firing
  SloStatus st = eng.evaluate(t);
  EXPECT_EQ(st.instant, AlertState::Firing);
  EXPECT_EQ(st.state, AlertState::Ok);  // 1 of 2 evals
  EXPECT_EQ(st.transitions, 0u);

  feed(store, cum, t, 0, 100);
  st = eng.evaluate(t);
  EXPECT_EQ(st.state, AlertState::Firing);  // 2nd consecutive: escalate
  EXPECT_EQ(st.transitions, 1u);
  EXPECT_DOUBLE_EQ(st.since_s, t);
}

TEST(Slo, HysteresisDeEscalatesAfterExitEvals) {
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 0;
  opt.availability_objective = 0.999;
  opt.fast_window_s = 2;  // short windows so recovery clears the burn
  opt.slow_window_s = 2;
  opt.enter_evals = 1;
  opt.exit_evals = 3;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);
  feed(store, cum, t, 0, 100);
  SloStatus st = eng.evaluate(t);
  ASSERT_EQ(st.state, AlertState::Firing);

  // Slide the errors fully out of the 2 s windows, then evaluate clean
  // ticks: instant drops to Ok, but the filtered state holds for
  // exit_evals - 1 more evaluations.
  for (int i = 0; i < 3; ++i) feed(store, cum, t, 100, 0);
  for (int i = 0; i < 2; ++i) {
    feed(store, cum, t, 100, 0);
    st = eng.evaluate(t);
    EXPECT_EQ(st.instant, AlertState::Ok);
    EXPECT_EQ(st.state, AlertState::Firing) << "eval " << i;
  }
  feed(store, cum, t, 100, 0);
  st = eng.evaluate(t);
  EXPECT_EQ(st.state, AlertState::Ok);  // 3rd consecutive clean eval
  EXPECT_EQ(st.transitions, 2u);
}

TEST(Slo, FlappingBurnDoesNotFlapTheAlert) {
  TimeSeriesStore store({1.0, 600});
  SloOptions opt;
  opt.latency_target_s = 0;
  opt.availability_objective = 0.999;
  opt.fast_window_s = 0.5;  // narrower than the tick spacing: each
  opt.slow_window_s = 0.5;  // evaluation sees only its own tick
  opt.enter_evals = 2;
  opt.exit_evals = 2;
  SloEngine eng(opt, &store);

  MetricsSnapshot cum;
  double t = 0;
  store.push(cum, t);
  // Alternate bad/clean seconds: neither severity ever gets 2 consecutive
  // evaluations, so the filtered state never leaves Ok.
  for (int i = 0; i < 8; ++i) {
    feed(store, cum, t, i % 2 ? 100 : 0, i % 2 ? 0 : 100);
    const SloStatus st = eng.evaluate(t);
    EXPECT_EQ(st.state, AlertState::Ok) << "tick " << i;
  }
  EXPECT_EQ(eng.status().transitions, 0u);
}

TEST(Slo, JsonCarriesStateAndBurns) {
  TimeSeriesStore store({1.0, 16});
  SloOptions opt;
  opt.latency_target_s = 0.25;
  SloEngine eng(opt, &store);
  eng.evaluate(1.0);
  const std::string j = eng.json();
  EXPECT_NE(j.find("\"state\":\"ok\""), std::string::npos);
  EXPECT_NE(j.find("\"target_ms\":250"), std::string::npos);
  EXPECT_NE(j.find("\"evaluations\":1"), std::string::npos);
}

}  // namespace
}  // namespace swve::obs

// Self-test of the benchmark's own arithmetic: percentile selection and the
// ten-samples-beyond rule (exact and from the latency histogram), generator
// determinism, and span self-time subtraction. Exits non-zero after
// reporting every failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota_samples(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  // p90 of 1..100: nearest rank 90, exactly ten samples beyond.
  auto p = percentile(iota_samples(100), 0.9);
  CHECK(p.rank == 90 && p.beyond == 10 && p.valid && near(p.value, 90));
  // One sample fewer leaves nine beyond: not a valid p90.
  p = percentile(iota_samples(99), 0.9);
  CHECK(p.beyond == 9 && !p.valid);
  // p99 needs a thousand samples.
  CHECK(percentile(iota_samples(1000), 0.99).valid);
  CHECK(!percentile(iota_samples(999), 0.99).valid);
  p = percentile(iota_samples(1000), 0.99);
  CHECK(p.rank == 990 && near(p.value, 990));
  // Median by nearest rank and by interpolation.
  CHECK(near(percentile(iota_samples(4), 0.5).value, 2));
  CHECK(near(perfbench::median(iota_samples(4)), 2.5));
  CHECK(near(perfbench::median(iota_samples(5)), 3));
  // Empty input: nothing valid.
  p = percentile({}, 0.5);
  CHECK(p.n == 0 && !p.valid);
  // Infinite samples (failed requests) rank last.
  std::vector<double> v = iota_samples(1000);
  v[0] = std::numeric_limits<double>::infinity();
  CHECK(std::isinf(percentile(v, 1.0).value));
  CHECK(std::isfinite(percentile(v, 0.99).value));
}

void test_histogram() {
  // The histogram picks the same rank as the exact percentile, and its
  // value stays within one bucket (0.07 %) of the sample at that rank.
  perfbench::Rng rng(3);
  std::vector<double> xs;
  perfbench::LatencyHistogram a, b;
  for (int i = 0; i < 5000; ++i) {
    const double s = 20e-6 * std::exp(4 * rng.uniform());  // 20 us .. 1 ms
    xs.push_back(s * 1e3);
    (i % 2 ? a : b).add(s);
  }
  a.merge(b);
  CHECK(a.count() == 5000);
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = perfbench::percentile(xs, p);
    const auto hist = a.percentile_ms(p);
    CHECK(hist.n == exact.n && hist.rank == exact.rank &&
          hist.beyond == exact.beyond && hist.valid == exact.valid);
    CHECK(std::fabs(hist.value / exact.value - 1) < 7e-4);
  }
  // p99.9 of 5000 leaves five beyond: not valid.
  CHECK(!a.percentile_ms(0.999).valid);
  perfbench::LatencyHistogram empty;
  CHECK(empty.percentile_ms(0.5).n == 0 && !empty.percentile_ms(0.5).valid);
  // Samples below the first bucket or past the last one are clamped, not
  // lost.
  perfbench::LatencyHistogram edge;
  edge.add(0);
  edge.add(1e6);
  CHECK(edge.count() == 2 && edge.percentile_ms(0.5).value < 1e-3);
  CHECK(edge.percentile_ms(1.0).value > 1e6);
}

void test_generators() {
  using perfbench::Rng;
  Rng a(7), b(7), c(8);
  const auto la = perfbench::stratified_log_uniform(a, 16, 64, 2048);
  const auto lb = perfbench::stratified_log_uniform(b, 16, 64, 2048);
  const auto lc = perfbench::stratified_log_uniform(c, 16, 64, 2048);
  CHECK(la == lb);
  CHECK(la != lc);
  // One length per stratum of [log 64, log 2048].
  std::vector<uint32_t> sorted = la;
  std::sort(sorted.begin(), sorted.end());
  for (size_t k = 0; k < sorted.size(); ++k) {
    const double lo = 64 * std::pow(32.0, static_cast<double>(k) / 16);
    const double hi = 64 * std::pow(32.0, static_cast<double>(k + 1) / 16);
    CHECK(sorted[k] + 1 >= lo && sorted[k] <= hi + 1);
  }

}

void test_self_time() {
  using perfbench::SpanRec;
  std::vector<SpanRec> spans = {
      {1, 0, "root", 0, 10},
      {2, 1, "a", 1, 3},
      {3, 1, "b", 2, 5},    // overlaps a: union [1, 5]
      {4, 1, "c", 7, 8},
      {5, 1, "d", 9, 12},   // sticks out: only [9, 10] counts
      {6, 2, "a.x", 1, 2},  // grandchild: subtracts from a, not root
  };
  const std::vector<double> self = perfbench::self_times(spans);
  CHECK(near(self[0], 10 - 4 - 1 - 1));  // 4
  CHECK(near(self[1], 2 - 1));
  CHECK(near(self[2], 3));
  CHECK(near(self[5], 1));
  const auto t = perfbench::span_times(spans, "root");
  CHECK(t.total.size() == 1 && near(t.total[0], 10) && near(t.self[0], 4));

  perfbench::Tracer tracer(true);
  const uint64_t root = tracer.reserve();
  tracer.add("child", 1, 2, root);
  tracer.add_reserved(root, "root", 0, 4);
  const auto u = perfbench::span_times(tracer.spans(), "root");
  CHECK(u.self.size() == 1 && near(u.self[0], 3));
  perfbench::Tracer off(false);
  CHECK(off.add("x", 0, 1) == 0 && off.spans().empty());
}

}  // namespace

int main() {
  test_percentile();
  test_generators();
  test_self_time();
  test_histogram();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}

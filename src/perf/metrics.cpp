#include "perf/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace swve::perf {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

// Bucket index for a microsecond sample: 0 for <1us, else 1+floor(log2(us)),
// clamped to the last bucket.
int bucket_of(uint64_t us) noexcept {
  if (us == 0) return 0;
  int b = std::bit_width(us);  // us in [2^(b-1), 2^b)
  return std::min(b, LatencyHistogram::kBuckets - 1);
}

// Percentile estimate over a bucket array: find the bucket the rank lands
// in, then interpolate log-linearly inside it (bucket 0, [0, 1us),
// interpolates linearly). The raw upper bound could overstate by up to 2x;
// the interpolated value is clamped to `max_s` so a lone sample never
// reports above it. Shared by live snapshots and by the recomputation in
// Snapshot::subtract / Snapshot::merge.
double bucket_percentile(
    const std::array<uint64_t, LatencyHistogram::kBuckets>& buckets,
    uint64_t count, double max_s, double q) noexcept {
  if (count == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
  uint64_t cum = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const uint64_t n = buckets[i];
    if (n > 0 && cum + n >= rank) {
      const double frac =
          static_cast<double>(rank - cum) / static_cast<double>(n);
      const double value =
          i == 0 ? frac * 1e-6
                 : LatencyHistogram::bucket_upper_seconds(i - 1) *
                       std::exp2(frac);
      return std::min(value, max_s);
    }
    cum += n;
  }
  return max_s;
}

void recompute_percentiles(LatencyHistogram::Snapshot& s) noexcept {
  s.p50_s = bucket_percentile(s.buckets, s.count, s.max_s, 0.50);
  s.p90_s = bucket_percentile(s.buckets, s.count, s.max_s, 0.90);
  s.p99_s = bucket_percentile(s.buckets, s.count, s.max_s, 0.99);
}

}  // namespace

const char* kernel_variant_name(KernelVariant v) noexcept {
  switch (v) {
    case KernelVariant::Diagonal: return "diagonal";
    case KernelVariant::Batch32: return "batch32";
  }
  return "?";
}

void LatencyHistogram::record(double seconds) noexcept {
  if (seconds < 0) seconds = 0;
  const uint64_t us = static_cast<uint64_t>(seconds * 1e6);
  buckets_[bucket_of(us)].fetch_add(1, kRelaxed);
  count_.fetch_add(1, kRelaxed);
  sum_us_.fetch_add(us, kRelaxed);
  uint64_t prev = max_us_.load(kRelaxed);
  while (us > prev && !max_us_.compare_exchange_weak(prev, us, kRelaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  Snapshot s;
  for (int i = 0; i < kBuckets; ++i) s.buckets[i] = buckets_[i].load(kRelaxed);
  s.count = count_.load(kRelaxed);
  s.max_s = static_cast<double>(max_us_.load(kRelaxed)) * 1e-6;
  if (s.count == 0) return s;
  s.mean_s = static_cast<double>(sum_us_.load(kRelaxed)) * 1e-6 /
             static_cast<double>(s.count);
  recompute_percentiles(s);
  return s;
}

uint64_t LatencyHistogram::Snapshot::count_over(double seconds) const noexcept {
  uint64_t over = 0;
  for (int i = 0; i < kBuckets; ++i)
    if (bucket_upper_seconds(i) > seconds) over += buckets[i];
  return over;
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::subtract(
    const Snapshot& now, const Snapshot& prev) noexcept {
  Snapshot d;
  for (int i = 0; i < kBuckets; ++i) {
    d.buckets[i] =
        now.buckets[i] >= prev.buckets[i] ? now.buckets[i] - prev.buckets[i]
                                          : 0;
    d.count += d.buckets[i];
  }
  if (d.count == 0) return d;  // empty window: all stats stay zero
  // Recover the interval's sample sum from the two means; clamp at zero so
  // a count reset cannot manufacture a negative mean.
  const double sum_now = now.mean_s * static_cast<double>(now.count);
  const double sum_prev = prev.mean_s * static_cast<double>(prev.count);
  d.mean_s = std::max(0.0, sum_now - sum_prev) / static_cast<double>(d.count);
  d.max_s = now.max_s;  // lifetime max: an upper bound for the window
  recompute_percentiles(d);
  return d;
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::merge(
    const Snapshot& a, const Snapshot& b) noexcept {
  Snapshot m;
  for (int i = 0; i < kBuckets; ++i) {
    m.buckets[i] = a.buckets[i] + b.buckets[i];
    m.count += m.buckets[i];
  }
  if (m.count == 0) return m;
  m.mean_s = (a.mean_s * static_cast<double>(a.count) +
              b.mean_s * static_cast<double>(b.count)) /
             static_cast<double>(m.count);
  m.max_s = std::max(a.max_s, b.max_s);
  recompute_percentiles(m);
  return m;
}

MetricsSnapshot MetricsRegistry::snapshot() const noexcept {
  MetricsSnapshot s;
  // Scenario counters first, completed_ after (see on_completed), so
  // pairwise + search + batch <= completed holds in every snapshot.
  s.pairwise = by_scenario_[0].load(std::memory_order_acquire);
  s.search = by_scenario_[1].load(std::memory_order_acquire);
  s.batch = by_scenario_[2].load(std::memory_order_acquire);
  s.submitted = submitted_.load(kRelaxed);
  s.inline_runs = inline_runs_.load(kRelaxed);
  s.completed = completed_.load(kRelaxed);
  s.rejected_queue_full = rejected_queue_full_.load(kRelaxed);
  s.deadline_expired = deadline_expired_.load(kRelaxed);
  s.invalid_request = invalid_request_.load(kRelaxed);
  s.aborted = aborted_.load(kRelaxed);
  s.cells = cells_.load(kRelaxed);
  s.kernel_seconds = static_cast<double>(kernel_ns_.load(kRelaxed)) * 1e-9;
  s.batch_cells8 = batch_cells8_.load(kRelaxed);
  s.batch_useful_cells8 = batch_useful_cells8_.load(kRelaxed);
  for (int i = 0; i < MetricsSnapshot::kIsas; ++i) {
    for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k) {
      s.target_requests[i][k] = target_requests_[i][k].load(kRelaxed);
      s.target_cells[i][k] = target_cells_[i][k].load(kRelaxed);
      for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
        const PmuCell& c = pmu_[i][k][w];
        PmuSample& o = s.pmu[i][k][w];
        o.samples = c.samples.load(kRelaxed);
        o.wall_ns = c.wall_ns.load(kRelaxed);
        o.cycles = c.cycles.load(kRelaxed);
        o.instructions = c.instructions.load(kRelaxed);
        o.stall_frontend = c.stall_frontend.load(kRelaxed);
        o.stall_backend = c.stall_backend.load(kRelaxed);
        o.llc_misses = c.llc_misses.load(kRelaxed);
        o.branch_misses = c.branch_misses.load(kRelaxed);
      }
    }
  }
  s.slow_requests = slow_requests_.load(kRelaxed);
  s.result_cache_hits = result_cache_hits_.load(kRelaxed);
  s.result_cache_misses = result_cache_misses_.load(kRelaxed);
  s.result_cache_evictions = result_cache_evictions_.load(kRelaxed);
  s.coalesced = coalesced_.load(kRelaxed);
  s.server_connections = server_connections_.load(kRelaxed);
  s.server_frames_rx = server_frames_rx_.load(kRelaxed);
  s.server_frames_tx = server_frames_tx_.load(kRelaxed);
  s.server_bytes_rx = server_bytes_rx_.load(kRelaxed);
  s.server_bytes_tx = server_bytes_tx_.load(kRelaxed);
  s.server_protocol_errors = server_protocol_errors_.load(kRelaxed);
  s.server_http_scrapes = server_http_scrapes_.load(kRelaxed);
  for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t) {
    for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
      s.tier_requests[t][sc] = tier_requests_[t][sc].load(kRelaxed);
    s.tier_latency[t] = tier_latency_[t].snapshot();
  }
  for (int b = 0; b < MetricsSnapshot::kLengthBins; ++b)
    s.query_length_bins[b] = query_length_bins_[b].load(kRelaxed);
  const uint64_t now_s = elapsed_s();
  uint64_t wcells = 0, wns = 0;
  for (const WindowBucket& b : window_) {
    const uint64_t e = b.epoch_s.load(kRelaxed);
    if (e != kNoEpoch && e <= now_s &&
        now_s - e < static_cast<uint64_t>(MetricsSnapshot::kWindowSeconds)) {
      wcells += b.cells.load(kRelaxed);
      wns += b.kernel_ns.load(kRelaxed);
    }
  }
  s.window_cells = wcells;
  s.window_kernel_seconds = static_cast<double>(wns) * 1e-9;
  s.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  s.queue_wait = queue_wait_.snapshot();
  s.kernel_time = kernel_time_.snapshot();
  return s;
}

ProcessMemory read_process_memory() noexcept {
  ProcessMemory m;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return m;
  char line[128];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kib) == 1)
      m.resident_bytes = kib << 10;
    else if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1)
      m.peak_resident_bytes = kib << 10;
  }
  std::fclose(f);
  return m;
}

}  // namespace swve::perf

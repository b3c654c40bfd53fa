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

std::string format_hist(const char* name, const LatencyHistogram::Snapshot& h) {
  std::string out = name;
  out += ": n=" + std::to_string(h.count);
  if (h.count > 0) {
    out += " mean=" + format_seconds(h.mean_s);
    out += " p50=" + format_seconds(h.p50_s);
    out += " p90=" + format_seconds(h.p90_s);
    out += " p99=" + format_seconds(h.p99_s);
    out += " max=" + format_seconds(h.max_s);
  }
  out += "\n";
  return out;
}

}  // namespace

std::string format_seconds(double s) {
  char buf[32];
  // Promote at the rounding seam of each unit: "%.0f" of 999.5us would
  // print "1000us" and "%.2f" of 999.995ms would print "1000.00ms".
  if (s < 0.9995e-3)
    std::snprintf(buf, sizeof buf, "%.0fus", s * 1e6);
  else if (s < 0.999995)
    std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  return buf;
}

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

std::string MetricsSnapshot::to_string() const {
  std::string out;
  out += "== swve service metrics ==\n";
  out += "requests: submitted " + std::to_string(submitted) + ", completed " +
         std::to_string(completed) + ", rejected(queue-full) " +
         std::to_string(rejected_queue_full) + ", deadline-expired " +
         std::to_string(deadline_expired) + ", invalid " +
         std::to_string(invalid_request) + ", aborted " +
         std::to_string(aborted) + "\n";
  out += "scenarios: pairwise " + std::to_string(pairwise) + ", search " +
         std::to_string(search) + ", batch " + std::to_string(batch) + "\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "kernel: %llu cells in %.3f s, aggregate %.2f GCUPS\n",
                static_cast<unsigned long long>(cells), kernel_seconds,
                aggregate_gcups());
  out += line;
  std::snprintf(line, sizeof line,
                "window(%ds): %llu cells in %.3f s, %.2f GCUPS\n",
                kWindowSeconds, static_cast<unsigned long long>(window_cells),
                window_kernel_seconds, window_gcups());
  out += line;
  for (int i = 0; i < kIsas; ++i) {
    for (int k = 0; k < kKernelVariants; ++k) {
      if (target_requests[i][k] == 0) continue;
      std::snprintf(line, sizeof line, "target %s/%s: %llu requests, %llu cells\n",
                    simd::isa_name(static_cast<simd::Isa>(i)),
                    kernel_variant_name(static_cast<KernelVariant>(k)),
                    static_cast<unsigned long long>(target_requests[i][k]),
                    static_cast<unsigned long long>(target_cells[i][k]));
      out += line;
    }
  }
  if (pmu_unavailable) {
    out += "pmu: unavailable (software-clock fallback)\n";
  }
  for (int i = 0; i < kIsas; ++i) {
    for (int k = 0; k < kKernelVariants; ++k) {
      for (int w = 0; w < kWidths; ++w) {
        const PmuSample& c = pmu[i][k][w];
        if (c.samples == 0 || c.cycles == 0) continue;
        std::snprintf(line, sizeof line,
                      "pmu %s/%s/w%u: %llu spans, ipc %.2f, stalls fe %.1f%% "
                      "be %.1f%%, %.2f GHz\n",
                      simd::isa_name(static_cast<simd::Isa>(i)),
                      kernel_variant_name(static_cast<KernelVariant>(k)),
                      width_bits_at(w),
                      static_cast<unsigned long long>(c.samples), c.ipc(),
                      100.0 * c.frontend_stall_fraction(),
                      100.0 * c.backend_stall_fraction(), c.effective_ghz());
        out += line;
      }
    }
  }
  if (const double ratio = avx512_frequency_ratio(); ratio > 0) {
    std::snprintf(line, sizeof line,
                  "pmu avx512 frequency ratio: %.2f%s\n", ratio,
                  ratio < 0.9 ? " (license throttling suspected)" : "");
    out += line;
  }
  if (slow_requests > 0) {
    out += "slow requests (SLO breaches): " + std::to_string(slow_requests) +
           "\n";
  }
  if (trace_recorded > 0) {
    std::snprintf(line, sizeof line,
                  "trace: %llu events recorded, dropped wrap %llu, torn %llu, "
                  "overflow %llu\n",
                  static_cast<unsigned long long>(trace_recorded),
                  static_cast<unsigned long long>(trace_dropped_wrap),
                  static_cast<unsigned long long>(trace_dropped_torn),
                  static_cast<unsigned long long>(trace_dropped_overflow));
    out += line;
  }
  if (batch_cells8 > 0) {
    std::snprintf(line, sizeof line,
                  "batch packing: %llu cells8, %llu useful, efficiency %.1f%%\n",
                  static_cast<unsigned long long>(batch_cells8),
                  static_cast<unsigned long long>(batch_useful_cells8),
                  100.0 * batch_packing_efficiency());
    out += line;
  }
  if (query_cache_hits + query_cache_misses + workspace_creates > 0) {
    std::snprintf(line, sizeof line,
                  "query-cache: %llu hits, %llu misses (%.1f%% hit), "
                  "%llu evictions, %llu entries, ws reuse %llu/%llu\n",
                  static_cast<unsigned long long>(query_cache_hits),
                  static_cast<unsigned long long>(query_cache_misses),
                  100.0 * query_cache_hit_rate(),
                  static_cast<unsigned long long>(query_cache_evictions),
                  static_cast<unsigned long long>(query_cache_entries),
                  static_cast<unsigned long long>(workspace_reuses),
                  static_cast<unsigned long long>(workspace_reuses +
                                                  workspace_creates));
    out += line;
  }
  if (pool_threads > 0) {
    std::snprintf(line, sizeof line,
                  "pool: %u threads, %llu jobs, busy %.3f s, utilization %.1f%%\n",
                  pool_threads, static_cast<unsigned long long>(pool_jobs),
                  pool_busy_seconds, 100.0 * pool_utilization());
    out += line;
  }
  if (server_connections > 0 || server_frames_rx > 0) {
    std::snprintf(line, sizeof line,
                  "server: %llu conns (%llu active), frames rx/tx %llu/%llu, "
                  "bytes rx/tx %llu/%llu, protocol errors %llu, scrapes %llu\n",
                  static_cast<unsigned long long>(server_connections),
                  static_cast<unsigned long long>(server_active_connections),
                  static_cast<unsigned long long>(server_frames_rx),
                  static_cast<unsigned long long>(server_frames_tx),
                  static_cast<unsigned long long>(server_bytes_rx),
                  static_cast<unsigned long long>(server_bytes_tx),
                  static_cast<unsigned long long>(server_protocol_errors),
                  static_cast<unsigned long long>(server_http_scrapes));
    out += line;
  }
  for (int t = 0; t < kQosTiers; ++t) {
    uint64_t total = 0;
    for (int sc = 0; sc < kScenarios; ++sc) total += tier_requests[t][sc];
    if (total == 0) continue;
    std::snprintf(line, sizeof line,
                  "tier %s: %llu requests (pairwise %llu, search %llu, "
                  "batch %llu), p50 %s, p99 %s\n",
                  qos_tier_label(t), static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(tier_requests[t][0]),
                  static_cast<unsigned long long>(tier_requests[t][1]),
                  static_cast<unsigned long long>(tier_requests[t][2]),
                  format_seconds(tier_latency[t].p50_s).c_str(),
                  format_seconds(tier_latency[t].p99_s).c_str());
    out += line;
  }
  {
    uint64_t qtotal = 0;
    for (int b = 0; b < kLengthBins; ++b) qtotal += query_length_bins[b];
    if (qtotal > 0) {
      out += "query lengths:";
      for (int b = 0; b < kLengthBins; ++b) {
        if (query_length_bins[b] == 0) continue;
        std::snprintf(line, sizeof line, " [>=%llu]=%llu",
                      static_cast<unsigned long long>(length_bin_lower(b)),
                      static_cast<unsigned long long>(query_length_bins[b]));
        out += line;
      }
      out += "\n";
    }
  }
  if (log_records + log_dropped_overflow + log_dropped_threads +
          log_suppressed >
      0) {
    std::snprintf(line, sizeof line,
                  "log: %llu records, dropped overflow %llu, threads %llu, "
                  "rate-limited %llu\n",
                  static_cast<unsigned long long>(log_records),
                  static_cast<unsigned long long>(log_dropped_overflow),
                  static_cast<unsigned long long>(log_dropped_threads),
                  static_cast<unsigned long long>(log_suppressed));
    out += line;
  }
  if (result_cache_hits + result_cache_misses + coalesced > 0) {
    std::snprintf(line, sizeof line,
                  "result-cache: %llu hits, %llu misses (%.1f%% hit), "
                  "%llu evictions, %llu entries; coalesced %llu "
                  "(dedup %.1f%%)\n",
                  static_cast<unsigned long long>(result_cache_hits),
                  static_cast<unsigned long long>(result_cache_misses),
                  100.0 * result_cache_hit_rate(),
                  static_cast<unsigned long long>(result_cache_evictions),
                  static_cast<unsigned long long>(result_cache_entries),
                  static_cast<unsigned long long>(coalesced),
                  100.0 * dedup_ratio());
    out += line;
  }
  out += format_hist("queue-wait", queue_wait);
  out += format_hist("kernel-time", kernel_time);
  return out;
}

}  // namespace swve::perf

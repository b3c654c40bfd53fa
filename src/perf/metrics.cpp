#include "perf/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <new>

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
// reports above it. Shared by live snapshots and by Snapshot::of_buckets.
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
    case KernelVariant::Column: return "column";
  }
  return "?";
}

void LatencyHistogram::record(double seconds) noexcept {
  if (seconds < 0) seconds = 0;
  const uint64_t us = static_cast<uint64_t>(seconds * 1e6);
  detail::owned_add(buckets_[bucket_of(us)]);
  detail::owned_add(count_);
  detail::owned_add(sum_us_, us);
  if (us > max_us_.load(kRelaxed)) max_us_.store(us, kRelaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  const LatencyHistogram* self = this;
  return sum({&self, 1});
}

LatencyHistogram::Snapshot LatencyHistogram::sum(
    std::span<const LatencyHistogram* const> parts) noexcept {
  Snapshot s;
  uint64_t sum_us = 0, max_us = 0;
  for (const LatencyHistogram* h : parts) {
    for (int i = 0; i < kBuckets; ++i)
      s.buckets[i] += h->buckets_[i].load(kRelaxed);
    s.count += h->count_.load(kRelaxed);
    sum_us += h->sum_us_.load(kRelaxed);
    max_us = std::max(max_us, h->max_us_.load(kRelaxed));
  }
  s.max_s = static_cast<double>(max_us) * 1e-6;
  if (s.count == 0) return s;
  s.mean_s = static_cast<double>(sum_us) * 1e-6 / static_cast<double>(s.count);
  recompute_percentiles(s);
  return s;
}

uint64_t LatencyHistogram::Snapshot::count_over(double seconds) const noexcept {
  uint64_t over = 0;
  for (int i = 0; i < kBuckets; ++i)
    if (bucket_upper_seconds(i) > seconds) over += buckets[i];
  return over;
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::of_buckets(
    const std::array<uint64_t, kBuckets>& buckets, double sum_s,
    double max_s) noexcept {
  Snapshot s;
  s.buckets = buckets;
  for (const uint64_t n : buckets) s.count += n;
  if (s.count == 0) return Snapshot{};  // empty: all stats stay zero
  s.mean_s = sum_s / static_cast<double>(s.count);
  s.max_s = max_s;
  recompute_percentiles(s);
  return s;
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::subtract(
    const Snapshot& now, const Snapshot& prev) noexcept {
  std::array<uint64_t, kBuckets> d{};
  for (int i = 0; i < kBuckets; ++i)
    d[i] = now.buckets[i] >= prev.buckets[i] ? now.buckets[i] - prev.buckets[i]
                                             : 0;
  // Recover the interval's sample sum from the two means; clamp at zero so
  // a count reset cannot manufacture a negative mean. The lifetime max is
  // an upper bound for the window.
  const double sum_now = now.mean_s * static_cast<double>(now.count);
  const double sum_prev = prev.mean_s * static_cast<double>(prev.count);
  return of_buckets(d, std::max(0.0, sum_now - sum_prev), now.max_s);
}

LatencyHistogram::Snapshot LatencyHistogram::Snapshot::merge(
    const Snapshot& a, const Snapshot& b) noexcept {
  std::array<uint64_t, kBuckets> m{};
  for (int i = 0; i < kBuckets; ++i) m[i] = a.buckets[i] + b.buckets[i];
  return of_buckets(m,
                    a.mean_s * static_cast<double>(a.count) +
                        b.mean_s * static_cast<double>(b.count),
                    std::max(a.max_s, b.max_s));
}

namespace detail {

namespace {

// Bit i % 64 of word i / 64 set: shard index i is held by a live thread.
constexpr unsigned kHeldWords = kMetricsShards / 64;
static_assert(kMetricsShards % 64 == 0);
std::array<std::atomic<uint64_t>, kHeldWords> g_held_shards{};

// Returns the thread's index to the free list when the thread exits. The
// release pairs with the acquire in acquire_metrics_shard(), so the next
// holder's plain updates follow every update this thread made.
struct ShardReturn {
  ShardReturn() = default;
  ShardReturn(const ShardReturn&) = delete;
  ShardReturn& operator=(const ShardReturn&) = delete;
  ~ShardReturn() {
    const unsigned i = t_metrics_shard;
    // Anything this thread records after this point takes the locked
    // overflow shard.
    t_metrics_shard = kRetiredShard;
    if (i < kMetricsShards)
      g_held_shards[i / 64].fetch_and(~(uint64_t{1} << (i % 64)),
                                      std::memory_order_release);
  }
};

}  // namespace

unsigned acquire_metrics_shard() noexcept {
  for (unsigned w = 0; w < kHeldWords; ++w) {
    uint64_t held = g_held_shards[w].load(kRelaxed);
    while (held != ~uint64_t{0}) {
      const auto b = static_cast<unsigned>(std::countr_one(held));
      if (g_held_shards[w].compare_exchange_weak(
              held, held | uint64_t{1} << b, std::memory_order_acquire,
              kRelaxed)) {
        thread_local ShardReturn give_back;
        return w * 64 + b;
      }
    }
  }
  return kNoShard;
}

}  // namespace detail

MetricsRegistry::MetricsRegistry() : start_ns_(steady_ns(Clock::now())) {
  shards_[kThreadShards].store(new Shard, std::memory_order_release);
}

MetricsRegistry::~MetricsRegistry() {
  for (auto& s : shards_) delete s.load(std::memory_order_acquire);
}

MetricsRegistry::Writer MetricsRegistry::claim_shard(unsigned i) noexcept {
  if (i == detail::kNoShard)
    i = detail::t_metrics_shard = detail::acquire_metrics_shard();
  if (i < kThreadShards) {
    // Only the index's holder stores its pointer, so no CAS: a shard made
    // by an earlier holder is reused, else this thread makes it.
    Shard* s = shards_[i].load(std::memory_order_acquire);
    if (s == nullptr) {
      s = new (std::nothrow) Shard;
      if (s != nullptr) shards_[i].store(s, std::memory_order_release);
    }
    if (s != nullptr) return Writer(*s);
  }
  // No free index, or out of memory: share the overflow shard, locked.
  return Writer(*shards_[kThreadShards].load(kRelaxed), overflow_mu_);
}

MetricsSnapshot MetricsRegistry::snapshot() const noexcept {
  MetricsSnapshot s;
  std::array<const Shard*, kThreadShards + 1> live{};
  size_t n = 0;
  for (const auto& p : shards_)
    if (const Shard* sh = p.load(std::memory_order_acquire); sh != nullptr)
      live[n++] = sh;
  const std::span<const Shard* const> shards(live.data(), n);

  uint64_t kernel_ns = 0;
  for (const Shard* sh : shards) {
    // Scenario counters first, completed after (see on_completed), so
    // pairwise + search + batch <= completed holds in every shard and
    // therefore in the sum.
    s.pairwise += sh->by_scenario[0].load(std::memory_order_acquire);
    s.search += sh->by_scenario[1].load(std::memory_order_acquire);
    s.batch += sh->by_scenario[2].load(std::memory_order_acquire);
    s.completed += sh->completed.load(kRelaxed);
    s.submitted += sh->submitted.load(kRelaxed);
    s.inline_runs += sh->inline_runs.load(kRelaxed);
    s.rejected_queue_full += sh->rejected_queue_full.load(kRelaxed);
    s.deadline_expired += sh->deadline_expired.load(kRelaxed);
    s.invalid_request += sh->invalid_request.load(kRelaxed);
    s.aborted += sh->aborted.load(kRelaxed);
    s.cells += sh->cells.load(kRelaxed);
    kernel_ns += sh->kernel_ns.load(kRelaxed);
    s.batch_cells8 += sh->batch_cells8.load(kRelaxed);
    s.batch_useful_cells8 += sh->batch_useful_cells8.load(kRelaxed);
    for (int i = 0; i < MetricsSnapshot::kIsas; ++i) {
      for (int k = 0; k < MetricsSnapshot::kKernelVariants; ++k) {
        s.target_requests[i][k] += sh->target_requests[i][k].load(kRelaxed);
        s.target_cells[i][k] += sh->target_cells[i][k].load(kRelaxed);
        for (int w = 0; w < MetricsSnapshot::kWidths; ++w) {
          const PmuCell& c = sh->pmu[i][k][w];
          PmuSample& o = s.pmu[i][k][w];
          o.samples += c.samples.load(kRelaxed);
          o.wall_ns += c.wall_ns.load(kRelaxed);
          o.cycles += c.cycles.load(kRelaxed);
          o.instructions += c.instructions.load(kRelaxed);
          o.stall_frontend += c.stall_frontend.load(kRelaxed);
          o.stall_backend += c.stall_backend.load(kRelaxed);
          o.llc_misses += c.llc_misses.load(kRelaxed);
          o.branch_misses += c.branch_misses.load(kRelaxed);
        }
      }
    }
    s.slow_requests += sh->slow_requests.load(kRelaxed);
    s.result_cache_hits += sh->result_cache_hits.load(kRelaxed);
    s.result_cache_misses += sh->result_cache_misses.load(kRelaxed);
    s.result_cache_evictions += sh->result_cache_evictions.load(kRelaxed);
    s.coalesced += sh->coalesced.load(kRelaxed);
    s.server_connections += sh->server_connections.load(kRelaxed);
    s.server_frames_rx += sh->server_frames_rx.load(kRelaxed);
    s.server_frames_tx += sh->server_frames_tx.load(kRelaxed);
    s.server_bytes_rx += sh->server_bytes_rx.load(kRelaxed);
    s.server_bytes_tx += sh->server_bytes_tx.load(kRelaxed);
    s.server_protocol_errors += sh->server_protocol_errors.load(kRelaxed);
    s.server_http_scrapes += sh->server_http_scrapes.load(kRelaxed);
    for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
      for (int sc = 0; sc < MetricsSnapshot::kScenarios; ++sc)
        s.tier_requests[t][sc] += sh->tier_requests[t][sc].load(kRelaxed);
    for (int b = 0; b < MetricsSnapshot::kLengthBins; ++b)
      s.query_length_bins[b] += sh->query_length_bins[b].load(kRelaxed);
  }
  s.kernel_seconds = static_cast<double>(kernel_ns) * 1e-9;

  // Each histogram family sums its per-shard histograms.
  const auto family = [&](auto member) {
    std::array<const LatencyHistogram*, kThreadShards + 1> parts{};
    for (size_t i = 0; i < n; ++i) parts[i] = &member(*live[i]);
    return LatencyHistogram::sum({parts.data(), n});
  };
  for (int t = 0; t < MetricsSnapshot::kQosTiers; ++t)
    s.tier_latency[t] = family(
        [t](const Shard& sh) -> const LatencyHistogram& {
          return sh.tier_latency[t];
        });
  s.queue_wait = family(
      [](const Shard& sh) -> const LatencyHistogram& { return sh.queue_wait; });
  s.kernel_time = family(
      [](const Shard& sh) -> const LatencyHistogram& { return sh.kernel_time; });

  s.server_active_connections = active_connections_.load(kRelaxed);
  s.result_cache_entries = result_cache_entries_.load(kRelaxed);
  s.uptime_seconds =
      static_cast<double>(steady_ns(Clock::now()) - start_ns_) * 1e-9;
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

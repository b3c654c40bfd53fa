// Service observability: lock-free counters and latency/GCUPS histograms.
//
// A MetricsRegistry is owned by service::AlignService and updated from its
// executor threads with relaxed atomics — recording a sample is a handful
// of fetch_adds, cheap enough to sit on the per-request path. snapshot()
// gives a consistent-enough point-in-time copy for dashboards/CLI dumps
// (counters are read individually; exactness across counters is not
// required for monitoring).
//
// Machine-readable renderings of a MetricsSnapshot (Prometheus text
// exposition, JSON) live in obs/exporters.hpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>

#include "simd/cpu.hpp"

namespace swve::perf {

/// Lock-free log2-scale latency histogram. Bucket 0 holds samples < 1 us;
/// bucket i (i >= 1) holds samples in [2^(i-1), 2^i) microseconds; the last
/// bucket absorbs everything beyond ~35 minutes. Percentiles interpolate
/// log-linearly inside the hit bucket (clamped to the observed max), so a
/// reported p99 is an estimate within the bucket rather than the raw
/// power-of-two upper bound.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 32;

  void record(double seconds) noexcept;

  /// Upper bound of bucket i, in seconds (bucket 0 ends at 1 us). The
  /// Prometheus exporter uses these as its `le` boundaries.
  static double bucket_upper_seconds(int i) noexcept {
    return static_cast<double>(uint64_t{1} << i) * 1e-6;
  }

  struct Snapshot {
    uint64_t count = 0;
    double mean_s = 0;
    double max_s = 0;
    double p50_s = 0;
    double p90_s = 0;
    double p99_s = 0;
    std::array<uint64_t, kBuckets> buckets{};

    /// Samples recorded at or above `seconds` — the bucket tail from the
    /// first bucket whose upper bound exceeds the threshold. Used by the
    /// SLO engine to count latency-objective violations without storing
    /// raw samples; the answer is exact at bucket boundaries and
    /// conservative (over-counting) inside a bucket.
    uint64_t count_over(double seconds) const noexcept;

    /// Window delta `now - prev` of two snapshots of the *same* histogram
    /// (prev taken earlier). Buckets/count/mean describe only the samples
    /// recorded between the two snapshots; percentiles are recomputed from
    /// the delta buckets. A non-monotone pair (counter reset, or snapshots
    /// of different histograms) clamps per-bucket to zero rather than
    /// underflowing. `max_s` is inherited from `now` — the per-window max
    /// is not tracked, so it is an upper bound, not a window statistic.
    static Snapshot subtract(const Snapshot& now, const Snapshot& prev) noexcept;

    /// Sum of two disjoint snapshots (e.g. folding tiers together):
    /// buckets and counts add, mean is count-weighted, max is the larger,
    /// percentiles are recomputed from the merged buckets.
    static Snapshot merge(const Snapshot& a, const Snapshot& b) noexcept;
  };
  Snapshot snapshot() const noexcept;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// Human-friendly duration ("248us", "3.20ms", "1.500s"). Values that would
/// round up to a whole next unit are promoted ("999.7us" prints "1.00ms",
/// never "1000us").
std::string format_seconds(double s);

// Shared delta math for everything that turns two counter snapshots into a
// window statistic (obs::TimeSeriesStore, `swve_client metrics --watch`).
// Monotone counters can still appear to step backwards across a process
// restart; both helpers clamp to zero instead of producing a negative rate.

/// Counter delta `now - prev`, clamped at zero.
constexpr uint64_t counter_delta(uint64_t now, uint64_t prev) noexcept {
  return now >= prev ? now - prev : 0;
}

/// Per-second rate of a counter over a window of `dt_s` seconds.
constexpr double delta_rate(uint64_t now, uint64_t prev, double dt_s) noexcept {
  return dt_s > 0 ? static_cast<double>(counter_delta(now, prev)) / dt_s : 0.0;
}

/// Ratio of two counter deltas (e.g. window cache-hit rate =
/// delta(hits) / (delta(hits) + delta(misses))); 0 when the denominator
/// delta is empty.
constexpr double delta_ratio(uint64_t num_now, uint64_t num_prev,
                             uint64_t den_now, uint64_t den_prev) noexcept {
  const uint64_t den = counter_delta(den_now, den_prev);
  return den > 0 ? static_cast<double>(counter_delta(num_now, num_prev)) /
                       static_cast<double>(den)
                 : 0.0;
}

/// Kernel family that actually served a request (the dispatch target,
/// together with the resolved ISA).
enum class KernelVariant : int {
  Diagonal = 0,
  Batch32 = 1,  ///< inter-sequence batch kernel
};
const char* kernel_variant_name(KernelVariant v) noexcept;

/// Aggregated hardware-counter deltas for one ISA×kernel×width attribution
/// cell (filled by obs::PmuSession via span-scoped start/stop reads). All
/// fields are totals over `samples` spans; the derived ratios reproduce the
/// paper's per-kernel microarchitecture analysis from a live service.
struct PmuSample {
  uint64_t samples = 0;         ///< spans aggregated into this cell
  uint64_t wall_ns = 0;         ///< summed span wall time
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t stall_frontend = 0;  ///< frontend-stalled cycles
  uint64_t stall_backend = 0;   ///< backend-stalled cycles
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;

  double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double frontend_stall_fraction() const noexcept {
    return cycles > 0 ? static_cast<double>(stall_frontend) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double backend_stall_fraction() const noexcept {
    return cycles > 0 ? static_cast<double>(stall_backend) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Cycles per wall ns == effective GHz while this cell's spans ran; an
  /// AVX-512 cell clocking well below its AVX2 neighbour is the license
  /// throttling the paper recalibrates for.
  double effective_ghz() const noexcept {
    return wall_ns > 0
               ? static_cast<double>(cycles) / static_cast<double>(wall_ns)
               : 0.0;
  }
};

/// Wire-order QoS tier labels (mirrors service::QosTier without a
/// dependency on the service layer — perf sits below it).
constexpr const char* qos_tier_label(int tier) noexcept {
  return tier == 0   ? "interactive"
         : tier == 1 ? "standard"
         : tier == 2 ? "bulk"
                     : "unknown";
}

/// Point-in-time copy of a MetricsRegistry.
struct MetricsSnapshot {
  static constexpr int kIsas = 5;            ///< simd::Isa enum size
  static constexpr int kKernelVariants = 2;  ///< KernelVariant enum size
  static constexpr int kWidths = 4;          ///< DP width: unknown/8/16/32
  static constexpr int kWindowSeconds = 60;  ///< sliding-window span

  /// Index of a DP width in the pmu attribution array.
  static int width_index(uint16_t bits) noexcept {
    switch (bits) {
      case 8: return 1;
      case 16: return 2;
      case 32: return 3;
      default: return 0;
    }
  }
  /// Inverse of width_index (0 = width unknown/mixed).
  static uint16_t width_bits_at(int idx) noexcept {
    static constexpr uint16_t kBits[kWidths] = {0, 8, 16, 32};
    return idx >= 0 && idx < kWidths ? kBits[idx] : 0;
  }

  // Live-workload characterization: query lengths bucketed into the same
  // geometric regimes the packing policies bin by (core/batch32.cpp,
  // LengthBinned): bin b holds lengths [2^b, 2^(b+1)); the last bin
  // saturates. This is the per-length-bin feed the online tuner keys its
  // (ISA × kernel × length-bin) cells on.
  static constexpr int kLengthBins = 16;  ///< last bin: >= 32768 residues

  /// Bin index for a query of `len` residues (0 maps to bin 0).
  static int length_bin_of(uint64_t len) noexcept {
    if (len == 0) return 0;
    const int b = std::bit_width(len) - 1;
    return b < kLengthBins ? b : kLengthBins - 1;
  }
  /// Inclusive lower bound of bin b (1, 2, 4, ... — bin 0 also holds 0).
  static uint64_t length_bin_lower(int b) noexcept {
    return b > 0 ? uint64_t{1} << b : 0;
  }

  // Request lifecycle counters.
  uint64_t submitted = 0;           ///< accepted into the queue
  uint64_t completed = 0;           ///< future fulfilled with a result
  uint64_t rejected_queue_full = 0; ///< backpressure rejections at submit
  uint64_t deadline_expired = 0;    ///< expired in queue or mid-run
  uint64_t invalid_request = 0;     ///< failed validation (bad config/empty)
  uint64_t aborted = 0;             ///< failed at shutdown before running

  // Completed requests by scenario.
  uint64_t pairwise = 0;
  uint64_t search = 0;
  uint64_t batch = 0;

  // Aggregate kernel work (completed requests only).
  uint64_t cells = 0;               ///< DP cells computed
  double kernel_seconds = 0;        ///< summed kernel (execution) time

  // Which dispatch target served each completed request: completions and
  // cells by [resolved ISA][kernel variant].
  std::array<std::array<uint64_t, kKernelVariants>, kIsas> target_requests{};
  std::array<std::array<uint64_t, kKernelVariants>, kIsas> target_cells{};

  // Batch32-kernel packing (batch-path completions only): 8-bit kernel
  // cells as padded (max_len * lanes * m) vs landing on real residues.
  uint64_t batch_cells8 = 0;
  uint64_t batch_useful_cells8 = 0;

  // Query-state cache (filled by the owner from align::QueryStateCache;
  // zero when no cache is attached).
  uint64_t query_cache_hits = 0;
  uint64_t query_cache_misses = 0;
  uint64_t query_cache_evictions = 0;
  uint64_t workspace_reuses = 0;
  uint64_t workspace_creates = 0;
  uint64_t query_cache_entries = 0;

  // Database provenance (filled by the owner — service::AlignService; all
  // zero for a database-less or legacy in-process-packed service).
  uint64_t db_source = 0;          ///< core::DbSource: 0 built, 1 mmap, 2 shm
  uint64_t db_map_bytes = 0;       ///< artifact mapping size; 0 when built
  uint64_t db_resident_bytes = 0;  ///< gauge: mapped bytes resident in RAM
  double db_load_seconds = 0;      ///< startup: map/pack -> search-ready
  uint64_t db_epoch = 0;           ///< content fingerprint; 0 when unknown

  // Serving front door (filled by net::Server; zero without one). The
  // result cache sits above the query-state cache and holds serialized
  // responses keyed by (scenario, request bytes, config, db epoch).
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t result_cache_evictions = 0;
  uint64_t result_cache_entries = 0;   ///< gauge, filled at snapshot time
  uint64_t coalesced = 0;              ///< requests joined onto an in-flight twin
  uint64_t server_connections = 0;     ///< accepted over the server lifetime
  uint64_t server_active_connections = 0;  ///< gauge, filled at snapshot time
  uint64_t server_frames_rx = 0;
  uint64_t server_frames_tx = 0;
  uint64_t server_bytes_rx = 0;
  uint64_t server_bytes_tx = 0;
  uint64_t server_protocol_errors = 0;  ///< bad frame/version/type/too-large
  uint64_t server_http_scrapes = 0;     ///< GET /metrics answered

  // Per-QoS-tier accounting (first step toward per-tenant metrics):
  // completions by [tier][scenario] and an end-to-end (queue + execution)
  // latency histogram per tier.
  static constexpr int kQosTiers = 3;   ///< service::QosTier enum size
  static constexpr int kScenarios = 3;  ///< pairwise / search / batch
  std::array<std::array<uint64_t, kScenarios>, kQosTiers> tier_requests{};
  std::array<LatencyHistogram::Snapshot, kQosTiers> tier_latency{};

  // Submitted queries by length regime (see length_bin_of); batch requests
  // contribute one count per member query.
  std::array<uint64_t, kLengthBins> query_length_bins{};

  // Structured-log accounting (filled by the owner from obs::Logger; zero
  // when no logger is installed).
  uint64_t log_records = 0;           ///< lines written to the sinks
  uint64_t log_dropped_overflow = 0;  ///< ring full at the call site
  uint64_t log_dropped_threads = 0;   ///< producing threads beyond capacity
  uint64_t log_suppressed = 0;        ///< per-site rate limit

  // Sliding window: kernel work recorded in the last kWindowSeconds.
  uint64_t window_cells = 0;
  double window_kernel_seconds = 0;

  // Thread-pool utilization (filled by the owner of the pool; zero when no
  // pool is attached).
  unsigned pool_threads = 0;
  uint64_t pool_jobs = 0;
  double pool_busy_seconds = 0;

  // Span-scoped hardware-counter attribution by [ISA][kernel][width index]
  // (see width_index). Cells stay zero on PMU-denied hosts.
  std::array<std::array<std::array<PmuSample, kWidths>, kKernelVariants>,
             kIsas>
      pmu{};
  /// 1 when the owner wanted PMU attribution but perf_event was denied or
  /// absent (EPERM/ENOENT/disabled) — the software-clock fallback is live.
  /// 0 when counters work or attribution was never requested.
  uint64_t pmu_unavailable = 0;

  /// Requests the watchdog flagged as exceeding the latency SLO.
  uint64_t slow_requests = 0;

  // Sharded-search attribution (filled by the owner from
  // align::ShardedSearch::shard_stats; shard_count == 0 when batch search
  // runs on the unsharded flat pool).
  static constexpr int kMaxShards = 16;
  struct ShardSample {
    uint64_t searches = 0;
    uint64_t batches = 0;       ///< batch-kernel batches scanned
    uint64_t cells = 0;         ///< DP cells (8-bit + rescore)
    uint64_t useful_cells = 0;
    double busy_seconds = 0;    ///< summed worker wall time in the shard
    uint64_t llc_misses = 0;    ///< PMU deltas over shard scans; 0 = no PMU
    uint64_t cycles = 0;
    uint64_t queue_depth = 0;   ///< gauge: jobs pending on the shard's pool
    uint64_t sequences = 0;     ///< database sequences the shard owns
    int32_t node = -1;          ///< pinned NUMA node; -1 unpinned
    uint32_t threads = 0;
    uint8_t bound = 0;          ///< mbind of the shard's columns succeeded

    double gcups() const noexcept {
      return busy_seconds > 0
                 ? static_cast<double>(cells) / busy_seconds / 1e9
                 : 0.0;
    }
  };
  uint32_t shard_count = 0;  ///< live shards, clamped to kMaxShards
  std::array<ShardSample, kMaxShards> shards{};

  // TraceSink accounting (filled by the owner from obs::TraceSink; zero
  // when no sink is attached).
  uint64_t trace_recorded = 0;          ///< events ever recorded
  uint64_t trace_dropped_wrap = 0;      ///< overwritten by ring wrap
  uint64_t trace_dropped_torn = 0;      ///< skipped by racing exports
  uint64_t trace_dropped_overflow = 0;  ///< threads beyond ring capacity

  double uptime_seconds = 0;        ///< registry lifetime at snapshot time

  /// Aggregate throughput over every completed request.
  double aggregate_gcups() const noexcept {
    return kernel_seconds > 0
               ? static_cast<double>(cells) / kernel_seconds / 1e9
               : 0.0;
  }

  /// Throughput over kernel work completed in the last kWindowSeconds —
  /// the live-dashboard gauge next to the lifetime aggregate.
  double window_gcups() const noexcept {
    return window_kernel_seconds > 0
               ? static_cast<double>(window_cells) / window_kernel_seconds / 1e9
               : 0.0;
  }

  /// Useful fraction of the batch kernel's DP work, in (0, 1]; 0 before the
  /// first batch-path request. 1 - this is the padding overhead the packing
  /// policy left on the table.
  double batch_packing_efficiency() const noexcept {
    return batch_cells8 > 0 ? static_cast<double>(batch_useful_cells8) /
                                  static_cast<double>(batch_cells8)
                            : 0.0;
  }

  /// Serialized-response LRU hit rate, in [0, 1]; 0 before the first lookup.
  double result_cache_hit_rate() const noexcept {
    const uint64_t total = result_cache_hits + result_cache_misses;
    return total > 0 ? static_cast<double>(result_cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Fraction of frame-carried requests answered without a fresh service
  /// execution (result-cache hit or singleflight join), in [0, 1].
  double dedup_ratio() const noexcept {
    const uint64_t saved = result_cache_hits + coalesced;
    const uint64_t total = saved + result_cache_misses;
    return total > 0
               ? static_cast<double>(saved) / static_cast<double>(total)
               : 0.0;
  }

  /// Prepared-query LRU hit rate, in [0, 1]; 0 before the first lookup.
  double query_cache_hit_rate() const noexcept {
    const uint64_t total = query_cache_hits + query_cache_misses;
    return total > 0 ? static_cast<double>(query_cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  /// Busy fraction of the pool over the registry's lifetime [0, 1].
  double pool_utilization() const noexcept {
    return pool_threads > 0 && uptime_seconds > 0
               ? pool_busy_seconds /
                     (static_cast<double>(pool_threads) * uptime_seconds)
               : 0.0;
  }

  /// Sum of every PMU attribution cell (all ISAs, kernels, widths).
  PmuSample pmu_total() const noexcept {
    PmuSample t;
    for (const auto& ik : pmu)
      for (const auto& kw : ik)
        for (const PmuSample& c : kw) {
          t.samples += c.samples;
          t.wall_ns += c.wall_ns;
          t.cycles += c.cycles;
          t.instructions += c.instructions;
          t.stall_frontend += c.stall_frontend;
          t.stall_backend += c.stall_backend;
          t.llc_misses += c.llc_misses;
          t.branch_misses += c.branch_misses;
        }
    return t;
  }

  /// AVX-512 effective GHz divided by the fastest non-AVX-512 cell's GHz —
  /// < 1 flags license throttling (paper §IV-E). 0 until both sides have
  /// samples.
  double avx512_frequency_ratio() const noexcept {
    double avx512_ghz = 0, other_ghz = 0;
    uint64_t a_cycles = 0, a_ns = 0;
    for (int i = 0; i < kIsas; ++i)
      for (int k = 0; k < kKernelVariants; ++k)
        for (int w = 0; w < kWidths; ++w) {
          const PmuSample& c = pmu[i][k][w];
          if (c.cycles == 0) continue;
          if (static_cast<simd::Isa>(i) == simd::Isa::Avx512) {
            a_cycles += c.cycles;
            a_ns += c.wall_ns;
          } else if (c.effective_ghz() > other_ghz) {
            other_ghz = c.effective_ghz();
          }
        }
    if (a_ns > 0)
      avx512_ghz = static_cast<double>(a_cycles) / static_cast<double>(a_ns);
    return (avx512_ghz > 0 && other_ghz > 0) ? avx512_ghz / other_ghz : 0.0;
  }

  LatencyHistogram::Snapshot queue_wait;
  LatencyHistogram::Snapshot kernel_time;

  /// Human-readable multi-line dump (the `swve --metrics` text format).
  std::string to_string() const;
};

/// Atomic counters + histograms; one per AlignService. All members are
/// individually thread-safe; see MetricsSnapshot for the read side.
class MetricsRegistry {
 public:
  enum class Scenario : int { Pairwise = 0, Search = 1, Batch = 2 };

  MetricsRegistry() : start_(Clock::now()) {}

  void on_submitted() noexcept { submitted_.fetch_add(1, kRelaxed); }
  void on_rejected_queue_full() noexcept {
    rejected_queue_full_.fetch_add(1, kRelaxed);
  }
  void on_deadline_expired() noexcept {
    deadline_expired_.fetch_add(1, kRelaxed);
  }
  void on_invalid_request() noexcept { invalid_request_.fetch_add(1, kRelaxed); }
  void on_aborted() noexcept { aborted_.fetch_add(1, kRelaxed); }

  void on_queue_wait(double seconds) noexcept { queue_wait_.record(seconds); }

  void on_completed(Scenario s, double kernel_seconds,
                    uint64_t cells) noexcept {
    // Release pairs with snapshot()'s acquire loads, which read the
    // scenario counters before completed_, so a snapshot never shows more
    // per-scenario completions than total completions.
    completed_.fetch_add(1, kRelaxed);
    by_scenario_[static_cast<int>(s)].fetch_add(1, std::memory_order_release);
    cells_.fetch_add(cells, kRelaxed);
    const auto ns = static_cast<uint64_t>(kernel_seconds * 1e9);
    kernel_ns_.fetch_add(ns, kRelaxed);
    kernel_time_.record(kernel_seconds);
    window_record(cells, ns);
  }

  /// Record the batch kernel's padded vs useful 8-bit cell counts for one
  /// completed batch-path request (see core::BatchSearchStats).
  void on_batch_packing(uint64_t cells8, uint64_t useful_cells8) noexcept {
    batch_cells8_.fetch_add(cells8, kRelaxed);
    batch_useful_cells8_.fetch_add(useful_cells8, kRelaxed);
  }

  /// Fold one span's hardware-counter deltas into the ISA×kernel×width
  /// attribution cell. `d.samples` should be 1 for a single span. Relaxed
  /// fetch_adds — cheap enough for chunk-granularity recording.
  void on_pmu_sample(simd::Isa isa, KernelVariant variant, uint16_t width_bits,
                     const PmuSample& d) noexcept {
    const auto i = static_cast<size_t>(isa);
    const auto k = static_cast<size_t>(variant);
    if (i >= static_cast<size_t>(MetricsSnapshot::kIsas) ||
        k >= static_cast<size_t>(MetricsSnapshot::kKernelVariants))
      return;
    PmuCell& c = pmu_[i][k][MetricsSnapshot::width_index(width_bits)];
    c.samples.fetch_add(d.samples, kRelaxed);
    c.wall_ns.fetch_add(d.wall_ns, kRelaxed);
    c.cycles.fetch_add(d.cycles, kRelaxed);
    c.instructions.fetch_add(d.instructions, kRelaxed);
    c.stall_frontend.fetch_add(d.stall_frontend, kRelaxed);
    c.stall_backend.fetch_add(d.stall_backend, kRelaxed);
    c.llc_misses.fetch_add(d.llc_misses, kRelaxed);
    c.branch_misses.fetch_add(d.branch_misses, kRelaxed);
  }

  /// The watchdog flagged a request as exceeding the latency SLO.
  void on_slow_request() noexcept { slow_requests_.fetch_add(1, kRelaxed); }

  // Serving front-door events (recorded by net::Server).
  void on_result_cache_hit() noexcept {
    result_cache_hits_.fetch_add(1, kRelaxed);
  }
  void on_result_cache_miss() noexcept {
    result_cache_misses_.fetch_add(1, kRelaxed);
  }
  void on_result_cache_eviction() noexcept {
    result_cache_evictions_.fetch_add(1, kRelaxed);
  }
  void on_coalesced() noexcept { coalesced_.fetch_add(1, kRelaxed); }
  void on_connection_accepted() noexcept {
    server_connections_.fetch_add(1, kRelaxed);
  }
  void on_frame_rx(uint64_t bytes) noexcept {
    server_frames_rx_.fetch_add(1, kRelaxed);
    server_bytes_rx_.fetch_add(bytes, kRelaxed);
  }
  void on_frame_tx(uint64_t bytes) noexcept {
    server_frames_tx_.fetch_add(1, kRelaxed);
    server_bytes_tx_.fetch_add(bytes, kRelaxed);
  }
  void on_protocol_error() noexcept {
    server_protocol_errors_.fetch_add(1, kRelaxed);
  }
  void on_http_scrape() noexcept {
    server_http_scrapes_.fetch_add(1, kRelaxed);
  }

  /// One completed request attributed to its QoS tier: scenario count plus
  /// end-to-end (queue wait + execution) latency. Out-of-range indices are
  /// dropped, mirroring on_kernel_completed.
  void on_tier_completed(unsigned tier, Scenario s, double total_s) noexcept {
    const auto t = static_cast<size_t>(tier);
    const auto sc = static_cast<size_t>(s);
    if (t >= static_cast<size_t>(MetricsSnapshot::kQosTiers) ||
        sc >= static_cast<size_t>(MetricsSnapshot::kScenarios))
      return;
    tier_requests_[t][sc].fetch_add(1, kRelaxed);
    tier_latency_[t].record(total_s);
  }

  /// Bucket one accepted query's length into its workload regime.
  void on_query_length(uint64_t residues) noexcept {
    query_length_bins_[MetricsSnapshot::length_bin_of(residues)].fetch_add(
        1, kRelaxed);
  }

  /// Attribute a completed request to the dispatch target that served it
  /// (resolved ISA + kernel family). Pass the ISA the kernel reported, not
  /// the requested one.
  void on_kernel_completed(simd::Isa isa, KernelVariant variant,
                           uint64_t cells) noexcept {
    const auto i = static_cast<size_t>(isa);
    const auto k = static_cast<size_t>(variant);
    if (i >= static_cast<size_t>(MetricsSnapshot::kIsas) ||
        k >= static_cast<size_t>(MetricsSnapshot::kKernelVariants))
      return;
    target_requests_[i][k].fetch_add(1, kRelaxed);
    target_cells_[i][k].fetch_add(cells, kRelaxed);
  }

  MetricsSnapshot snapshot() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  // One-second buckets; > kWindowSeconds of them so an expired bucket is
  // reused before it could be confused with a live one.
  static constexpr int kWindowBuckets = 64;
  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  struct WindowBucket {
    std::atomic<uint64_t> epoch_s{kNoEpoch};  ///< second the bucket covers
    std::atomic<uint64_t> cells{0};
    std::atomic<uint64_t> kernel_ns{0};
  };

  struct PmuCell {
    std::atomic<uint64_t> samples{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> cycles{0};
    std::atomic<uint64_t> instructions{0};
    std::atomic<uint64_t> stall_frontend{0};
    std::atomic<uint64_t> stall_backend{0};
    std::atomic<uint64_t> llc_misses{0};
    std::atomic<uint64_t> branch_misses{0};
  };

  uint64_t elapsed_s() const noexcept {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::seconds>(Clock::now() - start_)
            .count());
  }

  void window_record(uint64_t cells, uint64_t ns) noexcept {
    const uint64_t now_s = elapsed_s();
    WindowBucket& b = window_[now_s % kWindowBuckets];
    uint64_t e = b.epoch_s.load(kRelaxed);
    if (e != now_s &&
        b.epoch_s.compare_exchange_strong(e, now_s, kRelaxed, kRelaxed)) {
      // This thread rolled the bucket over; reset it. A concurrent recorder
      // that raced between the CAS and these stores can lose its sample —
      // a once-per-second monitoring-grade race, not a data race.
      b.cells.store(0, kRelaxed);
      b.kernel_ns.store(0, kRelaxed);
    }
    b.cells.fetch_add(cells, kRelaxed);
    b.kernel_ns.fetch_add(ns, kRelaxed);
  }

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> invalid_request_{0};
  std::atomic<uint64_t> aborted_{0};
  std::array<std::atomic<uint64_t>, 3> by_scenario_{};
  std::atomic<uint64_t> cells_{0};
  std::atomic<uint64_t> kernel_ns_{0};
  std::atomic<uint64_t> batch_cells8_{0};
  std::atomic<uint64_t> batch_useful_cells8_{0};
  std::array<std::array<std::atomic<uint64_t>, MetricsSnapshot::kKernelVariants>,
             MetricsSnapshot::kIsas>
      target_requests_{};
  std::array<std::array<std::atomic<uint64_t>, MetricsSnapshot::kKernelVariants>,
             MetricsSnapshot::kIsas>
      target_cells_{};
  std::array<std::array<std::array<PmuCell, MetricsSnapshot::kWidths>,
                        MetricsSnapshot::kKernelVariants>,
             MetricsSnapshot::kIsas>
      pmu_{};
  std::atomic<uint64_t> slow_requests_{0};
  std::atomic<uint64_t> result_cache_hits_{0};
  std::atomic<uint64_t> result_cache_misses_{0};
  std::atomic<uint64_t> result_cache_evictions_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> server_connections_{0};
  std::atomic<uint64_t> server_frames_rx_{0};
  std::atomic<uint64_t> server_frames_tx_{0};
  std::atomic<uint64_t> server_bytes_rx_{0};
  std::atomic<uint64_t> server_bytes_tx_{0};
  std::atomic<uint64_t> server_protocol_errors_{0};
  std::atomic<uint64_t> server_http_scrapes_{0};
  std::array<std::array<std::atomic<uint64_t>, MetricsSnapshot::kScenarios>,
             MetricsSnapshot::kQosTiers>
      tier_requests_{};
  std::array<std::atomic<uint64_t>, MetricsSnapshot::kLengthBins>
      query_length_bins_{};
  std::array<LatencyHistogram, MetricsSnapshot::kQosTiers> tier_latency_;
  std::array<WindowBucket, kWindowBuckets> window_{};
  LatencyHistogram queue_wait_;
  LatencyHistogram kernel_time_;
  Clock::time_point start_;
};

}  // namespace swve::perf

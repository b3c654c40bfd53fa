// Service observability: counters and latency/GCUPS histograms.
//
// A MetricsRegistry is owned by service::AlignService and updated from its
// executor threads and from the submitting threads of inline runs. Every
// counter, histogram and PMU cell lives in a cache-line-aligned shard that one thread at a time writes, so recording a
// sample is a handful of relaxed loads and stores with no locked
// instruction, cheap enough to sit on the per-request path. snapshot() sums
// the shards into a point-in-time copy for dashboards/CLI dumps: totals are
// exact once recording stops, but counters are read individually, so a
// snapshot taken mid-flight is not atomic across families.
//
// Every rendering of a MetricsSnapshot (Prometheus text exposition, plain
// text, JSON) lives in obs/exporters.hpp.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>

#include "simd/cpu.hpp"

namespace swve::perf {

/// Log2-scale latency histogram, recorded by one writer at a time (a
/// registry shard's writer) and readable by snapshot() concurrently. Bucket
/// 0 holds samples < 1 us; bucket i (i >= 1) holds samples in
/// [2^(i-1), 2^i) microseconds; the last bucket absorbs everything beyond
/// ~35 minutes. Percentiles interpolate log-linearly inside the hit bucket
/// (clamped to the observed max), so a reported p99 is an estimate within
/// the bucket rather than the raw power-of-two upper bound.
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

    /// The snapshot of samples falling into `buckets`, summing to `sum_s`
    /// and peaking at `max_s`: count, mean and percentiles derived the way
    /// every snapshot derives them (all zero when the buckets are empty).
    static Snapshot of_buckets(const std::array<uint64_t, kBuckets>& buckets,
                               double sum_s, double max_s) noexcept;
  };
  Snapshot snapshot() const noexcept;
  /// Snapshot of the samples of all `parts` together: the raw buckets,
  /// counts and sums add before the mean and percentiles are computed, so
  /// the result is what one histogram fed every sample would report.
  static Snapshot sum(std::span<const LatencyHistogram* const> parts) noexcept;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// Counter delta `now - prev`, clamped at zero: a monotone counter can
/// still appear to step backwards across a process restart, and a window
/// must not report a negative count.
constexpr uint64_t counter_delta(uint64_t now, uint64_t prev) noexcept {
  return now >= prev ? now - prev : 0;
}

/// Kernel family that actually served a request (the dispatch target,
/// together with the resolved ISA).
enum class KernelVariant : int {
  Diagonal = 0,
  Batch32 = 1,  ///< inter-sequence batch kernel
  Column = 2,   ///< column sweep (core::pair_align, queries <= 256 residues)
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

/// A request's serving scenario (the paper's scenarios 3, 1 and 2): these
/// counters, the in-flight table, request traces and the wire all use it.
enum class Scenario : uint8_t { Pairwise = 0, Search = 1, Batch = 2 };
constexpr const char* scenario_label(int s) noexcept {
  return s == 0 ? "pairwise" : s == 1 ? "search" : s == 2 ? "batch" : "?";
}

/// Point-in-time copy of a MetricsRegistry.
struct MetricsSnapshot {
  static constexpr int kIsas = 5;            ///< simd::Isa values 0..4
  static constexpr int kKernelVariants = 3;  ///< KernelVariant enum size
  static constexpr int kWidths = 4;          ///< DP width: unknown/8/16/32

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

  // Live-workload characterization: query lengths bucketed into geometric
  // regimes: bin b holds lengths [2^b, 2^(b+1)); the last bin saturates. This is the per-length-bin feed the online tuner keys its
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
  uint64_t submitted = 0;           ///< accepted into the queue or run inline
  uint64_t inline_runs = 0;         ///< of those, run on the submitting thread
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

  // Database provenance (filled by the owner — service::AlignService; all
  // zero for a database-less or legacy in-process-packed service).
  uint64_t db_source = 0;          ///< core::DbSource: 0 built, 1 mmap
  uint64_t db_map_bytes = 0;       ///< artifact mapping size; 0 when built
  uint64_t db_resident_bytes = 0;  ///< gauge: mapped bytes resident in RAM
  double db_load_seconds = 0;      ///< startup: map/pack -> search-ready

  // Serving front door (filled by net::Server; zero without one). The
  // result cache holds serialized responses keyed by (scenario, request
  // bytes, config, db epoch).
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

  /// Requests waiting in the submission queue (gauge, filled by the owner
  /// of the queue — service::AlignService).
  uint64_t queue_depth = 0;

  // The telemetry sampler's frequency probe (filled by obs::Sampler into the
  // snapshot of its tick; zero in any other snapshot): the spin kernel's
  // effective GHz on the sampler core, and the mean kernel-reported clock
  // across CPUs (0 where cpufreq sysfs is absent).
  double sampler_probe_ghz = 0;
  double cpufreq_ghz = 0;

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

  // Batch-search attribution (filled by the owner from
  // align::ShardedSearch::shard_stats; shard_count == 0 without a
  // database).
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
  };
  uint32_t shard_count = 0;  ///< live shards, clamped to kMaxShards
  std::array<ShardSample, kMaxShards> shards{};

  // TraceSink accounting (filled by the owner from obs::TraceSink; zero
  // when no sink is attached).
  uint64_t trace_recorded = 0;          ///< events ever recorded
  uint64_t trace_dropped_wrap = 0;      ///< overwritten by ring wrap
  uint64_t trace_dropped_torn = 0;      ///< skipped by racing exports
  uint64_t trace_dropped_overflow = 0;  ///< threads without a ring

  double uptime_seconds = 0;        ///< registry lifetime at snapshot time

  // Process memory (filled by the owner from read_process_memory(); zero
  // where the platform does not report it).
  uint64_t process_resident_bytes = 0;       ///< gauge: VmRSS
  uint64_t process_peak_resident_bytes = 0;  ///< gauge: VmHWM

  /// Aggregate throughput over every completed request.
  double aggregate_gcups() const noexcept {
    return kernel_seconds > 0
               ? static_cast<double>(cells) / kernel_seconds / 1e9
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
};

/// This process's resident set size now and at its peak, in bytes, from
/// VmRSS and VmHWM in /proc/self/status; zeros where that is unavailable.
struct ProcessMemory {
  uint64_t resident_bytes = 0;
  uint64_t peak_resident_bytes = 0;
};
ProcessMemory read_process_memory() noexcept;

namespace detail {
/// Owned shards per registry (MetricsRegistry::kThreadShards). Indices are
/// held for a thread's whole life and executor pools default to one worker
/// per hardware thread, so the index space covers the pool, the submitters
/// and the server threads of hosts with up to a few hundred hardware
/// threads. A shard is allocated only when its index first records, so an
/// index no thread takes costs one pointer per registry.
inline constexpr unsigned kMetricsShards = 256;
/// Registry shard index of the calling thread: an index below
/// kMetricsShards that it alone holds, or one of the two values below.
inline constexpr unsigned kNoShard = ~0u;  ///< none held yet; try to take one
inline constexpr unsigned kRetiredShard = ~0u - 1;  ///< returned at exit
inline constinit thread_local unsigned t_metrics_shard = kNoShard;
/// Take the lowest free index from the process-wide free list for the
/// calling thread, to be returned when the thread exits; kNoShard when
/// every index is held by a live thread.
unsigned acquire_metrics_shard() noexcept;

/// Add `v` to a counter that one writer at a time updates: a relaxed load
/// and store, with no locked instruction. Readers still load it atomically.
inline void owned_add(std::atomic<uint64_t>& c, uint64_t v = 1) noexcept {
  c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}
}  // namespace detail

/// Counters + histograms; one per AlignService. All members are
/// thread-safe; see MetricsSnapshot for the read side.
///
/// Storage is sharded by recording thread. A thread takes a shard index
/// from a process-wide free list when it first records, records into that
/// shard of every registry, and returns the index when it exits, so index i
/// is written by one live thread at a time. Every update is therefore a
/// relaxed load and store. A thread that finds no free index, or whose
/// shard cannot be allocated, records into the overflow shard under the
/// registry's overflow_mu_, through the same update code. Shards are
/// allocated when their index first records here; the overflow shard exists
/// from construction.
class MetricsRegistry {
 public:
  /// Owned shards per registry: at most this many live threads record
  /// without a lock; the rest share the overflow shard.
  static constexpr unsigned kThreadShards = detail::kMetricsShards;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void on_submitted() noexcept { add(shard()->submitted); }
  void on_inline_run() noexcept { add(shard()->inline_runs); }
  void on_rejected_queue_full() noexcept {
    add(shard()->rejected_queue_full);
  }
  void on_deadline_expired() noexcept { add(shard()->deadline_expired); }
  void on_invalid_request() noexcept { add(shard()->invalid_request); }
  void on_aborted() noexcept { add(shard()->aborted); }

  void on_queue_wait(double seconds) noexcept {
    shard()->queue_wait.record(seconds);
  }

  /// One completed request.
  void on_completed(Scenario s, double kernel_seconds,
                    uint64_t cells) noexcept {
    const Writer w = shard();
    // The release store pairs with snapshot()'s acquire loads, which read a
    // shard's scenario counters before its completed count, so a snapshot
    // never shows more per-scenario completions than total completions.
    add(w->completed);
    std::atomic<uint64_t>& by = w->by_scenario[static_cast<int>(s)];
    by.store(by.load(kRelaxed) + 1, std::memory_order_release);
    add(w->cells, cells);
    add(w->kernel_ns, static_cast<uint64_t>(kernel_seconds * 1e9));
    w->kernel_time.record(kernel_seconds);
  }

  /// Record the batch kernel's padded vs useful 8-bit cell counts for one
  /// completed batch-path request (see core::BatchSearchStats).
  void on_batch_packing(uint64_t cells8, uint64_t useful_cells8) noexcept {
    const Writer w = shard();
    add(w->batch_cells8, cells8);
    add(w->batch_useful_cells8, useful_cells8);
  }

  /// Fold one span's hardware-counter deltas into the ISA×kernel×width
  /// attribution cell. `d.samples` should be 1 for a single span.
  void on_pmu_sample(simd::Isa isa, KernelVariant variant, uint16_t width_bits,
                     const PmuSample& d) noexcept {
    const auto i = static_cast<size_t>(isa);
    const auto k = static_cast<size_t>(variant);
    if (i >= static_cast<size_t>(MetricsSnapshot::kIsas) ||
        k >= static_cast<size_t>(MetricsSnapshot::kKernelVariants))
      return;
    const Writer w = shard();
    PmuCell& c = w->pmu[i][k][MetricsSnapshot::width_index(width_bits)];
    add(c.samples, d.samples);
    add(c.wall_ns, d.wall_ns);
    add(c.cycles, d.cycles);
    add(c.instructions, d.instructions);
    add(c.stall_frontend, d.stall_frontend);
    add(c.stall_backend, d.stall_backend);
    add(c.llc_misses, d.llc_misses);
    add(c.branch_misses, d.branch_misses);
  }

  /// The watchdog flagged a request as exceeding the latency SLO.
  void on_slow_request() noexcept { add(shard()->slow_requests); }

  // Serving front-door events (recorded by net::Server).
  void on_result_cache_hit() noexcept { add(shard()->result_cache_hits); }
  void on_result_cache_miss() noexcept { add(shard()->result_cache_misses); }
  void on_result_cache_eviction() noexcept {
    add(shard()->result_cache_evictions);
  }
  void on_coalesced() noexcept { add(shard()->coalesced); }
  void on_connection_accepted() noexcept {
    add(shard()->server_connections);
  }
  void on_frame_rx(uint64_t bytes) noexcept {
    const Writer w = shard();
    add(w->server_frames_rx);
    add(w->server_bytes_rx, bytes);
  }
  void on_frame_tx(uint64_t bytes) noexcept {
    const Writer w = shard();
    add(w->server_frames_tx);
    add(w->server_bytes_tx, bytes);
  }
  void on_protocol_error() noexcept { add(shard()->server_protocol_errors); }
  void on_http_scrape() noexcept { add(shard()->server_http_scrapes); }
  // Front-door gauges, set by net::Server's loop thread.
  void set_active_connections(uint64_t n) noexcept {
    active_connections_.store(n, kRelaxed);
  }
  void set_result_cache_entries(uint64_t n) noexcept {
    result_cache_entries_.store(n, kRelaxed);
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
    const Writer w = shard();
    add(w->tier_requests[t][sc]);
    w->tier_latency[t].record(total_s);
  }

  /// Bucket one accepted query's length into its workload regime.
  void on_query_length(uint64_t residues) noexcept {
    add(shard()->query_length_bins[MetricsSnapshot::length_bin_of(residues)]);
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
    const Writer w = shard();
    add(w->target_requests[i][k]);
    add(w->target_cells[i][k], cells);
  }

  MetricsSnapshot snapshot() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr auto kRelaxed = std::memory_order_relaxed;
  static void add(std::atomic<uint64_t>& c, uint64_t v = 1) noexcept {
    detail::owned_add(c, v);
  }
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

  /// Everything one recording thread writes, on cache lines of its own.
  struct alignas(64) Shard {
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> inline_runs{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> rejected_queue_full{0};
    std::atomic<uint64_t> deadline_expired{0};
    std::atomic<uint64_t> invalid_request{0};
    std::atomic<uint64_t> aborted{0};
    std::array<std::atomic<uint64_t>, MetricsSnapshot::kScenarios>
        by_scenario{};
    std::atomic<uint64_t> cells{0};
    std::atomic<uint64_t> kernel_ns{0};
    std::atomic<uint64_t> batch_cells8{0};
    std::atomic<uint64_t> batch_useful_cells8{0};
    std::array<std::array<std::atomic<uint64_t>,
                          MetricsSnapshot::kKernelVariants>,
               MetricsSnapshot::kIsas>
        target_requests{};
    std::array<std::array<std::atomic<uint64_t>,
                          MetricsSnapshot::kKernelVariants>,
               MetricsSnapshot::kIsas>
        target_cells{};
    std::array<std::array<std::array<PmuCell, MetricsSnapshot::kWidths>,
                          MetricsSnapshot::kKernelVariants>,
               MetricsSnapshot::kIsas>
        pmu{};
    std::atomic<uint64_t> slow_requests{0};
    std::atomic<uint64_t> result_cache_hits{0};
    std::atomic<uint64_t> result_cache_misses{0};
    std::atomic<uint64_t> result_cache_evictions{0};
    std::atomic<uint64_t> coalesced{0};
    std::atomic<uint64_t> server_connections{0};
    std::atomic<uint64_t> server_frames_rx{0};
    std::atomic<uint64_t> server_frames_tx{0};
    std::atomic<uint64_t> server_bytes_rx{0};
    std::atomic<uint64_t> server_bytes_tx{0};
    std::atomic<uint64_t> server_protocol_errors{0};
    std::atomic<uint64_t> server_http_scrapes{0};
    std::array<std::array<std::atomic<uint64_t>, MetricsSnapshot::kScenarios>,
               MetricsSnapshot::kQosTiers>
        tier_requests{};
    std::array<std::atomic<uint64_t>, MetricsSnapshot::kLengthBins>
        query_length_bins{};
    std::array<LatencyHistogram, MetricsSnapshot::kQosTiers> tier_latency;
    LatencyHistogram queue_wait;
    LatencyHistogram kernel_time;
  };

  /// The shard one update writes: the calling thread's own, or the
  /// overflow shard with overflow_mu_ held until the update ends.
  class Writer {
   public:
    explicit Writer(Shard& s) noexcept : shard_(&s) {}
    Writer(Shard& s, std::mutex& mu) noexcept : shard_(&s), lock_(mu) {}
    Shard* operator->() const noexcept { return shard_; }
    Shard& operator*() const noexcept { return *shard_; }

   private:
    Shard* shard_;
    std::unique_lock<std::mutex> lock_;
  };

  /// The calling thread's shard of this registry.
  Writer shard() noexcept {
    const unsigned i = detail::t_metrics_shard;
    if (i < kThreadShards) [[likely]]
      if (Shard* s = shards_[i].load(std::memory_order_acquire); s != nullptr)
        return Writer(*s);
    return claim_shard(i);
  }
  /// Slow path of shard(): take an index, allocate the index's shard, or
  /// fall back to the locked overflow shard.
  Writer claim_shard(unsigned i) noexcept;

  static uint64_t steady_ns(Clock::time_point t) noexcept {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }
  /// Owned shards [0, kThreadShards), then the overflow shard.
  std::array<std::atomic<Shard*>, kThreadShards + 1> shards_{};
  std::mutex overflow_mu_;  ///< serializes writers of the overflow shard
  std::atomic<uint64_t> active_connections_{0};
  std::atomic<uint64_t> result_cache_entries_{0};
  uint64_t start_ns_;       ///< construction instant, steady_ns() scale
};

}  // namespace swve::perf

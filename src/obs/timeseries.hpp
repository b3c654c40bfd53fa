// Telemetry history: a fixed-cadence, bounded ring of delta-encoded samples
// derived from consecutive MetricsSnapshot diffs — the service's one
// history of its own telemetry.
//
// Everything else in the observability stack answers "what is true right
// now"; this store answers "what changed over the last N seconds" — the
// feed the /varz endpoint streams, the SLO engine computes burn rates
// over, and the ROADMAP's online autotuner will key its per-(ISA × kernel
// × length-bin) decisions on. Each point carries *window* statistics
// (rates and per-window percentiles), not raw counters, so a reader never
// has to re-derive deltas: QPS per QoS tier, per-tier latency quantiles
// recomputed from subtracted histogram buckets, result-cache hit rate,
// queue depth, log-drop counts, active PMU attribution cells (IPC,
// backend-stall fraction, effective GHz over the interval), the AVX-512
// frequency ratio, the sampler's frequency probe, and the query-length
// regime histogram.
//
// The store does not own a thread: push() is called from the obs::Sampler
// tick (SamplerOptions::on_sample), so enabling history costs one frequency
// probe plus one snapshot diff per cadence and ~1 KiB per retained point.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "perf/metrics.hpp"

namespace swve::obs {

struct TimeSeriesOptions {
  double cadence_s = 1.0;  ///< nominal push period (reported, not enforced —
                           ///< the sampler thread owns the clock)
  size_t capacity = 600;   ///< points retained (oldest evicted)
};

/// One delta-encoded point: the window between two consecutive pushes.
struct TimeSeriesPoint {
  double t_s = 0;   ///< sample time, seconds on the pusher's clock
  double dt_s = 0;  ///< window length (this push minus the previous one)

  // Request flow over the window.
  double qps = 0;        ///< completed requests / s
  double error_qps = 0;  ///< rejected + deadline + invalid + aborted / s
  uint64_t completed_delta = 0;
  uint64_t submitted_delta = 0;
  uint64_t error_delta = 0;

  // Per-QoS-tier flow and window latency quantiles (recomputed from the
  // subtracted histogram buckets, not lifetime percentiles).
  std::array<double, perf::MetricsSnapshot::kQosTiers> tier_qps{};
  std::array<double, perf::MetricsSnapshot::kQosTiers> tier_p50_s{};
  std::array<double, perf::MetricsSnapshot::kQosTiers> tier_p99_s{};

  /// All-tier window latency histogram (merged tier deltas) — the SLO
  /// engine counts objective violations against this without the store
  /// knowing the latency target.
  perf::LatencyHistogram::Snapshot latency;

  // Caches / throughput / pressure.
  double cache_hit_rate = 0;  ///< result cache, this window only
  double gcups = 0;           ///< window GCUPS (cells delta / kernel-s delta)
  uint64_t queue_depth = 0;   ///< gauge at sample time
  uint64_t log_drops = 0;     ///< log drop+suppress deltas over the window

  // Microarchitecture: PMU attribution cells active in this window.
  struct PmuCellPoint {
    uint8_t isa = 0;     ///< simd::Isa index
    uint8_t kernel = 0;  ///< perf::KernelVariant index
    uint8_t width = 0;   ///< width index (perf::MetricsSnapshot::width_index)
    uint64_t spans = 0;  ///< spans folded in during the window
    double ipc = 0;
    double backend_stall_fraction = 0;
    double effective_ghz = 0;
  };
  std::vector<PmuCellPoint> pmu;  ///< only cells with cycle deltas
  double avx512_frequency_ratio = 0;  ///< lifetime gauge at sample time
  /// The sampler's frequency probe at sample time: the spin kernel's
  /// effective GHz on the sampler core, and the mean kernel-reported clock
  /// across CPUs (0 where cpufreq sysfs is absent). Unlike the PMU cells
  /// these need no perf_event access.
  double probe_ghz = 0;
  double cpufreq_ghz = 0;

  // Batch search: per-shard window throughput and pressure (empty without
  // a database). Live shard imbalance is visible as one
  // shard's gcups or queue_depth diverging from its peers'.
  struct ShardPoint {
    uint8_t shard = 0;
    int32_t node = -1;         ///< pinned NUMA node; -1 unpinned
    double gcups = 0;          ///< window cells delta / busy-seconds delta
    uint64_t searches = 0;     ///< searches retired this window
    uint64_t queue_depth = 0;  ///< gauge at sample time
    uint64_t llc_misses = 0;   ///< LLC-miss delta this window (0 = no PMU)
  };
  std::vector<ShardPoint> shards;

  // Workload characterization: queries per power-of-two length regime this
  // window (perf::MetricsSnapshot::length_bin_of), plus the busiest bin
  // (-1 = idle).
  std::array<uint64_t, perf::MetricsSnapshot::kLengthBins> length_bins{};
  int dominant_length_bin = -1;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  /// Fold a fresh snapshot taken at `t_s` (seconds, any monotonic origin —
  /// consecutive pushes must share it) into the ring. The first push seeds
  /// the delta baseline and records no point; a push with a non-positive
  /// dt re-seeds instead of recording a degenerate window. The gauges
  /// (queue depth, frequency probe) are stored as read. Thread-safe, but
  /// intended for a single pusher (the sampler thread).
  void push(const perf::MetricsSnapshot& snap, double t_s,
            uint64_t queue_depth = 0, double probe_ghz = 0,
            double cpufreq_ghz = 0);

  /// Points within the trailing `window_s` seconds of the newest point,
  /// oldest first (0 = everything retained).
  std::vector<TimeSeriesPoint> points(double window_s = 0) const;

  /// Newest point, if any window has completed.
  bool latest(TimeSeriesPoint* out) const;

  size_t size() const;
  const TimeSeriesOptions& options() const noexcept { return opt_; }

  /// Bounded JSON history for /varz:
  /// {"cadence_s":...,"capacity":...,"points":[{...},...]}. `series` is a
  /// comma-separated subset of {"qps","tiers","latency","cache","gcups",
  /// "queue","log","pmu","freq","lengths","shards"} gating the optional per-point
  /// sections (empty = all); `window_s` bounds history like points().
  std::string json(std::string_view series = {}, double window_s = 0) const;

  /// True when `name` is a known series selector (json() ignores unknown
  /// names; the endpoint uses this to answer 400 instead).
  static bool is_series_name(std::string_view name);

 private:
  TimeSeriesOptions opt_;
  mutable std::mutex mu_;
  bool have_prev_ = false;
  perf::MetricsSnapshot prev_;
  double prev_t_s_ = 0;
  std::deque<TimeSeriesPoint> ring_;
};

}  // namespace swve::obs

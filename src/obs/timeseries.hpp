// Telemetry history: a fixed-cadence, bounded ring of window points, each
// the window between two consecutive MetricsSnapshots — the service's one
// history of its own telemetry.
//
// Everything else in the observability stack answers "what is true right
// now"; this store answers "what changed over the last N seconds" — the
// feed the /varz endpoint streams and the SLO engine computes burn rates
// over. A point holds one value per series of the metric family table,
// turned into a window by the rule of its family's type (obs::WindowTable:
// counter deltas, newer gauges, subtracted histograms, ratios of deltas),
// so a reader never re-derives deltas and the store names no metric.
//
// The store does not own a thread: push() is called from the obs::Sampler
// tick (SamplerOptions::on_sample), so enabling history costs one frequency
// probe plus one snapshot diff per cadence and one point per tick
// (docs/observability.md gives its measured size).
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/exporters.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {

struct TimeSeriesOptions {
  double cadence_s = 1.0;  ///< nominal push period (reported, not enforced —
                           ///< the sampler thread owns the clock)
  size_t capacity = 600;   ///< points retained (oldest evicted)
};

/// One point: the window between two consecutive pushes.
struct TimeSeriesPoint {
  double t_s = 0;   ///< sample time, seconds on the pusher's clock
  double dt_s = 0;  ///< window length (this push minus the previous one)
  std::vector<uint8_t> window;  ///< encoded by the store's WindowTable
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions options = {});

  /// Fold a fresh snapshot taken at `t_s` (seconds, any monotonic origin —
  /// consecutive pushes must share it) into the ring. The first push seeds
  /// the baseline and records no point; a push with a non-positive dt
  /// re-seeds instead of recording a degenerate window. Thread-safe, but
  /// intended for a single pusher (the sampler thread).
  void push(const perf::MetricsSnapshot& snap, double t_s);

  /// Points within the trailing `window_s` seconds of the newest point,
  /// oldest first (0 = everything retained).
  std::vector<TimeSeriesPoint> points(double window_s = 0) const;

  size_t size() const;
  const TimeSeriesOptions& options() const noexcept { return opt_; }

  /// Bounded JSON history for /varz:
  /// {"cadence_s":...,"capacity":...,"points":[{"t_s":...,"dt_s":...,
  /// <family key>:<window value>...},...]}, each point carrying the
  /// `families` selected, in the shapes of render_metrics(Json);
  /// `window_s` bounds history like points().
  std::string json(const FamilySet& families = FamilySet().set(),
                   double window_s = 0) const;

  /// The SLO's view of each point within `window_s` of the newest one,
  /// oldest first (0 = everything retained).
  std::vector<SloWindow> slo_windows(double window_s) const;

 private:
  /// Index of the first point within `window_s` of the newest one.
  size_t first_within_locked(double window_s) const;

  TimeSeriesOptions opt_;
  mutable std::mutex mu_;
  bool have_prev_ = false;
  perf::MetricsSnapshot prev_;
  double prev_t_s_ = 0;
  WindowTable table_;
  std::vector<uint8_t> scratch_;  ///< the next point, before it is sized
  std::deque<TimeSeriesPoint> ring_;
};

}  // namespace swve::obs

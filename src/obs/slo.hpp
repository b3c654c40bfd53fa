// Multi-window burn-rate SLO alerting over the telemetry history ring.
//
// An error budget of (1 - objective) is "burning at rate B" when the
// bad-event fraction over a window is B times the budget; sustained B > 1
// exhausts the budget before the period ends. Following SRE practice, an
// alert condition requires BOTH a fast window (catches a fresh regression
// quickly) and a slow window (confirms it is sustained, so a single burst
// that already ended does not page) to burn past the threshold. Two
// thresholds give two severities: warning (ticket) and firing (page),
// with consecutive-evaluation hysteresis in both directions so the state
// cannot flap at cadence granularity.
//
// The engine owns no thread and takes no locks on the request path: it is
// evaluated from the sampler tick, right after the TimeSeriesStore push,
// reading only the store's window points (TimeSeriesStore::slo_windows). State transitions emit
// structured "slo.state_change" log events; the current status surfaces
// in /statusz and every metrics format.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "obs/timeseries.hpp"

namespace swve::obs {

enum class AlertState : uint8_t { Ok = 0, Warning = 1, Firing = 2 };
const char* alert_state_name(AlertState s) noexcept;

struct SloOptions {
  /// Latency objective: at least `latency_objective` of requests complete
  /// within `latency_target_s`. 0 disables the latency SLO. Violations are
  /// counted from the window histogram buckets (exact at bucket
  /// boundaries, conservative inside a bucket).
  double latency_target_s = 0;
  double latency_objective = 0.99;

  /// Availability objective: at least this fraction of requests succeed
  /// (errors = requests_failed_total: rejected + deadline-expired + invalid
  /// + aborted). 0 disables the availability SLO.
  double availability_objective = 0.999;

  // Burn-rate windows and thresholds (SRE-workbook defaults: a page at
  // 14.4x burns 2% of a 30-day budget in an hour).
  double fast_window_s = 60;
  double slow_window_s = 600;
  double firing_burn = 14.4;
  double warning_burn = 6.0;

  // Hysteresis: consecutive evaluations at a higher severity needed to
  // escalate, and at a lower severity to de-escalate.
  int enter_evals = 2;
  int exit_evals = 3;

  bool enabled() const noexcept {
    return latency_target_s > 0 || availability_objective > 0;
  }
};

/// Last evaluation's burn rates plus the hysteresis-filtered alert state.
struct SloStatus {
  AlertState state = AlertState::Ok;    ///< filtered (the alert surface)
  AlertState instant = AlertState::Ok;  ///< this evaluation's raw severity
  double latency_fast_burn = 0;
  double latency_slow_burn = 0;
  double availability_fast_burn = 0;
  double availability_slow_burn = 0;
  uint64_t evaluations = 0;
  uint64_t transitions = 0;  ///< filtered-state changes over the lifetime
  double since_s = 0;        ///< t_s of the last transition (0 = never)
};

class SloEngine {
 public:
  /// `store` must outlive the engine (both are owned by AlignService, the
  /// store outliving the sampler that drives evaluate()).
  SloEngine(SloOptions options, const TimeSeriesStore* store);

  /// Recompute burn rates over the fast/slow windows of the store's ring
  /// and advance the alert state machine; `t_s` is the pusher's clock.
  /// Thread-safe, intended for the sampler thread after each push.
  SloStatus evaluate(double t_s);

  SloStatus status() const;
  const SloOptions& options() const noexcept { return opt_; }

  /// {"state":"ok",...} — the /statusz "slo" section.
  std::string json() const;

 private:
  struct Burn {
    double latency = 0;
    double availability = 0;
  };
  Burn window_burn(const std::vector<SloWindow>& pts, double now_s,
                   double window_s) const;

  SloOptions opt_;
  const TimeSeriesStore* store_;
  mutable std::mutex mu_;
  SloStatus status_;
  int up_streak_ = 0;
  int down_streak_ = 0;
};

}  // namespace swve::obs

#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/log.hpp"

namespace swve::obs {

const char* alert_state_name(AlertState s) noexcept {
  switch (s) {
    case AlertState::Ok: return "ok";
    case AlertState::Warning: return "warning";
    case AlertState::Firing: return "firing";
  }
  return "?";
}

SloEngine::SloEngine(SloOptions options, const TimeSeriesStore* store)
    : opt_(options), store_(store) {
  if (opt_.fast_window_s <= 0) opt_.fast_window_s = 60;
  if (opt_.slow_window_s < opt_.fast_window_s)
    opt_.slow_window_s = opt_.fast_window_s;
  if (opt_.enter_evals < 1) opt_.enter_evals = 1;
  if (opt_.exit_evals < 1) opt_.exit_evals = 1;
}

SloEngine::Burn SloEngine::window_burn(const std::vector<SloWindow>& pts,
                                       double now_s, double window_s) const {
  Burn burn;
  uint64_t lat_bad = 0, lat_total = 0, av_bad = 0, av_total = 0;
  const double cutoff = now_s - window_s;
  for (const SloWindow& p : pts) {
    if (p.t_s < cutoff) continue;
    if (opt_.latency_target_s > 0) {
      lat_bad += p.latency.count_over(opt_.latency_target_s);
      lat_total += p.latency.count;
    }
    av_bad += p.failed;
    av_total += p.completed + p.failed;
  }
  if (opt_.latency_target_s > 0 && lat_total > 0) {
    const double budget = 1.0 - opt_.latency_objective;
    if (budget > 0)
      burn.latency = (static_cast<double>(lat_bad) /
                      static_cast<double>(lat_total)) /
                     budget;
  }
  if (opt_.availability_objective > 0 && av_total > 0) {
    const double budget = 1.0 - opt_.availability_objective;
    if (budget > 0)
      burn.availability =
          (static_cast<double>(av_bad) / static_cast<double>(av_total)) /
          budget;
  }
  return burn;
}

SloStatus SloEngine::evaluate(double t_s) {
  const std::vector<SloWindow> pts =
      store_ ? store_->slo_windows(opt_.slow_window_s)
             : std::vector<SloWindow>{};
  const Burn fast = window_burn(pts, t_s, opt_.fast_window_s);
  const Burn slow = window_burn(pts, t_s, opt_.slow_window_s);

  // Multi-window condition per objective: both windows burning. The alert
  // severity is the worst objective's.
  const double lat = std::min(fast.latency, slow.latency);
  const double avail = std::min(fast.availability, slow.availability);
  const double worst = std::max(lat, avail);
  const AlertState instant = worst >= opt_.firing_burn ? AlertState::Firing
                             : worst >= opt_.warning_burn
                                 ? AlertState::Warning
                                 : AlertState::Ok;

  std::lock_guard<std::mutex> lk(mu_);
  status_.instant = instant;
  status_.latency_fast_burn = fast.latency;
  status_.latency_slow_burn = slow.latency;
  status_.availability_fast_burn = fast.availability;
  status_.availability_slow_burn = slow.availability;
  status_.evaluations += 1;

  // Hysteresis: escalate after enter_evals consecutive higher-severity
  // evaluations, de-escalate after exit_evals consecutive lower-severity
  // ones. Matching severity resets both streaks.
  AlertState next = status_.state;
  if (instant > status_.state) {
    down_streak_ = 0;
    if (++up_streak_ >= opt_.enter_evals) next = instant;
  } else if (instant < status_.state) {
    up_streak_ = 0;
    if (++down_streak_ >= opt_.exit_evals) next = instant;
  } else {
    up_streak_ = down_streak_ = 0;
  }
  if (next != status_.state) {
    const AlertState from = status_.state;
    status_.state = next;
    status_.transitions += 1;
    status_.since_s = t_s;
    up_streak_ = down_streak_ = 0;
    const LogField fields[] = {
        {"from", alert_state_name(from)},
        {"to", alert_state_name(next)},
        {"latency_burn", slow.latency},
        {"availability_burn", slow.availability},
        {"evaluations", static_cast<unsigned long long>(status_.evaluations)},
    };
    if (next == AlertState::Ok)
      log_info("slo.state_change", {fields[0], fields[1], fields[2],
                                    fields[3], fields[4]});
    else
      log_warn("slo.state_change", {fields[0], fields[1], fields[2],
                                    fields[3], fields[4]});
  }
  return status_;
}

SloStatus SloEngine::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_;
}

std::string SloEngine::json() const {
  const SloStatus s = status();
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"state\":\"%s\",\"instant\":\"%s\","
      "\"latency\":{\"target_ms\":%.6g,\"objective\":%.6g,"
      "\"fast_burn\":%.4g,\"slow_burn\":%.4g},"
      "\"availability\":{\"objective\":%.6g,\"fast_burn\":%.4g,"
      "\"slow_burn\":%.4g},"
      "\"windows\":{\"fast_s\":%.6g,\"slow_s\":%.6g},"
      "\"thresholds\":{\"firing\":%.6g,\"warning\":%.6g},"
      "\"evaluations\":%llu,\"transitions\":%llu,\"since_s\":%.3f}",
      alert_state_name(s.state), alert_state_name(s.instant),
      opt_.latency_target_s * 1e3, opt_.latency_objective,
      s.latency_fast_burn, s.latency_slow_burn, opt_.availability_objective,
      s.availability_fast_burn, s.availability_slow_burn, opt_.fast_window_s,
      opt_.slow_window_s, opt_.firing_burn, opt_.warning_burn,
      static_cast<unsigned long long>(s.evaluations),
      static_cast<unsigned long long>(s.transitions), s.since_s);
  return buf;
}

}  // namespace swve::obs

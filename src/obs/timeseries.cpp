#include "obs/timeseries.hpp"

#include <cstdio>

namespace swve::obs {

TimeSeriesStore::TimeSeriesStore(TimeSeriesOptions options) : opt_(options) {
  if (opt_.cadence_s <= 0) opt_.cadence_s = 1.0;
  if (opt_.capacity == 0) opt_.capacity = 1;
}

void TimeSeriesStore::push(const perf::MetricsSnapshot& snap, double t_s) {
  std::lock_guard<std::mutex> lk(mu_);
  if (have_prev_ && t_s > prev_t_s_) {
    scratch_.clear();
    table_.window(prev_, snap, scratch_);
    // An exactly sized copy: the ring keeps it for the retention period.
    ring_.push_back({t_s, t_s - prev_t_s_,
                     std::vector<uint8_t>(scratch_.begin(), scratch_.end())});
    while (ring_.size() > opt_.capacity) ring_.pop_front();
  }
  // First push, or a non-advancing clock: only (re)seed the baseline.
  prev_ = snap;
  prev_t_s_ = t_s;
  have_prev_ = true;
}

size_t TimeSeriesStore::first_within_locked(double window_s) const {
  if (ring_.empty() || window_s <= 0) return 0;
  const double cutoff = ring_.back().t_s - window_s;
  size_t i = 0;
  while (ring_[i].t_s < cutoff) ++i;
  return i;
}

std::vector<TimeSeriesPoint> TimeSeriesStore::points(double window_s) const {
  std::lock_guard<std::mutex> lk(mu_);
  return {ring_.begin() + static_cast<std::ptrdiff_t>(
                              first_within_locked(window_s)),
          ring_.end()};
}

size_t TimeSeriesStore::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ring_.size();
}

std::string TimeSeriesStore::json(const FamilySet& families,
                                  double window_s) const {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"cadence_s\":%.6g,\"capacity\":%zu,",
                opt_.cadence_s, opt_.capacity);
  std::string out = buf;
  out += "\"points\":[";
  for (size_t i = first_within_locked(window_s); i < ring_.size(); ++i) {
    const TimeSeriesPoint& p = ring_[i];
    std::snprintf(buf, sizeof buf, "%s\n{\"t_s\":%.3f,\"dt_s\":%.3f",
                  out.back() == '[' ? "" : ",", p.t_s, p.dt_s);
    out += buf;
    table_.append_json(out, p.window, families);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::vector<SloWindow> TimeSeriesStore::slo_windows(double window_s) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SloWindow> out;
  for (size_t i = first_within_locked(window_s); i < ring_.size(); ++i) {
    out.push_back(table_.slo_window(ring_[i].window));
    out.back().t_s = ring_[i].t_s;
  }
  return out;
}

}  // namespace swve::obs

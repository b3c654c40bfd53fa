#include "obs/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/log.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {

namespace {

/// JSON array of the spans recorded so far under `trace_id` (name, ts, dur,
/// and — when present — the PMU delta). Bounded: the watchdog runs while
/// the service is live, so keep records small.
std::string spans_json_for(TraceSink* sink, uint64_t trace_id) {
  if (sink == nullptr) return "[]";
  std::string out = "[";
  char buf[256];
  bool first = true;
  size_t kept = 0;
  constexpr size_t kMaxSpans = 64;
  for (const TraceEvent& e : sink->snapshot_events()) {
    if (e.trace_id != trace_id) continue;
    if (++kept > kMaxSpans) break;
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ts_ns\":%" PRIu64
                  ",\"dur_ns\":%" PRIu64,
                  first ? "" : ",", e.name, e.ts_ns, e.dur_ns);
    out += buf;
    first = false;
    if (e.cycles != 0) {
      std::snprintf(buf, sizeof buf,
                    ",\"cycles\":%" PRIu64 ",\"instructions\":%" PRIu64
                    ",\"ipc\":%.3f,\"eff_ghz\":%.3f",
                    e.cycles, e.instructions, e.ipc(), e.effective_ghz());
      out += buf;
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace

std::string SlowRequestRecord::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"trace_id\":%" PRIu64
                ",\"scenario\":\"%s\",\"slot\":%u,\"running_s\":%.3f,"
                "\"slo_s\":%.3f,\"past_deadline\":%s,\"queue_depth\":%zu,"
                "\"spans\":",
                trace_id, perf::scenario_label(scenario), slot, running_s, slo_s,
                past_deadline ? "true" : "false", queue_depth);
  std::string out = buf;
  out += spans_json.empty() ? "[]" : spans_json;
  out += "}";
  return out;
}

Watchdog::Watchdog(const InFlightTable& table, WatchdogOptions options,
                   TraceSink* sink, perf::MetricsRegistry* registry,
                   std::function<size_t()> queue_depth)
    : table_(table),
      options_(options),
      sink_(sink),
      registry_(registry),
      queue_depth_(std::move(queue_depth)),
      reported_(table.slots(), 0) {
  thread_ = std::thread([this] { loop(); });
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Watchdog::loop() {
  const auto period = std::chrono::duration<double>(
      options_.period_s > 0 ? options_.period_s : 0.05);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, period, [this] { return stop_; })) return;
    lock.unlock();
    scan_once();
    lock.lock();
  }
}

void Watchdog::scan_once() {
  constexpr size_t kMaxSlots = 256;
  InFlightTable::Entry entries[kMaxSlots];
  const size_t n = table_.snapshot(
      entries, std::min<size_t>(kMaxSlots, table_.slots()));
  const uint64_t now = steady_now_ns();
  const uint64_t slo_ns =
      static_cast<uint64_t>(options_.slo_s * 1e9);
  for (size_t i = 0; i < n; ++i) {
    const InFlightTable::Entry& e = entries[i];
    if (e.start_ns == 0 || now <= e.start_ns) continue;
    const uint64_t running = now - e.start_ns;
    if (running < slo_ns) continue;

    {
      // One record per occupancy: a request breaching the SLO stays
      // breaching on every later scan until its slot is released.
      std::lock_guard<std::mutex> lock(mu_);
      if (e.slot < reported_.size() && reported_[e.slot] == e.id) continue;
      if (e.slot < reported_.size()) reported_[e.slot] = e.id;
      ++detected_;
    }

    SlowRequestRecord rec;
    rec.trace_id = e.id;
    rec.scenario = e.scenario;
    rec.slot = e.slot;
    rec.running_s = static_cast<double>(running) * 1e-9;
    rec.slo_s = options_.slo_s;
    rec.past_deadline = e.deadline_ns != 0 && now > e.deadline_ns;
    rec.queue_depth = queue_depth_ ? queue_depth_() : 0;
    rec.spans_json = spans_json_for(sink_, e.id);

    if (registry_ != nullptr) registry_->on_slow_request();
    log_warn("watchdog.slow_request", {{"trace_id", rec.trace_id},
                                       {"running_s", rec.running_s},
                                       {"slo_s", rec.slo_s},
                                       {"past_deadline", rec.past_deadline},
                                       {"queue_depth", rec.queue_depth}});

    std::lock_guard<std::mutex> lock(mu_);
    if (records_.size() >= options_.capacity)
      records_.erase(records_.begin());
    records_.push_back(std::move(rec));
  }
}

uint64_t Watchdog::detected() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return detected_;
}

std::vector<SlowRequestRecord> Watchdog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::string Watchdog::json() const {
  const std::vector<SlowRequestRecord> recs = records();
  std::string out = "[";
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i > 0) out += ",";
    out += recs[i].to_json();
  }
  out += "]";
  return out;
}

}  // namespace swve::obs

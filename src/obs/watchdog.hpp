// Latency-SLO watchdog: a background thread that scans the in-flight
// request table and emits a structured slow-request record for any request
// that has been executing longer than the SLO — the "why is this request
// stuck" black box, captured while the request is still running rather
// than reconstructed after it (maybe never) finishes.
//
// A record carries everything a post-mortem needs: the request id and
// scenario, how long it has been running against which SLO, the queue
// state at detection time, and the request's span tree pulled from the
// TraceSink (the spans recorded so far under that trace id). Records are
// deduplicated per occupancy — one record per slow request, not one per
// scan tick — and kept in a bounded ring exposed as JSON.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/inflight.hpp"
#include "obs/trace.hpp"

namespace swve::perf {
class MetricsRegistry;
}

namespace swve::obs {

/// One detected SLO breach.
struct SlowRequestRecord {
  uint64_t trace_id = 0;
  uint32_t scenario = 0;       ///< perf::Scenario code
  uint32_t slot = 0;           ///< in-flight table slot of the request
  double running_s = 0;        ///< execution time at detection
  double slo_s = 0;            ///< the breached threshold
  bool past_deadline = false;  ///< also past its own request deadline
  size_t queue_depth = 0;      ///< service queue depth at detection
  std::string spans_json;      ///< span tree so far, JSON array

  std::string to_json() const;
};

struct WatchdogOptions {
  double slo_s = 1.0;      ///< execution-time SLO
  double period_s = 0.05;  ///< scan period
  size_t capacity = 64;    ///< slow-request records retained
};

/// Owns the scan thread; construction starts it, destruction joins it.
class Watchdog {
 public:
  /// `table` must outlive the watchdog. `sink`/`registry` may be null
  /// (records then carry no span tree / no slow_requests counter).
  /// `queue_depth` is sampled at detection time (may be empty).
  Watchdog(const InFlightTable& table, WatchdogOptions options,
           TraceSink* sink, perf::MetricsRegistry* registry,
           std::function<size_t()> queue_depth);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Total SLO breaches detected since construction.
  uint64_t detected() const noexcept;
  /// Copy of the retained records (oldest first).
  std::vector<SlowRequestRecord> records() const;
  /// Records as a JSON array.
  std::string json() const;

  /// Run one scan now (tests; also called by the scan thread).
  void scan_once();

 private:
  void loop();

  const InFlightTable& table_;
  const WatchdogOptions options_;
  TraceSink* sink_;
  perf::MetricsRegistry* registry_;
  std::function<size_t()> queue_depth_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<SlowRequestRecord> records_;  // bounded ring, oldest first
  std::vector<uint64_t> reported_;          // per-slot id of last report
  uint64_t detected_ = 0;
  std::thread thread_;
};

}  // namespace swve::obs

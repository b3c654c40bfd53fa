// Live profiling sampler: a background thread that ticks at a fixed period,
// probing the effective core frequency (perf::freq_monitor's dependent-add
// probe) and snapshotting the service metrics, and hands both to on_sample.
//
// The sampler keeps no history of its own: the service's on_sample folds
// every tick into the obs::TimeSeriesStore (the one telemetry history, the
// /varz feed) and re-evaluates the SLO engine. That makes the paper's Fig 11
// data — effective frequency vs. load — collectable from a *running*
// service instead of only from the offline bench binaries. The probe runs
// the spin kernel for freq_probe_ms per tick on the sampler thread, so the
// steady-state overhead is period-independent CPU time of roughly
// freq_probe_ms / period_s (e.g. 5 ms probe at 1 s period = 0.5% of one
// core); size the period accordingly.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "perf/metrics.hpp"

namespace swve::obs {

/// One tick: when it fired and what the frequency probe read.
struct SamplerTick {
  double t_s = 0;          ///< seconds since the sampler started
  double probe_ghz = 0;    ///< effective frequency of the sampler core
  double cpufreq_ghz = 0;  ///< mean kernel-reported clock across CPUs
                           ///< (0 where cpufreq sysfs is absent)
};

struct SamplerOptions {
  double period_s = 1.0;      ///< time between ticks
  double freq_probe_ms = 5.0; ///< spin-kernel duration per frequency probe

  /// Called from the sampler thread once per tick with the tick's probe
  /// and the fresh MetricsSnapshot, whose sampler_probe_ghz and
  /// cpufreq_ghz carry that probe. Must stay valid until
  /// stop()/destruction; exceptions must not escape.
  std::function<void(const SamplerTick&, const perf::MetricsSnapshot&)>
      on_sample;
};

class Sampler {
 public:
  using Source = std::function<perf::MetricsSnapshot()>;

  /// Starts ticking immediately; `source` is called from the sampler
  /// thread and must stay valid until stop()/destruction.
  Sampler(SamplerOptions options, Source source);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stop the background thread (idempotent and safe to call from multiple
  /// threads concurrently, including concurrently with the destructor's
  /// implicit stop). No on_sample call runs after it returns.
  void stop();

 private:
  void loop();
  void tick();

  SamplerOptions opt_;
  Source source_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace swve::obs

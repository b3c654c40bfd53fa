#include "obs/sampler.hpp"

#include <utility>

#include "perf/freq_monitor.hpp"

namespace swve::obs {

Sampler::Sampler(SamplerOptions options, Source source)
    : opt_(std::move(options)),
      source_(std::move(source)),
      start_(std::chrono::steady_clock::now()) {
  if (opt_.period_s <= 0) opt_.period_s = 1.0;
  if (opt_.freq_probe_ms <= 0) opt_.freq_probe_ms = 1.0;
  thread_ = std::thread([this] { loop(); });
}

Sampler::~Sampler() { stop(); }

void Sampler::stop() {
  // Claim the thread handle under the lock, join outside it. Exactly one
  // of any number of concurrent stop() callers (the destructor included)
  // gets the live handle; the rest swap an empty thread and return without
  // ever touching thread_ unsynchronized.
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    t.swap(thread_);
  }
  cv_.notify_all();
  if (t.joinable()) t.join();
}

void Sampler::tick() {
  SamplerTick t;
  t.t_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
  t.probe_ghz = perf::measure_frequency(opt_.freq_probe_ms).ghz;
  // Kernel-reported clock, averaged over whichever CPUs expose cpufreq;
  // stays 0 (and costs a handful of failed opens) where the sysfs tree is
  // absent or partial — never aborts the sampler loop.
  const perf::CpufreqSummary cf = perf::cpufreq_summary(
      static_cast<int>(std::thread::hardware_concurrency()));
  t.cpufreq_ghz = cf.mean_khz * 1e-6;
  perf::MetricsSnapshot m = source_();
  m.sampler_probe_ghz = t.probe_ghz;
  m.cpufreq_ghz = t.cpufreq_ghz;
  if (opt_.on_sample) opt_.on_sample(t, m);
}

void Sampler::loop() {
  const auto period = std::chrono::duration<double>(opt_.period_s);
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    lk.unlock();
    tick();  // probe + snapshot + callback outside the lock
    lk.lock();
    cv_.wait_for(lk, period, [this] { return stop_; });
  }
}

}  // namespace swve::obs

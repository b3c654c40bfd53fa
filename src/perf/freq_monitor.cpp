#include "perf/freq_monitor.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace swve::perf {

uint64_t spin_chain(uint64_t iters, uint64_t* sink) {
  // 8 dependent register-register adds per loop iteration and nothing else
  // on the chain (the loop counter runs beside it); each add is 1 cycle on
  // every x86-64 core of the last two decades, so adds/second ~= core
  // frequency. The asm barriers keep the addend opaque and the adds apart.
  // `a` is never captured or addressed, so sanitizer builds keep it in a
  // register too.
  uint64_t a = *sink;
  uint64_t b = 1;
  asm volatile("" : "+r"(b));
  for (uint64_t k = 0; k < iters; ++k) {
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
    a += b; asm volatile("" : "+r"(a));
  }
  *sink = a;
  return iters * 8;
}

FreqSample measure_frequency(double millis) {
  using clock = std::chrono::steady_clock;
  FreqSample s;
  uint64_t sink = 1;
  // Calibrate iteration count to the requested duration.
  uint64_t iters = 1 << 20;
  for (;;) {
    auto t0 = clock::now();
#if defined(__x86_64__)
    uint64_t c0 = __rdtsc();
#endif
    uint64_t adds = spin_chain(iters, &sink);
#if defined(__x86_64__)
    uint64_t c1 = __rdtsc();
#endif
    double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt * 1e3 >= millis || iters >= (uint64_t{1} << 34)) {
      s.ghz = static_cast<double>(adds) / dt / 1e9;
#if defined(__x86_64__)
      s.tsc_ghz = static_cast<double>(c1 - c0) / dt / 1e9;
#endif
      return s;
    }
    iters *= 2;
  }
}

FreqScalingReport frequency_scaling(int max_threads, double millis_per_level) {
  FreqScalingReport rep;
  for (int t = 1; t <= max_threads; ++t) {
    std::atomic<bool> go{false}, stop{false};
    std::vector<double> ghz(static_cast<size_t>(t), 0.0);
    std::vector<std::thread> threads;
    for (int w = 0; w < t; ++w) {
      threads.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        // Everyone measures simultaneously; keep spinning until all done so
        // the load level stays constant during every measurement.
        ghz[static_cast<size_t>(w)] = measure_frequency(millis_per_level).ghz;
        uint64_t sink = 1;
        while (!stop.load(std::memory_order_acquire)) spin_chain(1 << 18, &sink);
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(millis_per_level * 1.5)));
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    double sum = 0, mn = 1e30;
    for (double g : ghz) {
      sum += g;
      if (g < mn) mn = g;
    }
    rep.threads.push_back(t);
    rep.ghz_mean.push_back(sum / t);
    rep.ghz_min.push_back(mn);
  }
  return rep;
}

uint64_t cpufreq_khz(int cpu) noexcept {
  if (cpu < 0 || cpu > 4095) return 0;
  char path[96];
  std::snprintf(path, sizeof path,
                "/sys/devices/system/cpu/cpu%d/cpufreq/scaling_cur_freq", cpu);
  // fopen + fscanf only: a missing node (offline CPU, heterogeneous part
  // with partial cpufreq coverage, container without the sysfs tree) is a
  // plain nullptr/short-read, never an exception or abort.
  std::FILE* f = std::fopen(path, "re");
  if (f == nullptr) return 0;
  unsigned long long khz = 0;
  const int got = std::fscanf(f, "%llu", &khz);
  std::fclose(f);
  return got == 1 ? static_cast<uint64_t>(khz) : 0;
}

CpufreqSummary cpufreq_summary(int max_cpus) noexcept {
  CpufreqSummary s;
  if (max_cpus <= 0) return s;
  if (max_cpus > 4096) max_cpus = 4096;
  double sum = 0;
  for (int c = 0; c < max_cpus; ++c) {
    ++s.cpus_scanned;
    const uint64_t khz = cpufreq_khz(c);
    if (khz == 0) continue;  // offline / no node: skip, don't fail the scan
    if (s.cpus_read == 0 || khz < s.min_khz) s.min_khz = khz;
    if (khz > s.max_khz) s.max_khz = khz;
    sum += static_cast<double>(khz);
    ++s.cpus_read;
  }
  if (s.cpus_read > 0) sum /= s.cpus_read;
  s.mean_khz = sum;
  return s;
}

}  // namespace swve::perf

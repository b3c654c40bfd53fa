#include "perf/topdown.hpp"

#include <algorithm>
#include <vector>

#include "obs/pmu.hpp"
#include "perf/freq_monitor.hpp"
#include "perf/timer.hpp"

namespace swve::perf {

namespace {

constexpr double kIssueWidth = 4.0;  // slots per cycle, Intel big cores

/// Slot breakdown from the calling thread's counter-group delta over the
/// workload (obs::PmuSession; multiplex-scaled).
void topdown_hw(const obs::PmuDelta& d, TopDownResult& out) {
  const double cy = static_cast<double>(d.cycles);
  const double slots = kIssueWidth * cy;
  out.cycles = d.cycles;
  out.instructions = d.instructions;
  out.ipc = d.ipc();
  out.retiring = std::min(1.0, static_cast<double>(d.instructions) / slots);
  out.frontend_bound =
      d.stall_frontend
          ? std::min(1.0 - out.retiring,
                     kIssueWidth * static_cast<double>(d.stall_frontend) / slots)
          : 0.0;
  // ~20 wasted slots per mispredicted branch (flush depth), capped.
  out.bad_speculation =
      std::min(0.3, 20.0 * static_cast<double>(d.branch_misses) / slots);
  out.backend_bound = std::max(
      0.0, 1.0 - out.retiring - out.frontend_bound - out.bad_speculation);
  // Memory share of backend: ~50 cycles per LLC miss as stall proxy.
  const double mem_cycles = 50.0 * static_cast<double>(d.llc_misses);
  const double backend_cycles = d.stall_backend
                                    ? static_cast<double>(d.stall_backend)
                                    : out.backend_bound * cy;
  const double mem_frac =
      backend_cycles > 0 ? std::min(1.0, mem_cycles / backend_cycles) : 0.0;
  out.memory_bound = out.backend_bound * mem_frac;
  out.core_bound = out.backend_bound - out.memory_bound;
  out.hardware_counters = true;
  out.source = "perf_event";
}

// Analytical fallback (DESIGN.md §4, substitution 3): the caller supplies
// the workload's retired-instruction and memory-traffic estimates; cycles
// come from the frequency and the workload's wall time; memory-bound slots
// are the fraction of time the traffic would take at measured streaming
// bandwidth; the remaining non-retiring slots are core bound. Front-end
// and bad-speculation are ~0 for these branch-free kernels.
void topdown_model(double secs, double ghz, const ModelInputs& model,
                   TopDownResult& out) {
  const double cycles = std::max(1.0, ghz * 1e9 * secs);
  const double slots = kIssueWidth * cycles;
  out.cycles = static_cast<uint64_t>(cycles);
  out.instructions = model.instructions;
  out.ipc = static_cast<double>(model.instructions) / cycles;
  out.retiring = std::min(1.0, static_cast<double>(model.instructions) / slots);
  out.frontend_bound = 0;
  out.bad_speculation = 0;
  out.backend_bound = std::max(0.0, 1.0 - out.retiring);
  double mem_frac;
  if (model.memory_fraction >= 0) {
    mem_frac = std::min(1.0, model.memory_fraction);
  } else {
    const double bw = streaming_bandwidth_gbps();
    const double mem_secs =
        bw > 0 ? static_cast<double>(model.mem_bytes) / (bw * 1e9) : 0.0;
    mem_frac = secs > 0 ? std::min(1.0, mem_secs / secs) : 0.0;
  }
  out.memory_bound = std::min(out.backend_bound, mem_frac);
  out.core_bound = out.backend_bound - out.memory_bound;
  out.hardware_counters = false;
  out.source = "model";
}

}  // namespace

double streaming_bandwidth_gbps() {
  static const double bw = [] {
    constexpr size_t kBytes = size_t{64} << 20;
    std::vector<uint64_t> buf(kBytes / 8, 1);
    // Warm touch, then time a read-accumulate sweep.
    uint64_t acc = 0;
    for (uint64_t v : buf) acc += v;
    Stopwatch sw;
    constexpr int kReps = 4;
    for (int r = 0; r < kReps; ++r)
      for (uint64_t v : buf) acc += v;
    double secs = sw.seconds();
    // Keep `acc` alive.
    if (acc == 0xdeadbeef) secs += 1e-12;
    return static_cast<double>(kBytes) * kReps / secs / 1e9;
  }();
  return bw;
}

TopDownResult topdown_analyze(const std::function<void()>& workload) {
  return topdown_analyze(workload, ModelInputs{});
}

TopDownResult topdown_analyze(const std::function<void()>& workload,
                              const ModelInputs& model) {
  obs::PmuSession& pmu = obs::PmuSession::instance();
  // The model measures the frequency on the idle machine, before the
  // workload; with counters open it needs it only if they read zero.
  double ghz = model.ghz;
  if (ghz <= 0 && !pmu.available()) ghz = measure_frequency(30).ghz;
  const obs::PmuReading begin = pmu.read();
  workload();
  const obs::PmuDelta d = obs::PmuSession::delta(begin, pmu.read());
  TopDownResult out;
  if (d.hw && d.cycles > 0 && d.instructions > 0) {
    topdown_hw(d, out);
    return out;
  }
  if (ghz <= 0) ghz = measure_frequency(30).ghz;
  topdown_model(static_cast<double>(d.wall_ns) / 1e9, ghz, model, out);
  return out;
}

}  // namespace swve::perf

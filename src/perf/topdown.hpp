// Top-down pipeline-slot analysis — the VTune substitute for Fig 12.
//
// The paper uses Intel VTune to classify pipeline slots into retiring /
// front-end bound / bad speculation / back-end bound, and splits back-end
// into memory-bound vs core-bound. This module reproduces that breakdown:
//   * when hardware counters work, it reads the calling thread's
//     obs::PmuSession counter group (cycles, instructions, frontend/backend
//     stall cycles, LLC and branch misses) before and after the workload —
//     the same group, multiplex scaling and forced test state the kernel
//     spans' swve_pmu_* attribution uses; swve opens perf_event nowhere
//     else;
//   * otherwise (common in VMs and containers) an analytical model derives
//     the same categories from caller-supplied instruction and traffic
//     estimates, the workload's wall time from the same reading, the core
//     frequency, and the measured streaming bandwidth.
// Either way the workload runs exactly once.
// DESIGN.md §4 (substitution 3) documents why the *relative* claims of
// Fig 12 — submatrix => core bound; 8-18% memory bound; hyperthreading
// raises slot efficiency — survive this substitution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace swve::perf {

struct TopDownResult {
  // Fractions of pipeline slots; sum ~= 1 when measured.
  double retiring = 0;
  double frontend_bound = 0;
  double bad_speculation = 0;
  double backend_bound = 0;
  // Split of backend_bound:
  double memory_bound = 0;
  double core_bound = 0;

  double ipc = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
  bool hardware_counters = false;  ///< false => analytical model
  std::string source;              ///< "perf_event" or "model"
};

/// Run `workload` once and produce the slot breakdown (counters only
/// count the calling thread).
TopDownResult topdown_analyze(const std::function<void()>& workload);

/// Caller-supplied estimates for the analytical model (used when hardware
/// counters are unavailable): how many instructions the workload retires
/// and how many bytes of DP state it moves. Kernel benches compute these
/// from per-cell op counts; see bench/fig12_microarch.
struct ModelInputs {
  uint64_t instructions = 0;
  uint64_t mem_bytes = 0;
  /// Effective core frequency (GHz) under the workload's concurrency level;
  /// 0 = measure on an idle machine before the workload runs (wrong when
  /// sibling threads will drop the frequency — pass the loaded value).
  double ghz = 0;
  /// Optional empirical memory share: fraction of runtime attributable to
  /// the memory hierarchy, measured by the caller (e.g. streaming vs
  /// hot-cache run of the same kernel). < 0 = use the bandwidth bound.
  double memory_fraction = -1;
};

/// Like topdown_analyze but falls back to the documented analytical model
/// with the supplied estimates instead of returning an empty breakdown.
TopDownResult topdown_analyze(const std::function<void()>& workload,
                              const ModelInputs& model);

/// Measured streaming bandwidth of this machine (GB/s), cached after the
/// first call; the model's memory-bound denominator.
double streaming_bandwidth_gbps();

}  // namespace swve::perf

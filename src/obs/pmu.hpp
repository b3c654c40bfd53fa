// Span-scoped hardware-counter attribution (perf_event counter groups).
//
// The paper's analysis (top-down pipeline slots, §IV; effective-frequency
// recalibration, §IV-E) needs per-kernel hardware evidence: which
// ISA×kernel×width combination is stalling, missing cache, or running at a
// throttled clock. perf::topdown_analyze wraps one whole workload in
// one-shot counters; this module makes the same counters *span-scoped* so
// every chunk.* trace span carries cycle/instruction/stall/miss deltas and
// a derived effective-frequency estimate (the AVX-512 license-throttling
// signal) at negligible cost.
//
// Design:
//   * One perf_event counter *group* per recording thread (leader: cycles;
//     members: instructions, frontend/backend stall cycles, LLC misses,
//     branch misses), opened lazily on first use and left running for the
//     thread's lifetime. A group schedules atomically, so member ratios
//     (IPC, stall fractions) are consistent even under multiplexing.
//   * Reading is one read(2) of the leader — a start/stop delta costs two
//     syscalls per span, paid only at chunk granularity (per database
//     partition / per 32-lane batch), never inside kernel loops.
//   * Graceful degradation everywhere: EPERM/EACCES (perf_event_paranoid)
//     and ENOENT/ENODEV (no PMU: VMs, containers) fall back to
//     wall-clock-only readings with hw=false; callers surface the state as
//     a `pmu_unavailable` gauge. Alignment results are identical either
//     way — the counters only observe. The library reads no environment:
//     an embedder turns attribution off with ServiceOptions'
//     obs.pmu_attribution, and tests force a state with simulate_for_test.
#pragma once

#include <cstdint>

namespace swve::obs {

/// Steady-clock nanoseconds (arbitrary epoch); the time base shared by
/// PmuReading, InFlightTable, and the watchdog.
uint64_t steady_now_ns() noexcept;

/// Point-in-time counter values for the calling thread. Monotone while the
/// thread lives; subtract two readings with PmuSession::delta().
struct PmuReading {
  bool hw = false;            ///< hardware values below are valid
  uint64_t ns = 0;            ///< steady_now_ns() at the read (always valid)
  uint64_t time_enabled = 0;  ///< group enabled time (multiplex scaling)
  uint64_t time_running = 0;  ///< group on-PMU time
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t stall_frontend = 0;
  uint64_t stall_backend = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
};

/// Counter deltas over a span, multiplex-scaled. With hw=false only
/// wall_ns is meaningful (the software-clock fallback).
struct PmuDelta {
  bool hw = false;
  uint64_t wall_ns = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t stall_frontend = 0;
  uint64_t stall_backend = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  double scale = 1.0;  ///< time_enabled/time_running correction applied

  double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double frontend_stall_fraction() const noexcept {
    return cycles > 0 ? static_cast<double>(stall_frontend) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  double backend_stall_fraction() const noexcept {
    return cycles > 0 ? static_cast<double>(stall_backend) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Cycles per wall nanosecond == effective GHz of the thread over the
  /// span. An AVX-512 span reporting markedly lower GHz than its AVX2
  /// neighbours is the license-throttling signature of the paper's §IV-E.
  double effective_ghz() const noexcept {
    return wall_ns > 0
               ? static_cast<double>(cycles) / static_cast<double>(wall_ns)
               : 0.0;
  }
};

/// Process-wide manager for per-thread counter groups. All methods are
/// thread-safe; read() touches only the calling thread's group.
class PmuSession {
 public:
  enum class State : int {
    Unknown = 0,   ///< not probed yet
    Available,     ///< counter groups open and counting
    Disabled,      ///< forced off (simulate_for_test("off"))
    Eperm,         ///< perf_event_paranoid locked down (or simulated)
    Enoent,        ///< no PMU: VM/container without hardware events
  };

  static PmuSession& instance() noexcept;

  /// Probe (once) and report whether hardware counters work here.
  bool available() noexcept { return state() == State::Available; }
  State state() noexcept;
  /// "", "disabled", "eperm", or "enoent".
  const char* unavailable_reason() noexcept;

  /// Read the calling thread's counter group (opening it on first use).
  /// Always fills `ns`; hw=false when degraded.
  PmuReading read() noexcept { return read_at(steady_now_ns()); }
  /// read() stamped with `ns`, a steady_now_ns() value the caller already
  /// took for this instant; reads no clock of its own.
  PmuReading read_at(uint64_t ns) noexcept;

  /// end - begin, multiplex-scaled; hw only if both readings were hw.
  static PmuDelta delta(const PmuReading& begin,
                        const PmuReading& end) noexcept;

  /// Force the availability state for tests: "eperm" and "off" simulate the
  /// locked-down / disabled paths, nullptr re-probes the real hardware.
  /// Already-open per-thread groups are bypassed, not closed.
  void simulate_for_test(const char* mode) noexcept;

 private:
  PmuSession() = default;
};

}  // namespace swve::obs

#include "obs/pmu.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace swve::obs {

uint64_t steady_now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::atomic<int> g_state{static_cast<int>(PmuSession::State::Unknown)};

#if defined(__linux__)

// Logical counters, in PmuReading field order. The leader (cycles) must
// open; members are best-effort — a CPU without stall-cycle events still
// delivers cycles/instructions/misses.
struct EventSpec {
  uint64_t config;
};
constexpr EventSpec kEvents[] = {
    {PERF_COUNT_HW_CPU_CYCLES},
    {PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_COUNT_HW_STALLED_CYCLES_FRONTEND},
    {PERF_COUNT_HW_STALLED_CYCLES_BACKEND},
    {PERF_COUNT_HW_CACHE_MISSES},
    {PERF_COUNT_HW_BRANCH_MISSES},
};
constexpr int kNumEvents = sizeof(kEvents) / sizeof(kEvents[0]);

int open_event(uint64_t config, int group_fd, bool leader) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = leader ? 1 : 0;  // the whole group starts via the leader
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  if (leader)
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

/// One counter group owned by (and bound to) a single thread; fds close on
/// thread exit via the thread_local destructor.
struct ThreadGroup {
  int fd[kNumEvents];       // fd[i] < 0: event unavailable on this CPU
  int slot[kNumEvents];     // position of event i in the group read buffer
  int members = 0;          // events that actually opened
  bool tried = false;

  ThreadGroup() {
    for (int i = 0; i < kNumEvents; ++i) {
      fd[i] = -1;
      slot[i] = -1;
    }
  }
  ~ThreadGroup() {
    for (int i = 0; i < kNumEvents; ++i)
      if (fd[i] >= 0) close(fd[i]);
  }

  /// Open the group; returns 0 on success or the errno of the leader open.
  int open() {
    tried = true;
    fd[0] = open_event(kEvents[0].config, -1, /*leader=*/true);
    if (fd[0] < 0) return errno != 0 ? errno : ENOENT;
    slot[0] = members++;
    for (int i = 1; i < kNumEvents; ++i) {
      fd[i] = open_event(kEvents[i].config, fd[0], /*leader=*/false);
      if (fd[i] >= 0) slot[i] = members++;
    }
    ioctl(fd[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fd[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    return 0;
  }

  bool ok() const { return fd[0] >= 0; }

  bool read_group(PmuReading& r) const {
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
    uint64_t buf[3 + kNumEvents] = {};
    const ssize_t want =
        static_cast<ssize_t>((3 + static_cast<size_t>(members)) * 8);
    if (::read(fd[0], buf, sizeof buf) < want) return false;
    r.time_enabled = buf[1];
    r.time_running = buf[2];
    uint64_t v[kNumEvents];
    for (int i = 0; i < kNumEvents; ++i)
      v[i] = slot[i] >= 0 ? buf[3 + slot[i]] : 0;
    r.cycles = v[0];
    r.instructions = v[1];
    r.stall_frontend = v[2];
    r.stall_backend = v[3];
    r.llc_misses = v[4];
    r.branch_misses = v[5];
    r.hw = true;
    return true;
  }
};

ThreadGroup& thread_group() {
  thread_local ThreadGroup group;
  return group;
}

PmuSession::State classify_errno(int err) {
  return (err == EPERM || err == EACCES) ? PmuSession::State::Eperm
                                         : PmuSession::State::Enoent;
}

#endif  // __linux__

}  // namespace

PmuSession& PmuSession::instance() noexcept {
  static PmuSession session;
  return session;
}

PmuSession::State PmuSession::state() noexcept {
  int s = g_state.load(std::memory_order_acquire);
  if (s != static_cast<int>(State::Unknown)) return static_cast<State>(s);

#if defined(__linux__)
  ThreadGroup& g = thread_group();
  const int err = g.tried ? (g.ok() ? 0 : ENOENT) : g.open();
  const State probed = err == 0 ? State::Available : classify_errno(err);
#else
  const State probed = State::Enoent;
#endif
  // First probe wins; a concurrent prober reached the same conclusion
  // (kernel state does not change between the races we care about).
  int expected = static_cast<int>(State::Unknown);
  g_state.compare_exchange_strong(expected, static_cast<int>(probed),
                                  std::memory_order_acq_rel);
  return static_cast<State>(g_state.load(std::memory_order_acquire));
}

const char* PmuSession::unavailable_reason() noexcept {
  switch (state()) {
    case State::Available: return "";
    case State::Disabled: return "disabled";
    case State::Eperm: return "eperm";
    case State::Enoent: return "enoent";
    case State::Unknown: break;
  }
  return "unknown";
}

PmuReading PmuSession::read_at(uint64_t ns) noexcept {
  PmuReading r;
  r.ns = ns;
  if (state() != State::Available) return r;
#if defined(__linux__)
  ThreadGroup& g = thread_group();
  if (!g.tried) g.open();  // a worker thread's first span opens its group
  if (g.ok()) g.read_group(r);
#endif
  return r;
}

PmuDelta PmuSession::delta(const PmuReading& begin,
                           const PmuReading& end) noexcept {
  PmuDelta d;
  d.wall_ns = end.ns > begin.ns ? end.ns - begin.ns : 0;
  if (!begin.hw || !end.hw) return d;
  const auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
  const uint64_t dte = sub(end.time_enabled, begin.time_enabled);
  const uint64_t dtr = sub(end.time_running, begin.time_running);
  // Multiplex scaling: with more group members than hardware counters the
  // kernel time-slices the whole group; scale observed counts up by
  // enabled/running. Ratios (IPC, stall fractions) are unaffected because
  // the group schedules atomically.
  d.scale = (dtr > 0 && dte > dtr)
                ? static_cast<double>(dte) / static_cast<double>(dtr)
                : 1.0;
  const auto scaled = [&](uint64_t a, uint64_t b) {
    const uint64_t raw = a > b ? a - b : 0;
    return d.scale == 1.0
               ? raw
               : static_cast<uint64_t>(static_cast<double>(raw) * d.scale);
  };
  d.cycles = scaled(end.cycles, begin.cycles);
  d.instructions = scaled(end.instructions, begin.instructions);
  d.stall_frontend = scaled(end.stall_frontend, begin.stall_frontend);
  d.stall_backend = scaled(end.stall_backend, begin.stall_backend);
  d.llc_misses = scaled(end.llc_misses, begin.llc_misses);
  d.branch_misses = scaled(end.branch_misses, begin.branch_misses);
  d.hw = true;
  return d;
}

void PmuSession::simulate_for_test(const char* mode) noexcept {
  State s = State::Unknown;
  if (mode != nullptr) {
    if (std::strcmp(mode, "eperm") == 0) s = State::Eperm;
    else if (std::strcmp(mode, "off") == 0) s = State::Disabled;
    else if (std::strcmp(mode, "enoent") == 0) s = State::Enoent;
  }
  g_state.store(static_cast<int>(s), std::memory_order_release);
}

}  // namespace swve::obs

#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "obs/log.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {

#if defined(__unix__) || defined(__APPLE__)

namespace {

// Signal handlers are process-global, so the recorder state is too. Paths
// are copied into fixed buffers at install() — the handler never touches
// std::string.
struct Global {
  std::atomic<bool> installed{false};
  std::atomic<int> dumping{0};  // reentrancy guard (e.g. SEGV inside dump)
  char path[512];
  char trace_out[512];
  TraceSink* sink;
  perf::MetricsRegistry* registry;
  const InFlightTable* inflight;
  int notify_fd;
  bool exit_on_term;
  static constexpr int kMaxSigs = 8;
  int sigs[kMaxSigs];
  struct sigaction old_act[kMaxSigs];
  int nsigs;
};
Global g_rec;

bool write_all(int fd, const char* p, size_t n) noexcept {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

void emit(int fd, const char* s) noexcept {
  write_all(fd, s, std::strlen(s));
}

// snprintf is not on the POSIX async-signal-safe list but does not
// allocate in practice (glibc/musl format doubles on the stack); the
// alternative — hand-rolled number formatting — buys little for a
// crash-path dump that is already best-effort.
void emitf(int fd, const char* fmt, ...) noexcept
    __attribute__((format(printf, 2, 3)));
void emitf(int fd, const char* fmt, ...) noexcept {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0)
    write_all(fd, buf, std::min(static_cast<size_t>(n), sizeof buf - 1));
}

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
  }
  return "signal";
}

/// The dump body — everything here is async-signal-safe by construction.
bool write_dump(const char* reason, int sig) noexcept {
  if (g_rec.path[0] == '\0') return false;
  const int fd = ::open(g_rec.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;

  emitf(fd, "{\"reason\":\"%s\",\"signal\":%d", reason, sig);

  if (g_rec.registry != nullptr) {
    const perf::MetricsSnapshot s = g_rec.registry->snapshot();
    emitf(fd,
          ",\"metrics\":{\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
          ",\"rejected_queue_full\":%" PRIu64 ",\"deadline_expired\":%" PRIu64
          ",\"invalid\":%" PRIu64 ",\"aborted\":%" PRIu64
          ",\"pairwise\":%" PRIu64 ",\"search\":%" PRIu64
          ",\"batch\":%" PRIu64 ",\"cells\":%" PRIu64
          ",\"slow_requests\":%" PRIu64 ",\"uptime_s\":%.3f}",
          s.submitted, s.completed, s.rejected_queue_full, s.deadline_expired,
          s.invalid_request, s.aborted, s.pairwise, s.search, s.batch,
          s.cells, s.slow_requests, s.uptime_seconds);
  }

  if (g_rec.sink != nullptr) {
    emitf(fd,
          ",\"trace_accounting\":{\"recorded\":%" PRIu64
          ",\"dropped_wrap\":%" PRIu64 ",\"dropped_torn\":%" PRIu64
          ",\"dropped_overflow\":%" PRIu64 "}",
          g_rec.sink->recorded(), g_rec.sink->wrap_dropped(),
          g_rec.sink->torn_skipped(), g_rec.sink->overflow_dropped());
  }

  emit(fd, ",\"inflight\":[");
  if (g_rec.inflight != nullptr) {
    constexpr size_t kMax = 256;
    InFlightTable::Entry entries[kMax];
    const size_t n = g_rec.inflight->snapshot(entries, kMax);
    const uint64_t now = steady_now_ns();
    for (size_t i = 0; i < n; ++i) {
      const InFlightTable::Entry& e = entries[i];
      const uint64_t run = now > e.start_ns ? now - e.start_ns : 0;
      emitf(fd,
            "%s{\"slot\":%u,\"id\":%" PRIu64
            ",\"scenario\":\"%s\",\"running_s\":%.3f,\"past_deadline\":%s}",
            i > 0 ? "," : "", e.slot, e.id, perf::scenario_label(e.scenario),
            static_cast<double>(run) * 1e-9,
            (e.deadline_ns != 0 && now > e.deadline_ns) ? "true" : "false");
    }
  }
  emit(fd, "]");

  if (g_rec.sink != nullptr) {
    emit(fd, ",\"trace\":");
    g_rec.sink->write_chrome_trace(fd);
  }

  emit(fd, "}\n");
  ::close(fd);
  return true;
}

void flush_trace_out() noexcept {
  if (g_rec.trace_out[0] == '\0' || g_rec.sink == nullptr) return;
  const int fd = ::open(g_rec.trace_out, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  g_rec.sink->write_chrome_trace(fd);
  ::close(fd);
}

void handler(int sig) {
  int expected = 0;
  if (g_rec.dumping.compare_exchange_strong(expected, 1)) {
    write_dump(signal_name(sig), sig);
    flush_trace_out();
    // Last-gasp structured line, bypassing the async logger's ring (its
    // flusher thread may never run again); write_fatal_line is
    // async-signal-safe by design. Termination signals are not last
    // gasps — the drain path keeps logging normally.
    if (sig != SIGTERM && sig != SIGINT)
      if (Logger* log = Logger::global())
        log->write_fatal_line("fatal.signal", signal_name(sig));
    emitf(STDERR_FILENO, "swve: %s — flight recorder dump written to %s\n",
          signal_name(sig), g_rec.path[0] != '\0' ? g_rec.path : "(nowhere)");
  }
  if (sig == SIGTERM || sig == SIGINT) {
    if (g_rec.notify_fd >= 0) {
      // Wake the owner's event loop (eventfd/pipe write is signal-safe).
      const uint64_t one = 1;
      write_all(g_rec.notify_fd, reinterpret_cast<const char*>(&one),
                sizeof one);
    }
    if (g_rec.exit_on_term) ::_exit(128 + sig);
    return;  // owner-controlled drain; keep running
  }
  // Fatal signal: restore the previous disposition and re-raise so the
  // exit status and any core dump are exactly what they would have been.
  for (int i = 0; i < g_rec.nsigs; ++i) {
    if (g_rec.sigs[i] == sig) {
      sigaction(sig, &g_rec.old_act[i], nullptr);
      raise(sig);
      return;
    }
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

void copy_path(char* dst, size_t cap, const std::string& src) noexcept {
  const size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

FlightRecorder::~FlightRecorder() { uninstall(); }

bool FlightRecorder::install(const FlightRecorderOptions& options) {
  bool expected = false;
  if (!g_rec.installed.compare_exchange_strong(expected, true)) return false;

  copy_path(g_rec.path, sizeof g_rec.path, options.path);
  copy_path(g_rec.trace_out, sizeof g_rec.trace_out, options.trace_out);
  g_rec.sink = options.sink;
  g_rec.registry = options.registry;
  g_rec.inflight = options.inflight;
  g_rec.notify_fd = options.notify_fd;
  g_rec.exit_on_term = options.exit_on_term;
  g_rec.dumping.store(0);
  g_rec.nsigs = 0;

  const auto hook = [&](int sig) {
    struct sigaction act {};
    act.sa_handler = handler;
    sigemptyset(&act.sa_mask);
    act.sa_flags = 0;
    if (g_rec.nsigs < Global::kMaxSigs &&
        sigaction(sig, &act, &g_rec.old_act[g_rec.nsigs]) == 0)
      g_rec.sigs[g_rec.nsigs++] = sig;
  };
  if (options.handle_fatal) {
    hook(SIGSEGV);
    hook(SIGABRT);
    hook(SIGBUS);
  }
  if (options.handle_term) {
    hook(SIGTERM);
    hook(SIGINT);
  }
  installed_ = true;
  return true;
}

void FlightRecorder::uninstall() {
  if (!installed_) return;
  for (int i = 0; i < g_rec.nsigs; ++i)
    sigaction(g_rec.sigs[i], &g_rec.old_act[i], nullptr);
  g_rec.nsigs = 0;
  g_rec.sink = nullptr;
  g_rec.registry = nullptr;
  g_rec.inflight = nullptr;
  g_rec.notify_fd = -1;
  g_rec.exit_on_term = true;
  installed_ = false;
  g_rec.installed.store(false);
}

bool FlightRecorder::dump_now(const char* reason) const {
  if (!installed_) return false;
  return write_dump(reason != nullptr ? reason : "manual", 0);
}

#else  // !unix

FlightRecorder::~FlightRecorder() = default;
bool FlightRecorder::install(const FlightRecorderOptions&) { return false; }
void FlightRecorder::uninstall() {}
bool FlightRecorder::dump_now(const char*) const { return false; }

#endif

}  // namespace swve::obs

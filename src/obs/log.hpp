// Async structured JSON-lines logging.
//
// The serving stack needs edge-of-system events (connection churn,
// protocol errors, rejects, slow requests) as machine-parseable lines
// without putting formatting or write(2) on the request path. The Logger
// reuses the TraceSink recipe: each producing thread owns a fixed-size
// ring it alone writes, allocated when the thread first logs and resident
// only as far as it has been written (obs/ring_storage.hpp); a background
// flusher drains all rings on a short period, and everything that can't
// fit is counted, never blocked on.
//
// Per-ring ordering is single-producer/single-consumer: the producer
// publishes records with a release store of the ring head, the flusher
// acquires the head, copies the records out, and releases the tail back.
// No seqlock is needed (unlike TraceSink, slots are never overwritten
// while readable) and the scheme is clean under TSan.
//
// Call sites log through the process-global logger:
//
//   obs::log_warn("server.protocol_error",
//                 {{"conn", cid}, {"status", "bad_magic"}});
//
// When no logger is installed this is one relaxed load and a branch.
// Records carry an event name (a static string — it doubles as the
// rate-limit key) plus up to kMaxLogFields typed key=value fields;
// string values are truncated into a fixed inline buffer so a record is
// trivially copyable and the producer path allocates nothing past its
// thread's first record.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/ring_storage.hpp"

namespace swve::obs {

enum class LogLevel : uint8_t { Debug = 0, Info = 1, Warn = 2, Error = 3 };

const char* log_level_name(LogLevel level) noexcept;

/// One typed field value. Strings are copied inline (truncated to
/// kMaxStringBytes-1 chars) so records stay POD for the ring.
struct LogValue {
  enum class Kind : uint8_t { I64, U64, F64, Bool, Str };
  static constexpr size_t kMaxStringBytes = 48;

  Kind kind = Kind::I64;
  union {
    int64_t i;
    uint64_t u;
    double f;
    bool b;
  };
  char s[kMaxStringBytes];

  LogValue() : i(0) { s[0] = '\0'; }
};

struct LogField {
  const char* key = "";
  LogValue value;

  LogField() = default;
  LogField(const char* k, int v) : key(k) {
    value.kind = LogValue::Kind::I64;
    value.i = v;
  }
  LogField(const char* k, long v) : key(k) {
    value.kind = LogValue::Kind::I64;
    value.i = v;
  }
  LogField(const char* k, long long v) : key(k) {
    value.kind = LogValue::Kind::I64;
    value.i = v;
  }
  LogField(const char* k, unsigned v) : key(k) {
    value.kind = LogValue::Kind::U64;
    value.u = v;
  }
  LogField(const char* k, unsigned long v) : key(k) {
    value.kind = LogValue::Kind::U64;
    value.u = v;
  }
  LogField(const char* k, unsigned long long v) : key(k) {
    value.kind = LogValue::Kind::U64;
    value.u = v;
  }
  LogField(const char* k, double v) : key(k) {
    value.kind = LogValue::Kind::F64;
    value.f = v;
  }
  LogField(const char* k, bool v) : key(k) {
    value.kind = LogValue::Kind::Bool;
    value.b = v;
  }
  LogField(const char* k, std::string_view v) : key(k) {
    value.kind = LogValue::Kind::Str;
    const size_t n = v.size() < LogValue::kMaxStringBytes - 1
                         ? v.size()
                         : LogValue::kMaxStringBytes - 1;
    std::memcpy(value.s, v.data(), n);
    value.s[n] = '\0';
  }
  LogField(const char* k, const char* v) : LogField(k, std::string_view(v)) {}
  LogField(const char* k, const std::string& v)
      : LogField(k, std::string_view(v)) {}
};

inline constexpr size_t kMaxLogFields = 6;

/// One ring slot. Trivially copyable; the event name must be a string
/// with static storage duration (it is also the rate-limit site key).
struct LogRecord {
  uint64_t ts_us = 0;  ///< wall clock, microseconds since the Unix epoch
  LogLevel level = LogLevel::Info;
  uint8_t nfields = 0;
  const char* event = "";
  LogField fields[kMaxLogFields];
};

struct LoggerOptions {
  LogLevel min_level = LogLevel::Info;  ///< records below this are dropped
  int fd = 2;                 ///< primary sink (stderr); -1 disables
  std::string path;           ///< optional file sink, opened O_APPEND
  size_t ring_capacity = 256; ///< records per producing thread
  unsigned max_threads = 32;  ///< distinct producing threads
  double flush_period_s = 0.05;
  /// Per event-site records per second before suppression (0 = unlimited).
  uint64_t rate_limit_per_sec = 0;
};

/// Async JSON-lines logger. Construct, optionally install_global(), log.
/// The destructor drains every ring before closing sinks — no records
/// accepted before destruction are lost (only counted drops are).
class Logger {
 public:
  /// Throws std::invalid_argument when one ring of `ring_capacity`
  /// records would overflow size_t.
  explicit Logger(const LoggerOptions& options = {});
  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Enqueue one record (drops below min_level, over rate limit, on ring
  /// overflow, past max_threads or when the thread's ring could not be
  /// allocated — each drop is counted). Never blocks; allocates only the
  /// calling thread's ring, on its first record (nothrow).
  void log(LogLevel level, const char* event,
           std::initializer_list<LogField> fields) noexcept;

  bool enabled(LogLevel level) const noexcept {
    return level >= opts_.min_level;
  }

  /// Synchronous, async-signal-safe last-gasp line: snprintf into a stack
  /// buffer, write(2) straight to the sinks, bypassing the rings. For the
  /// flight recorder's fatal path.
  void write_fatal_line(const char* event, const char* reason) noexcept;

  /// Block until everything enqueued so far has been written.
  void flush();

  // Drop/throughput accounting (relaxed reads, for metrics + tests).
  uint64_t emitted() const noexcept;
  uint64_t dropped_overflow() const noexcept;
  uint64_t dropped_threads() const noexcept;
  uint64_t suppressed() const noexcept;

  const LoggerOptions& options() const noexcept { return opts_; }

  /// Process-global logger used by the log_*() helpers. install_global
  /// publishes `logger` (replacing any previous one); the destructor
  /// un-publishes itself. Callers own lifetime — install in main() before
  /// the threads that log, destroy after them.
  static void install_global(Logger* logger) noexcept;
  static Logger* global() noexcept;

 private:
  // One cache line per ring, so one thread's head and tail stores do not
  // invalidate its neighbours' rings.
  struct alignas(64) Ring {
    RingStorage<LogRecord> slots;  ///< allocated by the producing thread
    /// Producer-owned; flusher acquires.
    std::atomic<uint64_t> head{0};
    /// Flusher-owned; producer acquires for the capacity check.
    std::atomic<uint64_t> tail{0};
  };
  static_assert(alignof(Ring) == 64 && sizeof(Ring) == 64);

  /// Per event-site token bucket for rate limiting; open-addressed on the
  /// event string pointer. Approximate by design: windows race benignly.
  struct Site {
    std::atomic<const char*> event{nullptr};
    std::atomic<uint64_t> window_s{0};
    std::atomic<uint64_t> count{0};
  };
  static constexpr size_t kSites = 64;

  int ring_index() noexcept;
  bool over_rate_limit(const char* event) noexcept;
  void flusher_loop();
  /// Drain every ring once; append formatted lines to `buf`, then write.
  void drain_once(std::string& buf);

  LoggerOptions opts_;
  size_t capacity_;
  unsigned max_threads_;
  std::unique_ptr<Ring[]> rings_;
  std::unique_ptr<Site[]> sites_;
  int file_fd_ = -1;
  uint64_t logger_id_;
  std::atomic<unsigned> registered_{0};
  std::atomic<uint64_t> emitted_{0};
  std::atomic<uint64_t> dropped_overflow_{0};
  std::atomic<uint64_t> dropped_threads_{0};
  std::atomic<uint64_t> suppressed_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t flush_seq_ = 0;   ///< completed drain passes (for flush())
  std::thread flusher_;
};

/// Helpers against the global logger; no-ops (one relaxed load + branch)
/// when none is installed.
void log_debug(const char* event,
               std::initializer_list<LogField> fields = {}) noexcept;
void log_info(const char* event,
              std::initializer_list<LogField> fields = {}) noexcept;
void log_warn(const char* event,
              std::initializer_list<LogField> fields = {}) noexcept;
void log_error(const char* event,
               std::initializer_list<LogField> fields = {}) noexcept;

/// Parse "debug" / "info" / "warn" / "error"; defaults to Info.
LogLevel log_level_from_string(std::string_view s) noexcept;

}  // namespace swve::obs

#include "obs/log.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <time.h>
#include <unistd.h>
#endif

namespace swve::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::atomic<uint64_t> g_logger_ids{0};
std::atomic<Logger*> g_logger{nullptr};

uint64_t wall_now_us() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

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

/// Append `v` JSON-escaped (quotes, backslashes, control bytes).
void append_escaped(std::string& out, const char* v) {
  for (const char* p = v; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void append_record(std::string& out, const LogRecord& rec) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"ts_us\":%" PRIu64 ",\"level\":\"%s\"",
                rec.ts_us, log_level_name(rec.level));
  out += buf;
  out += ",\"event\":\"";
  append_escaped(out, rec.event);
  out += '"';
  const uint8_t n = std::min<uint8_t>(rec.nfields, kMaxLogFields);
  for (uint8_t i = 0; i < n; ++i) {
    const LogField& f = rec.fields[i];
    out += ",\"";
    append_escaped(out, f.key);
    out += "\":";
    switch (f.value.kind) {
      case LogValue::Kind::I64:
        std::snprintf(buf, sizeof buf, "%" PRId64, f.value.i);
        out += buf;
        break;
      case LogValue::Kind::U64:
        std::snprintf(buf, sizeof buf, "%" PRIu64, f.value.u);
        out += buf;
        break;
      case LogValue::Kind::F64:
        std::snprintf(buf, sizeof buf, "%.6g", f.value.f);
        out += buf;
        break;
      case LogValue::Kind::Bool:
        out += f.value.b ? "true" : "false";
        break;
      case LogValue::Kind::Str:
        out += '"';
        append_escaped(out, f.value.s);
        out += '"';
        break;
    }
  }
  out += "}\n";
}

}  // namespace

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
  }
  return "?";
}

LogLevel log_level_from_string(std::string_view s) noexcept {
  if (s == "debug") return LogLevel::Debug;
  if (s == "warn" || s == "warning") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  return LogLevel::Info;
}

Logger::Logger(const LoggerOptions& options)
    : opts_(options),
      capacity_(ring_capacity<LogRecord>(options.ring_capacity, "Logger")),
      max_threads_(std::max(1u, options.max_threads)),
      rings_(new Ring[max_threads_]),
      sites_(new Site[kSites]),
      logger_id_(g_logger_ids.fetch_add(1, kRelaxed) + 1) {
#if defined(__unix__) || defined(__APPLE__)
  if (!opts_.path.empty())
    file_fd_ = ::open(opts_.path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
#endif
  flusher_ = std::thread([this] { flusher_loop(); });
}

Logger::~Logger() {
  Logger* self = this;
  g_logger.compare_exchange_strong(self, nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Catch records enqueued after the flusher's final pass. The lifetime
  // contract (destroy after producing threads) makes this the last word.
  std::string buf;
  drain_once(buf);
#if defined(__unix__) || defined(__APPLE__)
  if (file_fd_ >= 0) ::close(file_fd_);
#endif
}

void Logger::install_global(Logger* logger) noexcept {
  g_logger.store(logger, std::memory_order_release);
}

Logger* Logger::global() noexcept {
  return g_logger.load(std::memory_order_acquire);
}

int Logger::ring_index() noexcept {
  struct Cache {
    uint64_t logger_id = 0;
    int idx = -1;
  };
  thread_local Cache cache;
  if (cache.logger_id == logger_id_) return cache.idx;
  const unsigned i = registered_.fetch_add(1, kRelaxed);
  cache.logger_id = logger_id_;
  cache.idx = i < max_threads_ && rings_[i].slots.allocate(capacity_)
                  ? static_cast<int>(i)
                  : -1;
  return cache.idx;
}

bool Logger::over_rate_limit(const char* event) noexcept {
  if (opts_.rate_limit_per_sec == 0) return false;
  const uint64_t now_s = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  // Open addressing on the event pointer. A full table admits the record
  // (limiting is best-effort, losing visibility would be worse).
  uint64_t h = reinterpret_cast<uintptr_t>(event);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  for (size_t probe = 0; probe < 8; ++probe) {
    Site& site = sites_[(h + probe) % kSites];
    const char* cur = site.event.load(kRelaxed);
    if (cur == nullptr) {
      const char* expected = nullptr;
      if (!site.event.compare_exchange_strong(expected, event, kRelaxed))
        cur = expected;
      else
        cur = event;
    }
    if (cur != event) continue;
    if (site.window_s.load(kRelaxed) != now_s) {
      // Benign race: two threads may both reset; the count is approximate.
      site.window_s.store(now_s, kRelaxed);
      site.count.store(0, kRelaxed);
    }
    return site.count.fetch_add(1, kRelaxed) >= opts_.rate_limit_per_sec;
  }
  return false;
}

void Logger::log(LogLevel level, const char* event,
                 std::initializer_list<LogField> fields) noexcept {
  if (level < opts_.min_level) return;
  if (over_rate_limit(event)) {
    suppressed_.fetch_add(1, kRelaxed);
    return;
  }
  const int r = ring_index();
  if (r < 0) {
    dropped_threads_.fetch_add(1, kRelaxed);
    return;
  }
  Ring& ring = rings_[r];
  const uint64_t h = ring.head.load(kRelaxed);  // producer-owned
  if (h - ring.tail.load(std::memory_order_acquire) >= capacity_) {
    dropped_overflow_.fetch_add(1, kRelaxed);
    return;
  }
  LogRecord& rec =
      h < capacity_ ? ring.slots.construct(h) : ring.slots[h & (capacity_ - 1)];
  rec.ts_us = wall_now_us();
  rec.level = level;
  rec.event = event;
  rec.nfields = 0;
  for (const LogField& f : fields) {
    if (rec.nfields >= kMaxLogFields) break;
    rec.fields[rec.nfields++] = f;
  }
  ring.head.store(h + 1, std::memory_order_release);
}

void Logger::drain_once(std::string& buf) {
  std::vector<LogRecord> batch;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live; ++r) {
    Ring& ring = rings_[r];
    const uint64_t h = ring.head.load(std::memory_order_acquire);
    const uint64_t t = ring.tail.load(kRelaxed);  // flusher-owned
    for (uint64_t i = t; i < h; ++i)
      batch.push_back(ring.slots[i & (capacity_ - 1)]);
    ring.tail.store(h, std::memory_order_release);
  }
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.ts_us < b.ts_us;
            });
  buf.clear();
  for (const LogRecord& rec : batch) append_record(buf, rec);
  emitted_.fetch_add(batch.size(), kRelaxed);
#if defined(__unix__) || defined(__APPLE__)
  if (opts_.fd >= 0) write_all(opts_.fd, buf.data(), buf.size());
  if (file_fd_ >= 0) write_all(file_fd_, buf.data(), buf.size());
#endif
}

void Logger::flusher_loop() {
  std::string buf;
  const auto period = std::chrono::duration<double>(
      opts_.flush_period_s > 0 ? opts_.flush_period_s : 0.05);
  while (true) {
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, period, [&] { return stop_; });
      stopping = stop_;
    }
    drain_once(buf);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++flush_seq_;
    }
    cv_.notify_all();
    if (stopping) return;
  }
}

void Logger::flush() {
  std::unique_lock<std::mutex> lock(mu_);
  // Two completed passes guarantee one full drain that began after this
  // call (the current pass may already have read our ring).
  const uint64_t target = flush_seq_ + 2;
  cv_.notify_all();
  cv_.wait(lock, [&] { return flush_seq_ >= target || stop_; });
}

void Logger::write_fatal_line(const char* event, const char* reason) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  // Async-signal-safe by the same argument as the flight recorder's
  // emitf: snprintf formats on the stack, write(2) is on the safe list.
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  const uint64_t us = static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
                      static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof buf,
      "{\"ts_us\":%" PRIu64 ",\"level\":\"error\",\"event\":\"%s\","
      "\"reason\":\"%s\"}\n",
      us, event != nullptr ? event : "fatal",
      reason != nullptr ? reason : "");
  if (n <= 0) return;
  const size_t len = std::min(static_cast<size_t>(n), sizeof buf - 1);
  if (opts_.fd >= 0) write_all(opts_.fd, buf, len);
  if (file_fd_ >= 0) write_all(file_fd_, buf, len);
#else
  (void)event;
  (void)reason;
#endif
}

uint64_t Logger::emitted() const noexcept { return emitted_.load(kRelaxed); }
uint64_t Logger::dropped_overflow() const noexcept {
  return dropped_overflow_.load(kRelaxed);
}
uint64_t Logger::dropped_threads() const noexcept {
  return dropped_threads_.load(kRelaxed);
}
uint64_t Logger::suppressed() const noexcept {
  return suppressed_.load(kRelaxed);
}

void log_debug(const char* event,
               std::initializer_list<LogField> fields) noexcept {
  Logger* logger = Logger::global();
  if (logger != nullptr) logger->log(LogLevel::Debug, event, fields);
}

void log_info(const char* event,
              std::initializer_list<LogField> fields) noexcept {
  Logger* logger = Logger::global();
  if (logger != nullptr) logger->log(LogLevel::Info, event, fields);
}

void log_warn(const char* event,
              std::initializer_list<LogField> fields) noexcept {
  Logger* logger = Logger::global();
  if (logger != nullptr) logger->log(LogLevel::Warn, event, fields);
}

void log_error(const char* event,
               std::initializer_list<LogField> fields) noexcept {
  Logger* logger = Logger::global();
  if (logger != nullptr) logger->log(LogLevel::Error, event, fields);
}

}  // namespace swve::obs

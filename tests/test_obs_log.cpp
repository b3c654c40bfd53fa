// obs::Logger — the async structured JSON-lines logger: record formatting
// and field typing, level filtering, per-site rate limiting, ring-overflow
// and thread-overflow drop accounting, the async-signal-safe fatal path,
// and the global install used by the log_info()/log_warn() helpers. The
// concurrency cases ("StructuredLog" suite) also run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/json.hpp"
#include "obs/log.hpp"
#include "perf/metrics.hpp"
#include "sanitizers.hpp"

namespace swve::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// A unique file path per test; removed on destruction.
struct TempLog {
  explicit TempLog(const char* name)
      : path(testing::TempDir() + "swve_log_" + name + ".jsonl") {
    std::remove(path.c_str());
  }
  ~TempLog() { std::remove(path.c_str()); }
  std::string path;
};

TEST(StructuredLog, JsonLinesRoundTripTypedFields) {
  TempLog tmp("roundtrip");
  LoggerOptions opt;
  opt.fd = -1;  // file sink only — keep test output clean
  opt.path = tmp.path;
  Logger logger(opt);

  const std::string long_str(60, 'x');  // beyond the 48-byte inline cap
  logger.log(LogLevel::Info, "test.event",
             {{"i", -5},
              {"u", 123456789u},
              {"f", 1.5},
              {"b", true},
              {"s", "hello \"quoted\"\nline"},
              {"t", long_str}});
  logger.log(LogLevel::Error, "test.error", {});
  logger.flush();

  const auto lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), 2u);

  // Same-microsecond records may drain in either order; pick by event.
  const bool swapped = lines[0].find("test.error") != std::string::npos;
  const auto first = net::Json::parse(lines[swapped ? 1 : 0]);
  ASSERT_TRUE(first.has_value()) << lines[0];
  EXPECT_GT((*first)["ts_us"].as_number(), 0.0);
  EXPECT_EQ((*first)["level"].as_string(), "info");
  EXPECT_EQ((*first)["event"].as_string(), "test.event");
  EXPECT_EQ((*first)["i"].as_number(), -5.0);
  EXPECT_EQ((*first)["u"].as_number(), 123456789.0);
  EXPECT_EQ((*first)["f"].as_number(), 1.5);
  EXPECT_TRUE((*first)["b"].as_bool());
  EXPECT_EQ((*first)["s"].as_string(), "hello \"quoted\"\nline");
  // Strings are truncated into the record's inline buffer, never dropped.
  EXPECT_EQ((*first)["t"].as_string(),
            long_str.substr(0, LogValue::kMaxStringBytes - 1));

  const auto second = net::Json::parse(lines[swapped ? 0 : 1]);
  ASSERT_TRUE(second.has_value()) << lines[1];
  EXPECT_EQ((*second)["level"].as_string(), "error");
  EXPECT_EQ(logger.emitted(), 2u);
}

TEST(StructuredLog, LevelFiltering) {
  TempLog tmp("levels");
  LoggerOptions opt;
  opt.fd = -1;
  opt.path = tmp.path;
  opt.min_level = LogLevel::Warn;
  Logger logger(opt);

  EXPECT_FALSE(logger.enabled(LogLevel::Debug));
  EXPECT_FALSE(logger.enabled(LogLevel::Info));
  EXPECT_TRUE(logger.enabled(LogLevel::Warn));

  logger.log(LogLevel::Info, "filtered.out", {});
  logger.log(LogLevel::Warn, "kept", {});
  logger.flush();

  const auto lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"kept\""), std::string::npos);
  EXPECT_EQ(logger.emitted(), 1u);

  // The CLI flag parser behind --log-level.
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::Debug);
  EXPECT_EQ(log_level_from_string("warn"), LogLevel::Warn);
  EXPECT_EQ(log_level_from_string("warning"), LogLevel::Warn);
  EXPECT_EQ(log_level_from_string("error"), LogLevel::Error);
  EXPECT_EQ(log_level_from_string("bogus"), LogLevel::Info);
}

TEST(StructuredLog, RateLimitSuppressesPerSite) {
  LoggerOptions opt;
  opt.fd = -1;
  opt.rate_limit_per_sec = 1;
  Logger logger(opt);

  constexpr int kAttempts = 50;
  for (int i = 0; i < kAttempts; ++i)
    logger.log(LogLevel::Info, "noisy.site", {{"i", i}});
  // A different event site is not affected by noisy.site's budget.
  logger.log(LogLevel::Info, "quiet.site", {});
  logger.flush();

  EXPECT_GE(logger.suppressed(), static_cast<uint64_t>(kAttempts - 2));
  EXPECT_EQ(logger.emitted() + logger.suppressed(),
            static_cast<uint64_t>(kAttempts + 1));
}

TEST(StructuredLog, RingOverflowIsCountedNotBlocking) {
  TempLog tmp("overflow");
  LoggerOptions opt;
  opt.fd = -1;
  opt.path = tmp.path;
  opt.ring_capacity = 16;
  opt.flush_period_s = 5.0;  // the flusher stays out of the way
  constexpr int kAttempts = 100;
  uint64_t dropped = 0;
  {
    Logger logger(opt);
    for (int i = 0; i < kAttempts; ++i)
      logger.log(LogLevel::Info, "burst", {{"i", i}});
    dropped = logger.dropped_overflow();
    EXPECT_GT(dropped, 0u);  // a 16-slot ring cannot hold 100 records
    // Destruction drains the ring: every accepted record reaches the file.
  }
  const auto lines = read_lines(tmp.path);
  EXPECT_EQ(lines.size() + dropped, static_cast<size_t>(kAttempts));
}

TEST(StructuredLog, ThreadsBeyondCapacityDropButCount) {
  LoggerOptions opt;
  opt.fd = -1;
  opt.max_threads = 1;
  Logger logger(opt);
  logger.log(LogLevel::Info, "main.claims.slot", {});  // registers ring 0

  constexpr int kPerThread = 7;
  auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i)
      logger.log(LogLevel::Info, "homeless", {{"i", i}});
  };
  std::thread a(worker), b(worker);
  a.join();
  b.join();
  logger.flush();

  EXPECT_EQ(logger.dropped_threads(), static_cast<uint64_t>(2 * kPerThread));
  EXPECT_EQ(logger.emitted(), 1u);
}

TEST(StructuredLog, ConstructionTouchesNoRingMemory) {
  const auto rss = [] {
    return static_cast<int64_t>(perf::read_process_memory().resident_bytes);
  };
  if (rss() == 0) GTEST_SKIP() << "no VmRSS on this platform";
  if (testing_support::kSanitizerAllocator)
    GTEST_SKIP() << "sanitizer shadow memory counts toward VmRSS";
  LoggerOptions opt;
  opt.fd = -1;
  opt.ring_capacity = 1 << 14;
  opt.max_threads = 64;
  opt.flush_period_s = 5.0;  // no drain (and no drain buffers) while measured
  const int64_t before = rss();
  Logger logger(opt);  // 456 MiB of records if built up front
  const int64_t built = rss();
  EXPECT_LT(built - before, int64_t{8} << 20);

  // The first record allocates one ring; 1000 records touch ~445 KiB.
  for (int i = 0; i < 1000; ++i) logger.log(LogLevel::Info, "e", {{"i", i}});
  EXPECT_LT(rss() - built, int64_t{1} << 20);
  EXPECT_EQ(logger.dropped_overflow(), 0u);
  EXPECT_EQ(logger.dropped_threads(), 0u);
}

TEST(StructuredLog, RingAllocationFailureDropsAndCounts) {
  LoggerOptions opt;
  opt.fd = -1;
  opt.ring_capacity = std::numeric_limits<size_t>::max();
  EXPECT_THROW(Logger logger(opt), std::invalid_argument);
  if (testing_support::kSanitizerAllocator)
    GTEST_SKIP() << "sanitizer allocators abort instead of failing a request";

  // 2^40 records (~456 TiB) fit size_t but no address space.
  opt.ring_capacity = size_t{1} << 40;
  Logger logger(opt);
  for (int i = 0; i < 3; ++i) logger.log(LogLevel::Info, "lost", {{"i", i}});
  logger.flush();
  EXPECT_EQ(logger.dropped_threads(), 3u);
  EXPECT_EQ(logger.emitted(), 0u);
}

TEST(StructuredLog, ConcurrentWritersProduceNoTornLines) {
  TempLog tmp("concurrent");
  LoggerOptions opt;
  opt.fd = -1;
  opt.path = tmp.path;
  opt.ring_capacity = 64;  // small enough that overflow paths also run
  opt.flush_period_s = 0.005;
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 500;
  uint64_t accounted = 0;
  {
    Logger logger(opt);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kPerThread; ++i)
          logger.log(LogLevel::Info, "worker.tick",
                     {{"thread", t}, {"i", i}, {"ok", true}});
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    logger.flush();
    // Every attempt is accounted for exactly once: emitted, dropped on a
    // full ring, or dropped for want of a ring. Nothing vanishes.
    accounted = logger.emitted() + logger.dropped_overflow() +
                logger.dropped_threads() + logger.suppressed();
    EXPECT_EQ(accounted, static_cast<uint64_t>(kThreads) * kPerThread);
  }
  // No torn or interleaved lines: every line in the file is one complete
  // JSON object with the mandatory keys.
  const auto lines = read_lines(tmp.path);
  EXPECT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    const auto doc = net::Json::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_GT((*doc)["ts_us"].as_number(), 0.0);
    EXPECT_EQ((*doc)["level"].as_string(), "info");
    EXPECT_EQ((*doc)["event"].as_string(), "worker.tick");
  }
}

TEST(StructuredLog, FatalLineBypassesTheRing) {
  TempLog tmp("fatal");
  LoggerOptions opt;
  opt.fd = -1;
  opt.path = tmp.path;
  opt.flush_period_s = 5.0;  // prove no flusher pass is needed
  Logger logger(opt);

  logger.write_fatal_line("fatal.signal", "SIGSEGV");
  // Visible immediately — the crash path cannot wait for a drain.
  const auto lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), 1u);
  const auto doc = net::Json::parse(lines[0]);
  ASSERT_TRUE(doc.has_value()) << lines[0];
  EXPECT_EQ((*doc)["level"].as_string(), "error");
  EXPECT_EQ((*doc)["event"].as_string(), "fatal.signal");
  EXPECT_EQ((*doc)["reason"].as_string(), "SIGSEGV");
}

TEST(StructuredLog, GlobalInstallDrivesTheHelpers) {
  // Without a global logger the helpers are safe no-ops.
  ASSERT_EQ(Logger::global(), nullptr);
  log_info("into.the.void", {{"ignored", 1}});

  TempLog tmp("global");
  LoggerOptions opt;
  opt.fd = -1;
  opt.path = tmp.path;
  opt.min_level = LogLevel::Debug;
  {
    Logger logger(opt);
    Logger::install_global(&logger);
    EXPECT_EQ(Logger::global(), &logger);
    log_debug("helper.debug");
    log_info("helper.info", {{"n", 1}});
    log_warn("helper.warn");
    log_error("helper.error");
    logger.flush();
    EXPECT_EQ(logger.emitted(), 4u);
    // Destruction deregisters itself — no dangling global.
  }
  EXPECT_EQ(Logger::global(), nullptr);
  log_info("into.the.void.again");

  const auto lines = read_lines(tmp.path);
  ASSERT_EQ(lines.size(), 4u);
  const std::string all = lines[0] + lines[1] + lines[2] + lines[3];
  for (const char* event :
       {"helper.debug", "helper.info", "helper.warn", "helper.error"})
    EXPECT_NE(all.find(event), std::string::npos) << event;
}

}  // namespace
}  // namespace swve::obs

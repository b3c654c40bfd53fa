#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace swve::parallel {
namespace {

TEST(BlockRange, CoversRangeExactlyOnce) {
  for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (unsigned workers : {1u, 2u, 3u, 8u, 13u}) {
      std::vector<int> seen(n, 0);
      size_t prev_end = 0;
      for (unsigned w = 0; w < workers; ++w) {
        auto [b, e] = block_range(n, w, workers);
        EXPECT_EQ(b, prev_end);
        prev_end = e;
        for (size_t i = b; i < e; ++i) ++seen[i];
      }
      EXPECT_EQ(prev_end, n);
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1);
    }
  }
}

TEST(BlockRange, BalancedWithinOne) {
  for (unsigned workers : {2u, 3u, 7u}) {
    size_t n = 100;
    size_t mn = n, mx = 0;
    for (unsigned w = 0; w < workers; ++w) {
      auto [b, e] = block_range(n, w, workers);
      mn = std::min(mn, e - b);
      mx = std::max(mx, e - b);
    }
    EXPECT_LE(mx - mn, 1u);
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.parallel_for(1000, [&](size_t b, size_t e, unsigned) {
    for (size_t i = b; i < e; ++i) counts[i].fetch_add(1);
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForWorkerIdsInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for(100, [&](size_t, size_t, unsigned id) {
    if (id >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t, size_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SequentialReuse) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(100, [&](size_t b, size_t e, unsigned) {
      for (size_t i = b; i < e; ++i) sum.fetch_add(i);
    });
  }
  EXPECT_EQ(sum.load(), 20ull * (99 * 100 / 2));
}

TEST(ThreadPool, SingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(10, [&](size_t b, size_t e, unsigned) {
    for (size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // one worker => strictly in order
}

TEST(ThreadPool, StressManySmallJobs) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 200; ++round)
    pool.parallel_for(8, [&](size_t b, size_t e, unsigned) {
      total.fetch_add(static_cast<int>(e - b));
    });
  EXPECT_EQ(total.load(), 1600);
}

// parallel_for waits for its own blocks, not for the whole pool to go idle:
// with one worker parked inside another caller's fan-out, a parallel_for
// from a second thread still completes on the free worker.
TEST(ThreadPool, ParallelForWaitsOnlyForItsOwnBlocks) {
  std::latch parked(1), release(1), async_done(1);
  std::promise<void> returned;
  std::future<void> returned_f = returned.get_future();
  ThreadPool pool(2);
  pool.parallel_for_async(
      2,
      [&](size_t b, size_t, unsigned) {
        if (b == 0) {
          parked.count_down();
          release.wait();
        }
      },
      [&] { async_done.count_down(); });
  parked.wait();

  std::atomic<size_t> visited{0};
  std::thread caller([&] {
    pool.parallel_for(2, [&](size_t b, size_t e, unsigned) {
      visited.fetch_add(e - b);
    });
    returned.set_value();
  });
  const bool in_time = returned_f.wait_for(std::chrono::seconds(10)) ==
                       std::future_status::ready;
  release.count_down();  // let the parked block finish either way
  caller.join();
  async_done.wait();
  EXPECT_TRUE(in_time)
      << "parallel_for waited on another caller's parked block";
  EXPECT_EQ(visited.load(), 2u);
}

// An unpinned worker places itself on one CPU when it starts and restores
// its mask at once: every block of a fresh unpinned pool runs under the
// constructing thread's full mask, and a pinned pool keeps its pinned set.
TEST(ThreadPool, StartPlacementKeepsEachPoolsAffinityMask) {
#if defined(__linux__)
  cpu_set_t full;
  ASSERT_EQ(sched_getaffinity(0, sizeof(full), &full), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &full)) ++first_cpu;
  cpu_set_t pinned_set;
  CPU_ZERO(&pinned_set);
  CPU_SET(first_cpu, &pinned_set);

  auto masks_seen = [](ThreadPool& pool) {
    std::vector<cpu_set_t> seen(pool.size());
    pool.parallel_for(pool.size(), [&](size_t, size_t, unsigned block) {
      sched_getaffinity(0, sizeof(cpu_set_t), &seen[block]);
    });
    return seen;
  };
  for (int round = 0; round < 3; ++round) {
    ThreadPool unpinned(4);
    for (const cpu_set_t& m : masks_seen(unpinned))
      EXPECT_TRUE(CPU_EQUAL(&m, &full)) << "round " << round;
    ThreadPool pinned(2, {first_cpu});
    for (const cpu_set_t& m : masks_seen(pinned))
      EXPECT_TRUE(CPU_EQUAL(&m, &pinned_set)) << "round " << round;
  }
#else
  GTEST_SKIP() << "thread placement is Linux-only";
#endif
}

}  // namespace
}  // namespace swve::parallel

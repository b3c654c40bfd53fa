#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>

#include "parallel/topology.hpp"

namespace swve::parallel {

namespace {
// Unpinned workers started in this process: a second pool continues the
// placement where the first one stopped.
std::atomic<unsigned> g_unpinned_workers{0};
}  // namespace

ThreadPool::ThreadPool(unsigned threads) : ThreadPool(threads, {}) {}

ThreadPool::ThreadPool(unsigned threads, std::vector<int> affinity_cpus)
    : affinity_cpus_(std::move(affinity_cpus)) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] {
      // An unpinned worker starts on its own CPU: left alone, a fresh
      // pool's workers can all start on one CPU and stay there until the
      // load balancer moves them.
      if (affinity_cpus_.empty())
        place_current_thread(
            g_unpinned_workers.fetch_add(1, std::memory_order_relaxed));
      else
        pin_current_thread(affinity_cpus_);
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    const auto t0 = std::chrono::steady_clock::now();
    job();
    const auto dur = std::chrono::steady_clock::now() - t0;
    busy_ns_.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dur).count()),
        std::memory_order_relaxed);
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    --outstanding_;
  }
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t, size_t, unsigned)>& fn) {
  std::latch done(1);
  parallel_for_async(
      n, [&fn](size_t b, size_t e, unsigned block) { fn(b, e, block); },
      [&done] { done.count_down(); });
  done.wait();
}

void ThreadPool::parallel_for_async(
    size_t n, std::function<void(size_t, size_t, unsigned)> fn,
    std::function<void()> on_done) {
  if (n == 0) {
    if (on_done) on_done();
    return;
  }
  const unsigned workers = size();
  // Shared completion state: the worker that retires the last block fires
  // on_done (after its own fn), so the callback never runs concurrently
  // with any block of this fan-out.
  struct Shared {
    std::function<void(size_t, size_t, unsigned)> fn;
    std::function<void()> on_done;
    std::atomic<unsigned> remaining;
  };
  auto shared = std::make_shared<Shared>();
  shared->fn = std::move(fn);
  shared->on_done = std::move(on_done);
  shared->remaining.store(workers, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (unsigned w = 0; w < workers; ++w) {
      jobs_.push([n, w, workers, shared] {
        auto [b, e] = block_range(n, w, workers);
        // Pass the *block* index, not the executing worker id: under
        // concurrent fan-outs one worker can run several blocks, and
        // callers index per-block output slots by this id.
        if (b < e) shared->fn(b, e, w);
        if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            shared->on_done)
          shared->on_done();
      });
    }
    outstanding_ += workers;
  }
  cv_.notify_all();
}

}  // namespace swve::parallel

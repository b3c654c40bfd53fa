// Fixed-size thread pool with deterministic results.
//
// Scheduling may be static (parallel_for's contiguous blocks) or dynamic
// (parallel_chunks, or a caller's own cursor over one job per worker, as
// the batch scan in align/batch_scan.hpp does). Either way callers write
// results by index, not by worker, and merge them in index order, so
// results are bit-identical for any thread count — part of the library's
// determinism guarantee.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace swve::parallel {

/// Worker-utilization accounting for a ThreadPool (see ThreadPool::stats).
struct PoolStats {
  unsigned threads = 0;
  uint64_t jobs = 0;         ///< jobs executed (one per worker per fan-out)
  double busy_seconds = 0;   ///< summed wall time workers spent in jobs
};

class ThreadPool {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  /// Pinned pool: every worker is bound to `affinity_cpus` (a NUMA node or
  /// CCX slice, see parallel/topology.hpp). Pinning is best-effort — an
  /// empty set or a failed sched_setaffinity leaves workers unpinned.
  ThreadPool(unsigned threads, std::vector<int> affinity_cpus);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Lifetime utilization counters (lock-free reads; updated by workers
  /// after each job). Busy fraction over a span T is
  /// busy_seconds / (threads * T).
  PoolStats stats() const noexcept {
    return PoolStats{size(), jobs_run_.load(std::memory_order_relaxed),
                     static_cast<double>(
                         busy_ns_.load(std::memory_order_relaxed)) *
                         1e-9};
  }

  /// Run fn(begin, end, worker) over [0, n) split into size() contiguous
  /// blocks; blocks before returning. Worker ids are stable in [0, size()).
  /// The calling thread does not execute work (workers own their scratch).
  void parallel_for(size_t n,
                    const std::function<void(size_t, size_t, unsigned)>& fn);

  /// Run fn(chunk_index, worker) for every chunk in [0, chunks); chunks are
  /// handed out dynamically but results should be written by chunk_index so
  /// output stays deterministic.
  void parallel_chunks(size_t chunks,
                       const std::function<void(size_t, unsigned)>& fn);

  /// Non-blocking parallel_for: enqueues the same static split and returns
  /// immediately; `on_done` runs exactly once, on the worker that finishes
  /// the last block. Lets one caller fan out over several pools at once
  /// (per-shard pools in align::ShardedSearch) and wait on its own latch.
  /// Unlike parallel_for, fn's third argument is the *block* index in
  /// [0, size()) — stable per block even when one worker executes several
  /// blocks of the same fan-out — so callers can index output slots by it.
  void parallel_for_async(size_t n,
                          std::function<void(size_t, size_t, unsigned)> fn,
                          std::function<void()> on_done);

  /// Jobs enqueued or running right now (queue-depth gauge; approximate).
  size_t pending() const noexcept {
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
  }

 private:
  struct Job {
    std::function<void(unsigned)> fn;  // receives worker id
  };
  void worker_loop(unsigned id);

  std::vector<std::thread> workers_;
  std::vector<int> affinity_cpus_;  // empty: unpinned
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::queue<Job> jobs_;
  size_t outstanding_ = 0;
  bool stop_ = false;
  std::atomic<uint64_t> jobs_run_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

/// Contiguous block [begin, end) of [0, n) for worker `w` of `workers`.
inline std::pair<size_t, size_t> block_range(size_t n, unsigned w, unsigned workers) {
  const size_t base = n / workers, rem = n % workers;
  const size_t begin = static_cast<size_t>(w) * base + std::min<size_t>(w, rem);
  return {begin, begin + base + (w < rem ? 1 : 0)};
}

}  // namespace swve::parallel

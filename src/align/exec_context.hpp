// Execution context threaded through the scenario engines.
//
// The engines (engine::search_diagonal and ShardedSearch's scan and
// search) take everything a request needs — the thread pool to fan out
// over, a cooperative cancellation flag, a deadline — in an ExecContext.
// The engines keep no query state across requests: each builds its query
// feed (core::PreparedQuery) once per request and takes scratch memory
// from the running thread's core::thread_workspace().
// Cancellation/deadline is checked at sequence-chunk granularity: an engine
// polls should_stop() between sequences (diagonal path) or between batches
// (batch path) and returns early with the result marked truncated.
#pragma once

#include <atomic>
#include <chrono>

#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"

namespace swve::align {

struct ExecContext {
  using Clock = std::chrono::steady_clock;

  /// Pool for intra-request parallelism; null runs single-threaded.
  /// (Two or more ShardedSearch shards use their own pools instead.)
  parallel::ThreadPool* pool = nullptr;

  /// Optional external cancellation: when *cancel becomes true the engine
  /// stops at the next chunk boundary.
  const std::atomic<bool>* cancel = nullptr;

  /// Optional deadline; time_point{} (epoch) means none.
  Clock::time_point deadline{};

  /// Tracing: engines open obs::Span chunks against this. Inactive (no
  /// sink) by default, in which case every span call is one null check.
  obs::TraceContext trace{};

  bool has_deadline() const noexcept {
    return deadline.time_since_epoch().count() != 0;
  }
  bool expired() const noexcept {
    return has_deadline() && Clock::now() >= deadline;
  }
  bool cancelled() const noexcept {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  /// Polled by engines between chunks. Reads the clock only when a deadline
  /// is set, so the common (no-deadline) path costs one predictable branch.
  bool should_stop() const noexcept { return cancelled() || expired(); }
};

}  // namespace swve::align

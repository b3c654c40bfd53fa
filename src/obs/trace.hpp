// Request tracing: spans recorded into a lock-free per-thread ring buffer,
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// Design constraints, in order:
//   1. Pay-for-what-you-use. A TraceContext with no sink and no PMU makes
//      every Span call a single branch — no clock reads, no stores.
//      Engines thread a TraceContext unconditionally; only processes that
//      install a TraceSink (or enable PMU attribution) pay for tracing.
//   2. Lock-free recording. Each recording thread owns one single-producer
//      ring in the sink; an event write is a per-slot seqlock (all fields
//      are relaxed atomics, so concurrent export is data-race-free and a
//      torn read is detected by the version check and skipped).
//   3. Bounded memory, paid as used. A ring is allocated when its thread
//      first records and grows resident one written slot at a time
//      (obs/ring_storage.hpp); full rings overwrite their oldest events,
//      and the sink counts what it dropped so an export is never silently
//      partial.
//   4. Crash-readable. The ring is plain atomics, so the flight recorder
//      (obs/flight_recorder.hpp) can export it from a signal handler via
//      the allocation-free read_events()/write_chrome_trace() paths.
//
// A thread binds to a ring slot the first time it records into a given
// sink (thread_local cache keyed by a process-unique sink id). Threads
// beyond `max_threads`, or whose ring could not be allocated, drop their
// events (counted in dropped()).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/pmu.hpp"
#include "obs/ring_storage.hpp"
#include "simd/cpu.hpp"

namespace swve::perf {
enum class KernelVariant : int;
class MetricsRegistry;
}  // namespace swve::perf

namespace swve::obs {

/// Why a chunk of kernel work stopped early (mirrors ExecContext polling).
enum class TruncCause : uint8_t { None = 0, Cancelled = 1, Deadline = 2 };
const char* trunc_cause_name(TruncCause c) noexcept;

/// One completed span ("ph":"X" in the Chrome trace format). `name` must be
/// a string with static storage duration — events store the pointer.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t trace_id = 0;       ///< request the span belongs to (0 = none)
  uint64_t ts_ns = 0;          ///< start, ns since the sink's epoch
  uint64_t dur_ns = 0;
  uint32_t tid = 0;            ///< ring slot of the recording thread

  // Kernel-work annotations (default values mean "unset" and are omitted
  // from the exported args).
  simd::Isa isa = simd::Isa::Auto;
  uint16_t width_bits = 0;     ///< DP integer width (8/16/32)
  uint32_t lanes = 0;          ///< batch-kernel lane count
  uint64_t cells = 0;          ///< DP cells computed in the span
  uint64_t useful_cells = 0;   ///< cells on real residues (batch path:
                               ///< cells minus padding — packing efficiency)
  uint64_t index = kNoIndex;   ///< chunk/batch/query index
  TruncCause trunc = TruncCause::None;

  // Hardware-counter deltas over the span (obs::PmuSession start/stop
  // reads; all zero when PMU attribution is off or unavailable).
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t stall_frontend = 0;
  uint64_t stall_backend = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;

  static constexpr uint64_t kNoIndex = ~uint64_t{0};

  double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Effective GHz of the recording thread over the span.
  double effective_ghz() const noexcept {
    return dur_ns > 0 && cycles > 0
               ? static_cast<double>(cycles) / static_cast<double>(dur_ns)
               : 0.0;
  }
};

/// Lock-free trace-event sink. One per process (or per service); install it
/// on a TraceContext to enable recording. All methods are thread-safe;
/// record() is wait-free for a thread that already holds a ring slot.
class TraceSink {
 public:
  /// `events_per_thread` is rounded up to a power of two; each of up to
  /// `max_threads` recording threads gets its own ring of that many slots,
  /// allocated when the thread first records. Throws std::invalid_argument
  /// when one ring's size would overflow size_t.
  explicit TraceSink(size_t events_per_thread = 8192,
                     unsigned max_threads = 64);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Record one completed span. Wait-free; overwrites the thread's oldest
  /// event when its ring is full. A thread's first record allocates its
  /// ring (nothrow); later ones write one slot and allocate nothing.
  void record(const TraceEvent& event) noexcept;

  /// Convenience: record a span whose endpoints were captured with
  /// now_ns() (e.g. queue wait measured from the submit site).
  void record_span(const char* name, uint64_t trace_id, uint64_t t0_ns,
                   uint64_t t1_ns) noexcept;

  /// Nanoseconds since this sink was created (the trace time base).
  uint64_t now_ns() const noexcept;
  /// The sink's epoch on the steady_now_ns() scale (span timestamps are
  /// `steady_now_ns() - epoch_steady_ns()`).
  uint64_t epoch_steady_ns() const noexcept { return epoch_steady_ns_; }

  /// Allocate a request trace id (1-based, monotone).
  uint64_t next_trace_id() noexcept {
    return trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Events ever recorded into a ring (dropped ones included).
  uint64_t recorded() const noexcept;
  /// Events lost: overwritten by ring wrap, dropped for lack of a thread
  /// slot or of ring memory, or skipped because an export raced their
  /// (re)write.
  uint64_t dropped() const noexcept;
  /// dropped(), by cause — exported as swve_trace_dropped_total{cause=...}.
  uint64_t wrap_dropped() const noexcept;
  uint64_t torn_skipped() const noexcept {
    return torn_skipped_.load(std::memory_order_relaxed);
  }
  uint64_t overflow_dropped() const noexcept {
    return overflow_dropped_.load(std::memory_order_relaxed);
  }

  /// Point-in-time copy of every live event, sorted by start timestamp.
  /// Safe to call while other threads record.
  std::vector<TraceEvent> snapshot_events() const;

  /// Allocation-free snapshot into a caller buffer (unsorted, ring order).
  /// Async-signal-safe: reads only atomics. Returns events written.
  size_t read_events(TraceEvent* out, size_t max) const noexcept;

  /// Chrome trace-event JSON ("traceEvents" array of complete events with
  /// ISA/width/lanes/cells/trunc/PMU args, plus per-thread "ipc"/"ghz"
  /// counter tracks). Load in Perfetto/chrome://tracing.
  std::string chrome_trace_json() const;

  /// Chrome trace JSON straight to a file descriptor with no allocation —
  /// the signal-handler flush path (events unsorted; viewers re-sort).
  /// Returns false if a write failed.
  bool write_chrome_trace(int fd) const noexcept;

  unsigned max_threads() const noexcept { return max_threads_; }

 private:
  // Per-slot seqlock: version is odd while a write is in progress; every
  // field is a relaxed atomic so concurrent export never data-races.
  struct Slot {
    std::atomic<uint64_t> version{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<uint64_t> trace_id{0};
    std::atomic<uint64_t> ts_ns{0};
    std::atomic<uint64_t> dur_ns{0};
    std::atomic<uint64_t> meta{0};  ///< isa | trunc | width_bits | lanes
    std::atomic<uint64_t> cells{0};
    std::atomic<uint64_t> useful_cells{0};
    std::atomic<uint64_t> index{0};
    std::atomic<uint64_t> cycles{0};
    std::atomic<uint64_t> instructions{0};
    std::atomic<uint64_t> stall_frontend{0};
    std::atomic<uint64_t> stall_backend{0};
    std::atomic<uint64_t> llc_misses{0};
    std::atomic<uint64_t> branch_misses{0};
  };
  // One cache line per ring: every record() stores its thread's `head`,
  // so neighbouring rings must not share a line.
  struct alignas(64) Ring {
    RingStorage<Slot> slots;        ///< allocated by the owning thread
    std::atomic<uint64_t> head{0};  ///< events ever written to this ring
  };
  static_assert(alignof(Ring) == 64 && sizeof(Ring) == 64);

  /// Ring index for the calling thread, registering it and allocating its
  /// ring on first use; -1 when all `max_threads_` slots are taken or the
  /// ring could not be allocated.
  int ring_index() noexcept;

  /// Seqlock-checked read of one slot; false if torn (counted).
  bool read_slot(const Slot& s, TraceEvent& e) const noexcept;

  size_t capacity_;
  uint64_t mask_;
  unsigned max_threads_;
  std::unique_ptr<Ring[]> rings_;
  std::atomic<unsigned> registered_{0};
  std::atomic<uint64_t> overflow_dropped_{0};
  mutable std::atomic<uint64_t> torn_skipped_{0};
  std::chrono::steady_clock::time_point epoch_;
  uint64_t epoch_steady_ns_ = 0;
  uint64_t sink_id_;  ///< process-unique, keys the thread_local ring cache
  /// Written by every request; on a cache line of its own, away from the
  /// fields record() reads.
  alignas(64) std::atomic<uint64_t> trace_ids_{0};
};

/// What flows on align::ExecContext: which sink (if any) to record into,
/// the id of the request being traced, and — when hardware-counter
/// attribution is on — the PMU session and the registry that aggregates
/// per-ISA×kernel×width deltas. Copyable, plain pointers.
struct TraceContext {
  TraceSink* sink = nullptr;
  uint64_t trace_id = 0;
  /// Non-null enables span-scoped counter reads (degrades internally).
  PmuSession* pmu = nullptr;
  /// Non-null aggregates kernel-span PMU deltas (set_kernel() selects the
  /// attribution cell together with set_isa()/set_width_bits()).
  perf::MetricsRegistry* registry = nullptr;
  bool active() const noexcept { return sink != nullptr || pmu != nullptr; }
};

/// RAII span. With an inactive context the constructor, every setter, and
/// the destructor reduce to one branch — the pay-for-what-you-use
/// guarantee tested by test_perf.cpp (TracingOverhead.*).
class Span {
 public:
  Span() = default;
  Span(const TraceContext& ctx, const char* name) noexcept {
    if (ctx.active()) begin(ctx, name, steady_now_ns());
  }
  /// A span that started at `start_ns` (steady_now_ns() scale), a clock
  /// value the caller already read for the same instant.
  Span(const TraceContext& ctx, const char* name, uint64_t start_ns) noexcept {
    if (ctx.active()) begin(ctx, name, start_ns);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  void set_isa(simd::Isa isa) noexcept {
    if (live_) ev_.isa = isa;
  }
  void set_width_bits(uint16_t bits) noexcept {
    if (live_) ev_.width_bits = bits;
  }
  void set_lanes(uint32_t lanes) noexcept {
    if (live_) ev_.lanes = lanes;
  }
  void add_cells(uint64_t cells) noexcept {
    if (live_) ev_.cells += cells;
  }
  void set_useful_cells(uint64_t cells) noexcept {
    if (live_) ev_.useful_cells = cells;
  }
  void set_index(uint64_t index) noexcept {
    if (live_) ev_.index = index;
  }
  void set_trunc(TruncCause cause) noexcept {
    if (live_) ev_.trunc = cause;
  }
  /// Mark this span as kernel work of the given family; with a registry on
  /// the context its PMU delta is aggregated under
  /// (isa, kernel, width_bits) when the span ends.
  void set_kernel(perf::KernelVariant variant) noexcept {
    if (live_) {
      kernel_ = variant;
      has_kernel_ = true;
    }
  }

  /// Record the span now (idempotent; the destructor is then a no-op).
  void end() noexcept {
    if (live_) finish(steady_now_ns());
  }
  /// Record the span as ending at `end_ns` (steady_now_ns() scale), a
  /// clock value the caller already read for the same instant. Hardware
  /// counters, when live, are still read here.
  void end(uint64_t end_ns) noexcept {
    if (live_) finish(end_ns);
  }

 private:
  void begin(const TraceContext& ctx, const char* name,
             uint64_t start_ns) noexcept;
  void finish(uint64_t end_ns) noexcept;

  bool live_ = false;
  bool has_kernel_ = false;
  perf::KernelVariant kernel_{};
  TraceSink* sink_ = nullptr;
  PmuSession* pmu_ = nullptr;
  perf::MetricsRegistry* registry_ = nullptr;
  PmuReading start_{};
  TraceEvent ev_{};
};

}  // namespace swve::obs

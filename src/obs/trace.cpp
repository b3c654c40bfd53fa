#include "obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "perf/metrics.hpp"

namespace swve::obs {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::atomic<uint64_t> g_sink_ids{0};

uint64_t pack_meta(const TraceEvent& e) noexcept {
  // Lanes only need 24 bits (64 max today).
  return static_cast<uint64_t>(static_cast<uint8_t>(e.isa)) |
         static_cast<uint64_t>(static_cast<uint8_t>(e.trunc)) << 8 |
         static_cast<uint64_t>(e.width_bits) << 16 |
         static_cast<uint64_t>(e.lanes & 0xffffff) << 32;
}

void unpack_meta(uint64_t m, TraceEvent& e) noexcept {
  e.isa = static_cast<simd::Isa>(m & 0xff);
  e.trunc = static_cast<TruncCause>((m >> 8) & 0xff);
  e.width_bits = static_cast<uint16_t>((m >> 16) & 0xffff);
  e.lanes = static_cast<uint32_t>((m >> 32) & 0xffffff);
}

/// Append one event's "args" object body (after the opening brace) to a
/// stack buffer; returns characters written. Shared by the allocating and
/// the signal-safe exporters, snprintf-only.
int format_event_args(char* buf, size_t cap, const TraceEvent& e) noexcept {
  int n = std::snprintf(buf, cap, "\"trace_id\":%" PRIu64, e.trace_id);
  const auto app = [&](const char* fmt, auto... a) {
    if (n >= 0 && static_cast<size_t>(n) < cap)
      n += std::snprintf(buf + n, cap - static_cast<size_t>(n), fmt, a...);
  };
  if (e.isa != simd::Isa::Auto) app(",\"isa\":\"%s\"", simd::isa_name(e.isa));
  if (e.width_bits != 0) app(",\"width_bits\":%u", e.width_bits);
  if (e.lanes != 0) app(",\"lanes\":%u", e.lanes);
  if (e.cells != 0) app(",\"cells\":%" PRIu64, e.cells);
  if (e.useful_cells != 0)
    app(",\"useful_cells\":%" PRIu64, e.useful_cells);
  if (e.index != TraceEvent::kNoIndex) app(",\"index\":%" PRIu64, e.index);
  if (e.trunc != TruncCause::None)
    app(",\"trunc\":\"%s\"", trunc_cause_name(e.trunc));
  if (e.cycles != 0) {
    app(",\"cycles\":%" PRIu64 ",\"instructions\":%" PRIu64
        ",\"stall_fe\":%" PRIu64 ",\"stall_be\":%" PRIu64
        ",\"llc_miss\":%" PRIu64 ",\"branch_miss\":%" PRIu64
        ",\"ipc\":%.3f,\"eff_ghz\":%.3f",
        e.cycles, e.instructions, e.stall_frontend, e.stall_backend,
        e.llc_misses, e.branch_misses, e.ipc(), e.effective_ghz());
  }
  return n;
}

#if defined(__unix__) || defined(__APPLE__)
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
#endif

}  // namespace

const char* trunc_cause_name(TruncCause c) noexcept {
  switch (c) {
    case TruncCause::None: return "none";
    case TruncCause::Cancelled: return "cancelled";
    case TruncCause::Deadline: return "deadline";
  }
  return "?";
}

TraceSink::TraceSink(size_t events_per_thread, unsigned max_threads)
    : capacity_(std::bit_ceil(std::max<size_t>(events_per_thread, 2))),
      mask_(capacity_ - 1),
      max_threads_(std::max(1u, max_threads)),
      rings_(new Ring[max_threads_]),
      epoch_(std::chrono::steady_clock::now()),
      epoch_steady_ns_(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              epoch_.time_since_epoch())
              .count())),
      sink_id_(g_sink_ids.fetch_add(1, kRelaxed) + 1) {
  for (unsigned r = 0; r < max_threads_; ++r)
    rings_[r].slots.reset(new Slot[capacity_]);
}

uint64_t TraceSink::now_ns() const noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

int TraceSink::ring_index() noexcept {
  // One cache entry per thread: a thread that alternates between two live
  // sinks re-registers on each switch (acceptable — the expected shape is
  // one sink per process).
  struct Cache {
    uint64_t sink_id = 0;
    int idx = -1;
  };
  thread_local Cache cache;
  if (cache.sink_id == sink_id_) return cache.idx;
  const unsigned i = registered_.fetch_add(1, kRelaxed);
  cache.sink_id = sink_id_;
  cache.idx = i < max_threads_ ? static_cast<int>(i) : -1;
  return cache.idx;
}

void TraceSink::record(const TraceEvent& event) noexcept {
  const int r = ring_index();
  if (r < 0) {
    overflow_dropped_.fetch_add(1, kRelaxed);
    return;
  }
  Ring& ring = rings_[r];
  const uint64_t h = ring.head.load(kRelaxed);  // single producer: this thread
  Slot& s = ring.slots[h & mask_];
  const uint64_t v = s.version.load(kRelaxed);
  s.version.store(v + 1, kRelaxed);  // odd: write in progress
  std::atomic_thread_fence(std::memory_order_release);
  s.name.store(event.name, kRelaxed);
  s.trace_id.store(event.trace_id, kRelaxed);
  s.ts_ns.store(event.ts_ns, kRelaxed);
  s.dur_ns.store(event.dur_ns, kRelaxed);
  s.meta.store(pack_meta(event), kRelaxed);
  s.cells.store(event.cells, kRelaxed);
  s.useful_cells.store(event.useful_cells, kRelaxed);
  s.index.store(event.index, kRelaxed);
  s.cycles.store(event.cycles, kRelaxed);
  s.instructions.store(event.instructions, kRelaxed);
  s.stall_frontend.store(event.stall_frontend, kRelaxed);
  s.stall_backend.store(event.stall_backend, kRelaxed);
  s.llc_misses.store(event.llc_misses, kRelaxed);
  s.branch_misses.store(event.branch_misses, kRelaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.version.store(v + 2, kRelaxed);
  ring.head.store(h + 1, std::memory_order_release);
}

void TraceSink::record_span(const char* name, uint64_t trace_id,
                            uint64_t t0_ns, uint64_t t1_ns) noexcept {
  TraceEvent e;
  e.name = name;
  e.trace_id = trace_id;
  e.ts_ns = t0_ns;
  e.dur_ns = t1_ns > t0_ns ? t1_ns - t0_ns : 0;
  record(e);
}

uint64_t TraceSink::recorded() const noexcept {
  uint64_t n = 0;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live; ++r) n += rings_[r].head.load(kRelaxed);
  return n + overflow_dropped_.load(kRelaxed);
}

uint64_t TraceSink::wrap_dropped() const noexcept {
  uint64_t n = 0;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live; ++r) {
    const uint64_t h = rings_[r].head.load(kRelaxed);
    if (h > capacity_) n += h - capacity_;
  }
  return n;
}

uint64_t TraceSink::dropped() const noexcept {
  return wrap_dropped() + overflow_dropped_.load(kRelaxed) +
         torn_skipped_.load(kRelaxed);
}

bool TraceSink::read_slot(const Slot& s, TraceEvent& e) const noexcept {
  const uint64_t v1 = s.version.load(std::memory_order_acquire);
  if (v1 & 1) {  // mid-write
    torn_skipped_.fetch_add(1, kRelaxed);
    return false;
  }
  e.name = s.name.load(kRelaxed);
  e.trace_id = s.trace_id.load(kRelaxed);
  e.ts_ns = s.ts_ns.load(kRelaxed);
  e.dur_ns = s.dur_ns.load(kRelaxed);
  unpack_meta(s.meta.load(kRelaxed), e);
  e.cells = s.cells.load(kRelaxed);
  e.useful_cells = s.useful_cells.load(kRelaxed);
  e.index = s.index.load(kRelaxed);
  e.cycles = s.cycles.load(kRelaxed);
  e.instructions = s.instructions.load(kRelaxed);
  e.stall_frontend = s.stall_frontend.load(kRelaxed);
  e.stall_backend = s.stall_backend.load(kRelaxed);
  e.llc_misses = s.llc_misses.load(kRelaxed);
  e.branch_misses = s.branch_misses.load(kRelaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.version.load(kRelaxed) != v1 || e.name == nullptr) {
    torn_skipped_.fetch_add(1, kRelaxed);  // overwritten while reading
    return false;
  }
  return true;
}

std::vector<TraceEvent> TraceSink::snapshot_events() const {
  std::vector<TraceEvent> out;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t h = ring.head.load(std::memory_order_acquire);
    const uint64_t begin = h > capacity_ ? h - capacity_ : 0;
    for (uint64_t i = begin; i < h; ++i) {
      TraceEvent e;
      if (!read_slot(ring.slots[i & mask_], e)) continue;
      e.tid = r;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns : a.tid < b.tid;
            });
  return out;
}

size_t TraceSink::read_events(TraceEvent* out, size_t max) const noexcept {
  size_t n = 0;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live && n < max; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t h = ring.head.load(std::memory_order_acquire);
    const uint64_t begin = h > capacity_ ? h - capacity_ : 0;
    for (uint64_t i = begin; i < h && n < max; ++i) {
      TraceEvent e;
      if (!read_slot(ring.slots[i & mask_], e)) continue;
      e.tid = r;
      out[n++] = e;
    }
  }
  return n;
}

std::string TraceSink::chrome_trace_json() const {
  const std::vector<TraceEvent> events = snapshot_events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "\n{\"name\":\"%s\",\"cat\":\"swve\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  e.name, e.tid, static_cast<double>(e.ts_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3);
    out += buf;
    format_event_args(buf, sizeof buf, e);
    out += buf;
    out += "}}";
    // PMU spans get companion counter tracks ("ph":"C"): an ipc/ghz
    // sample at the span's end, one track pair per thread — Perfetto draws
    // them as stacked per-thread graphs under the slices.
    if (e.cycles != 0 && e.dur_ns != 0) {
      const double end_us = static_cast<double>(e.ts_ns + e.dur_ns) * 1e-3;
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"ipc tid %u\",\"cat\":\"swve\",\"ph\":\"C\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"args\":{\"ipc\":%.3f}}"
                    ",\n{\"name\":\"ghz tid %u\",\"cat\":\"swve\",\"ph\":\"C\","
                    "\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"args\":{\"ghz\":%.3f}}",
                    e.tid, e.tid, end_us, e.ipc(), e.tid, e.tid, end_us,
                    e.effective_ghz());
      out += buf;
    }
  }
  char tail[96];
  std::snprintf(tail, sizeof tail,
                "\n],\"otherData\":{\"dropped_events\":%" PRIu64 "}}\n",
                dropped());
  out += tail;
  return out;
}

bool TraceSink::write_chrome_trace(int fd) const noexcept {
#if defined(__unix__) || defined(__APPLE__)
  // Signal-handler path: slot-by-slot seqlock reads, one snprintf+write(2)
  // per event, zero allocation. Events come out in ring order — trace
  // viewers sort by ts, so that is fine.
  static constexpr char kHead[] = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  if (!write_all(fd, kHead, sizeof kHead - 1)) return false;
  char buf[768];
  bool first = true;
  const unsigned live = std::min(registered_.load(kRelaxed), max_threads_);
  for (unsigned r = 0; r < live; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t h = ring.head.load(std::memory_order_acquire);
    const uint64_t begin = h > capacity_ ? h - capacity_ : 0;
    for (uint64_t i = begin; i < h; ++i) {
      TraceEvent e;
      if (!read_slot(ring.slots[i & mask_], e)) continue;
      e.tid = r;
      int n = std::snprintf(
          buf, sizeof buf,
          "%s\n{\"name\":\"%s\",\"cat\":\"swve\",\"ph\":\"X\","
          "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
          first ? "" : ",", e.name, e.tid,
          static_cast<double>(e.ts_ns) * 1e-3,
          static_cast<double>(e.dur_ns) * 1e-3);
      if (n < 0 || static_cast<size_t>(n) >= sizeof buf) continue;
      first = false;
      const int a = format_event_args(buf + n, sizeof buf - n - 4, e);
      if (a > 0) n += std::min(a, static_cast<int>(sizeof buf) - n - 4);
      buf[n++] = '}';
      buf[n++] = '}';
      if (!write_all(fd, buf, static_cast<size_t>(n))) return false;
    }
  }
  const int n =
      std::snprintf(buf, sizeof buf,
                    "\n],\"otherData\":{\"dropped_events\":%" PRIu64 "}}\n",
                    dropped());
  return n > 0 && write_all(fd, buf, static_cast<size_t>(n));
#else
  (void)fd;
  return false;
#endif
}

void Span::begin(const TraceContext& ctx, const char* name) noexcept {
  live_ = true;
  sink_ = ctx.sink;
  pmu_ = ctx.pmu;
  registry_ = ctx.registry;
  ev_.name = name;
  ev_.trace_id = ctx.trace_id;
  // One clock read either way: a PMU read stamps `ns` itself.
  start_ = pmu_ != nullptr ? pmu_->read() : PmuReading{};
  if (!start_.hw && start_.ns == 0) start_.ns = steady_now_ns();
}

void Span::finish() noexcept {
  live_ = false;
  const PmuReading end_reading =
      pmu_ != nullptr ? pmu_->read() : PmuReading{.ns = steady_now_ns()};
  const PmuDelta d = PmuSession::delta(start_, end_reading);
  ev_.dur_ns = d.wall_ns;
  if (d.hw) {
    ev_.cycles = d.cycles;
    ev_.instructions = d.instructions;
    ev_.stall_frontend = d.stall_frontend;
    ev_.stall_backend = d.stall_backend;
    ev_.llc_misses = d.llc_misses;
    ev_.branch_misses = d.branch_misses;
  }
  if (sink_ != nullptr) {
    ev_.ts_ns = start_.ns > sink_->epoch_steady_ns()
                    ? start_.ns - sink_->epoch_steady_ns()
                    : 0;
    sink_->record(ev_);
  }
  // Kernel spans aggregate into the ISA×kernel×width attribution cell even
  // without hardware counters — wall time still feeds per-cell GCUPS and
  // keeps the fallback observable.
  if (registry_ != nullptr && has_kernel_) {
    perf::PmuSample s;
    s.samples = 1;
    s.wall_ns = d.wall_ns;
    s.cycles = ev_.cycles;
    s.instructions = ev_.instructions;
    s.stall_frontend = ev_.stall_frontend;
    s.stall_backend = ev_.stall_backend;
    s.llc_misses = ev_.llc_misses;
    s.branch_misses = ev_.branch_misses;
    registry_->on_pmu_sample(ev_.isa, kernel_, ev_.width_bits, s);
  }
}

}  // namespace swve::obs

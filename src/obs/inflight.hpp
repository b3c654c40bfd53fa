// In-flight request table: one atomic slot per running request, recording
// which request is running right now and since when. Executors own fixed
// slots; a request run on its submitting thread claims a free slot with a
// CAS on `id`, so two runners never share an entry. A thread's claim
// starts at the slot it last held, so each submitter settles on a slot of
// its own.
//
// Two consumers, both of which forbid locks:
//   * the watchdog thread (obs/watchdog.hpp) scans it every period looking
//     for requests running past their latency SLO;
//   * the flight recorder (obs/flight_recorder.hpp) snapshots it from a
//     fatal-signal handler — the "what was the service doing when it died"
//     table of the crash dump.
//
// Every field is a relaxed atomic; a slot is occupied while `id != 0`. A
// reader can observe a torn entry only across a request boundary (id from
// the new request with start_ns from the old); the id-recheck in
// snapshot() drops entries that were released mid-read, which is the worst
// staleness a diagnostic table needs to care about. A claimed slot holds
// kClaiming until its fields are written, and snapshot() skips it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "obs/pmu.hpp"
#include "perf/metrics.hpp"

namespace swve::obs {

class InFlightTable {
 public:
  /// A snapshot row (plain values, safe to format from a signal handler).
  struct Entry {
    uint32_t slot = 0;         ///< table index (executors' fixed slots first)
    uint64_t id = 0;           ///< request trace id
    uint32_t scenario = 0;     ///< perf::Scenario code
    uint64_t start_ns = 0;     ///< steady_now_ns() at execution start
    uint64_t deadline_ns = 0;  ///< absolute deadline on the same clock, 0=none
  };

  explicit InFlightTable(unsigned slots)
      : slots_(std::max(1u, slots)), table_(new Slot[slots_]) {}
  InFlightTable(const InFlightTable&) = delete;
  InFlightTable& operator=(const InFlightTable&) = delete;

  unsigned slots() const noexcept { return slots_; }

  /// RAII occupancy of one slot for one request; empty when a claim() found
  /// no free slot.
  class Guard {
   public:
    Guard() = default;
    /// Occupy fixed slot `slot` (< slots()), which the caller owns
    /// exclusively: an executor's own slot, never one claim() can hand out.
    Guard(InFlightTable& table, unsigned slot, uint64_t id, perf::Scenario scenario,
          uint64_t deadline_ns) noexcept
        : table_(&table), slot_(slot) {
      table_->begin(slot_, id, scenario, deadline_ns, steady_now_ns());
    }
    Guard(Guard&& o) noexcept
        : table_(std::exchange(o.table_, nullptr)), slot_(o.slot_) {}
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (table_ != nullptr) table_->end(slot_);
    }

    explicit operator bool() const noexcept { return table_ != nullptr; }
    unsigned slot() const noexcept { return slot_; }

   private:
    friend class InFlightTable;
    InFlightTable* table_ = nullptr;
    unsigned slot_ = 0;
  };

  /// Claim a free slot in [first, slots()) for one request that started at
  /// `start_ns` (steady_now_ns() scale): the first whose `id` CASes from 0,
  /// scanning from the slot the calling thread last claimed so concurrent
  /// claimers do not all CAS the same slot. Returns an empty Guard when
  /// every one is occupied.
  Guard claim(unsigned first, uint64_t id, perf::Scenario scenario,
              uint64_t deadline_ns,
              uint64_t start_ns = steady_now_ns()) noexcept {
    if (first >= slots_) return {};
    thread_local unsigned last = 0;
    const unsigned span = slots_ - first;
    const unsigned from = last >= first && last < slots_ ? last - first : 0;
    for (unsigned k = 0; k < span; ++k) {
      const unsigned i = first + (from + k) % span;
      uint64_t free = 0;
      if (!table_[i].id.compare_exchange_strong(free, kClaiming,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed))
        continue;
      last = i;
      Guard g;
      g.table_ = this;
      g.slot_ = i;
      begin(i, id, scenario, deadline_ns, start_ns);
      return g;
    }
    return {};
  }

  /// Copy occupied slots into `out` (signal-safe, no allocation). Returns
  /// rows written.
  size_t snapshot(Entry* out, size_t max) const noexcept {
    size_t n = 0;
    for (unsigned i = 0; i < slots_ && n < max; ++i) {
      const Slot& s = table_[i];
      const uint64_t id = s.id.load(std::memory_order_acquire);
      if (id == 0 || id == kClaiming) continue;
      Entry e;
      e.slot = i;
      e.id = id;
      e.scenario = s.scenario.load(std::memory_order_relaxed);
      e.start_ns = s.start_ns.load(std::memory_order_relaxed);
      e.deadline_ns = s.deadline_ns.load(std::memory_order_relaxed);
      if (s.id.load(std::memory_order_acquire) != id) continue;  // released
      out[n++] = e;
    }
    return n;
  }

  /// Occupied-slot count (approximate under concurrency).
  size_t active() const noexcept {
    size_t n = 0;
    for (unsigned i = 0; i < slots_; ++i)
      if (table_[i].id.load(std::memory_order_relaxed) != 0) ++n;
    return n;
  }

 private:
  /// `id` of a slot claimed but not yet filled in; begin() never stores it.
  static constexpr uint64_t kClaiming = ~uint64_t{0};

  // One cache line each: concurrent runners write their own slots.
  struct alignas(64) Slot {
    std::atomic<uint64_t> id{0};
    std::atomic<uint32_t> scenario{0};
    std::atomic<uint64_t> start_ns{0};
    std::atomic<uint64_t> deadline_ns{0};
  };

  void begin(unsigned slot, uint64_t id, perf::Scenario scenario,
             uint64_t deadline_ns, uint64_t start_ns) noexcept {
    Slot& s = table_[slot];
    s.scenario.store(static_cast<uint32_t>(scenario),
                     std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.deadline_ns.store(deadline_ns, std::memory_order_relaxed);
    s.id.store(id != 0 && id != kClaiming ? id : 1, std::memory_order_release);
  }
  void end(unsigned slot) noexcept {
    table_[slot].id.store(0, std::memory_order_release);
  }

  unsigned slots_;
  std::unique_ptr<Slot[]> table_;
};

}  // namespace swve::obs

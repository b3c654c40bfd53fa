// Storage for the per-thread rings of obs::TraceSink and obs::Logger.
//
// A sink may allow many recording threads with large rings, yet only a
// few threads ever record and most rings never fill. So a ring is
// allocated when its thread registers, not when the sink is built, and
// its memory is taken untouched: at ring sizes past the allocator's mmap
// threshold the pages stay unmapped until the owner writes the slots on
// them. Each slot is constructed on the owner's first visit, so a ring
// costs resident memory in proportion to the events written, up to its
// capacity.
#pragma once

#include <bit>
#include <cstddef>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace swve::obs {

/// Slots per ring: `requested` rounded up to a power of two (at least 2).
/// Throws std::invalid_argument when a ring of that many `Slot`s would not
/// fit in size_t.
template <class Slot>
size_t ring_capacity(size_t requested, const char* who) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  const size_t want = requested < 2 ? 2 : requested;
  if (want > (kMax >> 1) + 1 || std::bit_ceil(want) > kMax / sizeof(Slot))
    throw std::invalid_argument(std::string(who) +
                                ": ring capacity overflows size_t");
  return std::bit_ceil(want);
}

/// One ring's slots. Empty until allocate(); the single producing thread
/// calls construct(i) before it first writes slot i. A reader may index
/// only slots the producer has published (below a head it acquired), which
/// also orders the allocation before the read.
template <class Slot>
class RingStorage {
  static_assert(std::is_trivially_destructible_v<Slot>,
                "slots are released without running destructors");

 public:
  RingStorage() = default;
  RingStorage(const RingStorage&) = delete;
  RingStorage& operator=(const RingStorage&) = delete;
  ~RingStorage() { ::operator delete(slots_); }

  /// Take `capacity` slots of untouched memory; false when the allocation
  /// failed (the ring stays empty).
  bool allocate(size_t capacity) noexcept {
    slots_ = static_cast<Slot*>(
        ::operator new(capacity * sizeof(Slot), std::nothrow));
    return slots_ != nullptr;
  }

  /// Begin slot i's lifetime (value-initialised); the first write only.
  Slot& construct(size_t i) noexcept { return *::new (slots_ + i) Slot(); }

  Slot& operator[](size_t i) const noexcept { return slots_[i]; }

 private:
  Slot* slots_ = nullptr;
};

}  // namespace swve::obs

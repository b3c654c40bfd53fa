// Per-service cache of per-query state: built core::PreparedQuery feed
// arrays behind an LRU.
//
// Why: the engines are stateless — each request builds its query feeds. A
// service that sees the same query on back-to-back requests (the ROADMAP's
// "heavy repeated traffic") repays that setup on every request. The cache
// sits in ExecContext as an optional pointer: engines that find one share
// prepared queries; engines that don't build their own. Results are
// bit-identical either way. (Scratch memory is not cached here: every
// engine takes its thread's core::thread_workspace().)
//
// Keying: PreparedQuery contents depend only on the query bytes, but the
// LRU key also folds in the scoring config (matrix identity, scheme,
// match/mismatch, gap model/open/extend) and the resolved ISA. That is
// deliberately conservative — future cached artifacts (striped profiles,
// biased row tables) DO depend on those, and a too-wide key is a silent
// correctness trap while a too-narrow one only costs duplicate entries.
//
// Thread safety: all public methods are safe to call concurrently; the LRU
// is guarded by one mutex (lookups are O(query) hashing + a map probe, far
// below the DP work they precede). Entries are handed out as
// shared_ptr-to-const so eviction never invalidates an in-flight request.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/params.hpp"
#include "core/prepared_query.hpp"
#include "seq/sequence.hpp"

namespace swve::align {

struct QueryCacheStats {
  uint64_t hits = 0;        ///< prepared() served from the LRU
  uint64_t misses = 0;      ///< prepared() had to build
  uint64_t evictions = 0;   ///< LRU entries displaced at capacity
  size_t entries = 0;       ///< current LRU size
  uint64_t prepared_bytes = 0;  ///< memory held by cached PreparedQuerys
};

class QueryStateCache {
 public:
  /// `capacity` bounds the number of distinct (query, config, ISA) entries.
  explicit QueryStateCache(size_t capacity = 32);

  /// The PreparedQuery for `query` under `cfg`, building and caching it on
  /// first sight. The returned pointer stays valid after eviction (shared
  /// ownership); treat it as read-only (it is shared across threads).
  std::shared_ptr<const core::PreparedQuery> prepared(
      seq::SeqView query, const core::AlignConfig& cfg);

  QueryCacheStats stats() const;
  void clear();  ///< drop all entries (stats remain)
  size_t capacity() const noexcept { return capacity_; }

 private:
  struct Key {
    std::vector<uint8_t> qbytes;
    const void* matrix;
    int32_t match, mismatch, gap_open, gap_extend;
    uint8_t scheme, gap_model, isa;
    bool operator==(const Key& o) const noexcept;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const core::PreparedQuery> prep;
  };

  size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map_;
  QueryCacheStats stats_{};
};

}  // namespace swve::align

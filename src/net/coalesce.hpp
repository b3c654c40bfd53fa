// Request deduplication above AlignService: an LRU of serialized response
// payloads (hits for repeated requests after the first completes) and a
// singleflight table (joins for identical requests while the first is
// still in flight). Both index on net::cache_key — the 64-bit hash of the
// canonical net::cache_identity bytes (scenario, residue codes, effective
// config, top-k, db epoch) — and verify the full identity on every lookup,
// so "identical" means identical response bytes, never merely similar
// requests and never a hash collision (FNV collisions are constructible;
// without the check a crafted request could be served another client's
// cached result or coalesced onto their execution).
//
// The classes are event-loop-local by design (the epoll server is single
// threaded), so neither locks. ResultCache is a plain LRU: a std::list in
// recency order plus an unordered_map of its iterators.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"

namespace swve::net {

/// One serialized response, ready to send to any waiter: the payload bytes
/// plus everything needed to stamp a per-waiter frame header.
struct CachedResponse {
  MsgType type = MsgType::ErrorResponse;
  uint8_t status = 0;  ///< ServiceStatus wire byte
  uint8_t tier = 1;    ///< tier of the execution that produced it
  std::string payload;
};

/// LRU of serialized responses keyed by cache_key. Only Ok responses are
/// inserted (callers enforce it) — errors are often transient (queue full,
/// deadline) and must not be replayed.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Look up and refresh LRU position; null when absent (or capacity 0).
  /// `identity` must match the stored entry's identity bytes exactly — a
  /// key collision between distinct requests reads as a miss.
  const CachedResponse* get(uint64_t key, std::string_view identity);

  /// Insert (or refresh) an entry, evicting the least-recent at capacity.
  /// A colliding entry under the same key is replaced outright.
  /// Returns the number of evictions performed (0 or 1).
  size_t put(uint64_t key, std::string identity, CachedResponse response);

  size_t entries() const noexcept { return map_.size(); }
  size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    uint64_t key;
    std::string identity;  ///< canonical request bytes (net::cache_identity)
    CachedResponse response;
  };
  size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> map_;
};

/// One client waiting on an in-flight execution: enough to address its
/// response frame. `initiator` is the request that started the execution;
/// joiners get kFlagCoalesced.
struct FlightWaiter {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  bool json = false;
  bool initiator = false;
  bool traced = false;     ///< request carried a WireTraceContext
  bool sampled = false;    ///< its sampled bit (publication to /tracez)
  uint64_t trace_id = 0;   ///< echoed in this waiter's timing trailer
};

/// In-flight executions by cache key. The first submitter for a key starts
/// a flight and reaches the service; identical requests arriving before it
/// completes join the waiter list instead of executing again.
class Singleflight {
 public:
  enum class Join {
    Started,   ///< this call opened the flight; caller must submit
    Joined,    ///< identical request already in flight; waiter enqueued
    Mismatch,  ///< key collision with a DIFFERENT in-flight request —
               ///< caller must execute independently, outside the flight
  };

  /// Join or start the flight for `key`. `identity` must match the
  /// in-flight request's identity bytes for a Joined result.
  Join join(uint64_t key, std::string_view identity, FlightWaiter waiter);

  /// Complete a flight, returning its waiters (empty if unknown — e.g. the
  /// flight was taken over by drain).
  std::vector<FlightWaiter> complete(uint64_t key);

  /// Drop one connection's waiters from every flight (connection closed
  /// before its response). Flights stay live — the execution is shared.
  void drop_connection(uint64_t conn_id);

  size_t inflight() const noexcept { return flights_.size(); }

 private:
  struct Flight {
    std::string identity;  ///< canonical request bytes (net::cache_identity)
    std::vector<FlightWaiter> waiters;
  };
  std::unordered_map<uint64_t, Flight> flights_;
};

}  // namespace swve::net

#include "align/query_cache.hpp"

#include "simd/cpu.hpp"

namespace swve::align {

namespace {

// FNV-1a; queries are short enough (hundreds to a few thousand bytes) that
// byte-at-a-time hashing is noise next to the DP it precedes.
uint64_t fnv1a(const uint8_t* p, size_t n, uint64_t h = 0xCBF29CE484222325ull) {
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

bool QueryStateCache::Key::operator==(const Key& o) const noexcept {
  return matrix == o.matrix && match == o.match && mismatch == o.mismatch &&
         gap_open == o.gap_open && gap_extend == o.gap_extend &&
         scheme == o.scheme && gap_model == o.gap_model && isa == o.isa &&
         qbytes == o.qbytes;
}

size_t QueryStateCache::KeyHash::operator()(const Key& k) const noexcept {
  uint64_t h = fnv1a(k.qbytes.data(), k.qbytes.size());
  h = mix(h, reinterpret_cast<uintptr_t>(k.matrix));
  h = mix(h, (static_cast<uint64_t>(static_cast<uint32_t>(k.match)) << 32) |
                 static_cast<uint32_t>(k.mismatch));
  h = mix(h, (static_cast<uint64_t>(static_cast<uint32_t>(k.gap_open)) << 32) |
                 static_cast<uint32_t>(k.gap_extend));
  h = mix(h, (uint64_t{k.scheme} << 16) | (uint64_t{k.gap_model} << 8) |
                 uint64_t{k.isa});
  return static_cast<size_t>(h);
}

QueryStateCache::QueryStateCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const core::PreparedQuery> QueryStateCache::prepared(
    seq::SeqView query, const core::AlignConfig& cfg) {
  Key key;
  key.qbytes.assign(query.data, query.data + query.length);
  // Matrix identity matters only under the Matrix scheme, match/mismatch
  // only under Fixed — normalize the irrelevant half so equivalent configs
  // share an entry.
  const bool is_matrix = cfg.scheme == core::ScoreScheme::Matrix;
  key.matrix = is_matrix ? static_cast<const void*>(cfg.matrix) : nullptr;
  key.match = is_matrix ? 0 : cfg.match;
  key.mismatch = is_matrix ? 0 : cfg.mismatch;
  key.gap_open = cfg.gap_open;
  key.gap_extend = cfg.gap_extend;
  key.scheme = static_cast<uint8_t>(cfg.scheme);
  key.gap_model = static_cast<uint8_t>(cfg.gap_model);
  key.isa = static_cast<uint8_t>(simd::resolve_isa(cfg.isa));

  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      ++stats_.hits;
      return it->second->prep;
    }
  }

  // Build outside the lock: construction is O(query) but other requests
  // (different queries) shouldn't serialize behind it. A racing duplicate
  // build of the same query is harmless — last one in wins the LRU slot
  // and both copies are correct.
  auto prep = std::make_shared<const core::PreparedQuery>(query);

  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.misses;
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->prep;
  }
  stats_.prepared_bytes += prep->memory_bytes();
  lru_.push_front(Entry{std::move(key), prep});
  map_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > capacity_) {
    stats_.prepared_bytes -= lru_.back().prep->memory_bytes();
    map_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return prep;
}

QueryCacheStats QueryStateCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  QueryCacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

void QueryStateCache::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  map_.clear();
  stats_.prepared_bytes = 0;
}

}  // namespace swve::align

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "align/db_search.hpp"
#include "align/query_cache.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"

namespace swve::align {
namespace {

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 33) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 300;
  return seq::SequenceDatabase::synthetic(cfg);
}

TEST(PreparedQuery, FeedsMatchWorkspaceBuiltState) {
  auto q = seq::generate_sequence(600, 150);
  core::PreparedQuery prep(q);
  ASSERT_EQ(prep.query_length(), 150);
  for (int i = 0; i < 150; ++i) {
    EXPECT_EQ(prep.qmul32()[i], static_cast<int32_t>(q.codes()[i]) * seq::kMatrixStride);
    EXPECT_EQ(prep.qenc<uint8_t>()[i], q.codes()[i]);
    EXPECT_EQ(prep.qenc<uint16_t>()[i], q.codes()[i]);
    EXPECT_EQ(prep.qenc<int32_t>()[i], q.codes()[i]);
  }
  // Padding tail must be zero (kernels read a few lanes past the end).
  for (int i = 150; i < 150 + 32; ++i) {
    EXPECT_EQ(prep.qmul32()[i], 0);
    EXPECT_EQ(prep.qenc<uint8_t>()[i], 0);
  }
  EXPECT_GT(prep.memory_bytes(), 0u);
}

TEST(PreparedQuery, DiagAlignBitIdenticalWithAndWithoutPrep) {
  auto q = seq::generate_sequence(601, 200);
  core::PreparedQuery prep(q);
  core::Workspace ws1, ws2;
  for (uint64_t seed : {610u, 611u, 612u}) {
    auto r = seq::generate_sequence(seed, 100 + seed % 300);
    for (auto delivery : {core::ScoreDelivery::Gather, core::ScoreDelivery::Fill,
                          core::ScoreDelivery::Shuffle}) {
      core::AlignConfig cfg;
      cfg.delivery = delivery;
      core::Alignment plain = core::diag_align(q, r, cfg, ws1);
      core::Alignment cached = core::diag_align(q, r, cfg, ws2, &prep);
      EXPECT_EQ(cached.score, plain.score);
      EXPECT_EQ(cached.end_query, plain.end_query);
      EXPECT_EQ(cached.end_ref, plain.end_ref);
      EXPECT_EQ(plain.score, core::ref_align(q, r, cfg).score);
    }
    // Fixed scheme exercises the qenc (compare) feed instead of qmul.
    core::AlignConfig fixed;
    fixed.scheme = core::ScoreScheme::Fixed;
    fixed.match = 3;
    fixed.mismatch = -2;
    core::Alignment plain = core::diag_align(q, r, fixed, ws1);
    core::Alignment cached = core::diag_align(q, r, fixed, ws2, &prep);
    EXPECT_EQ(cached.score, plain.score);
    EXPECT_EQ(plain.score, core::ref_align(q, r, fixed).score);
  }
}

TEST(PreparedQuery, LengthMismatchIsIgnoredByKernel) {
  // A prep built for a different query length must be ignored, not consumed.
  auto q = seq::generate_sequence(602, 120);
  auto other = seq::generate_sequence(603, 80);
  core::PreparedQuery stale(other);
  core::Workspace ws;
  core::AlignConfig cfg;
  auto r = seq::generate_sequence(604, 150);
  core::Alignment a = core::diag_align(q, r, cfg, ws, &stale);
  EXPECT_EQ(a.score, core::ref_align(q, r, cfg).score);
}

TEST(QueryStateCache, HitsMissesAndSharedEntries) {
  QueryStateCache cache(8);
  auto q1 = seq::generate_sequence(620, 100);
  auto q2 = seq::generate_sequence(621, 100);
  core::AlignConfig cfg;
  auto p1 = cache.prepared(q1, cfg);
  auto p1b = cache.prepared(q1, cfg);
  auto p2 = cache.prepared(q2, cfg);
  EXPECT_EQ(p1.get(), p1b.get());  // same entry served twice
  EXPECT_NE(p1.get(), p2.get());
  QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.prepared_bytes, 0u);
}

TEST(QueryStateCache, ConfigChangesKeyButEquivalentConfigsShare) {
  QueryStateCache cache(8);
  auto q = seq::generate_sequence(622, 90);
  core::AlignConfig a;           // Matrix scheme
  core::AlignConfig b = a;
  b.gap_open = 13;               // different gaps -> different entry
  core::AlignConfig c = a;
  c.match = 99;                  // Fixed-only field; irrelevant under Matrix
  cache.prepared(q, a);
  cache.prepared(q, b);
  cache.prepared(q, c);
  QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u) << "config c must share config a's entry";
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(QueryStateCache, LruEvictionAtCapacity) {
  QueryStateCache cache(2);
  core::AlignConfig cfg;
  auto q1 = seq::generate_sequence(630, 50);
  auto q2 = seq::generate_sequence(631, 50);
  auto q3 = seq::generate_sequence(632, 50);
  auto p1 = cache.prepared(q1, cfg);  // held across eviction
  cache.prepared(q2, cfg);
  cache.prepared(q3, cfg);            // evicts q1 (least recent)
  QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  // The evicted entry's shared_ptr stays valid for in-flight users.
  EXPECT_EQ(p1->query_length(), 50);
  cache.prepared(q1, cfg);  // re-miss after eviction
  EXPECT_EQ(cache.stats().misses, 4u);
  cache.prepared(q3, cfg);  // q3 must still be resident
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(QueryStateCache, ClearDropsEntriesButKeepsCounters) {
  QueryStateCache cache(4);
  core::AlignConfig cfg;
  cache.prepared(seq::generate_sequence(640, 40), cfg);
  cache.clear();
  QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.misses, 1u);
}

TEST(QueryStateCache, SearchResultsBitIdenticalWithAndWithoutCache) {
  auto db = make_db(50'000);
  core::AlignConfig cfg;
  auto q = seq::generate_sequence(650, 140);
  QueryStateCache cache(8);
  for (SearchMode mode : {SearchMode::Diagonal, SearchMode::Batch}) {
    DatabaseSearch search(db, cfg, mode);
    ExecContext plain;
    ExecContext cached;
    cached.query_cache = &cache;
    SearchResult a = search.search(q, 12, plain);
    // Twice through the cache: the second run hits the LRU.
    SearchResult b = search.search(q, 12, cached);
    SearchResult c = search.search(q, 12, cached);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (size_t k = 0; k < a.hits.size(); ++k) {
      EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index) << k;
      EXPECT_EQ(a.hits[k].score, b.hits[k].score) << k;
      EXPECT_EQ(a.hits[k].end_query, b.hits[k].end_query) << k;
      EXPECT_EQ(b.hits[k].seq_index, c.hits[k].seq_index) << k;
      EXPECT_EQ(b.hits[k].score, c.hits[k].score) << k;
    }
  }
  QueryCacheStats s = cache.stats();
  EXPECT_GT(s.hits, 0u);
}

TEST(QueryStateCache, ConcurrentLookupsAreSafeAndConverge) {
  QueryStateCache cache(16);
  core::AlignConfig cfg;
  std::vector<seq::Sequence> queries;
  for (uint64_t i = 0; i < 4; ++i)
    queries.push_back(seq::generate_sequence(660 + i, 64));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto p = cache.prepared(queries[static_cast<size_t>((t + i) % 4)], cfg);
        ASSERT_EQ(p->query_length(), 64);
      }
    });
  }
  for (auto& th : threads) th.join();
  QueryCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, 200u);
  EXPECT_LE(s.entries, 4u);
  // Racing first lookups may build duplicates, but the LRU converges to one
  // entry per distinct key and never loses a request.
  EXPECT_GE(s.hits, 200u - 16u);
}

}  // namespace
}  // namespace swve::align

// ShardedSearch: the one database scan, for one query (search) and for a
// query batch (scan).
//
// The load-bearing property is identity: one shard on the caller's pool (or
// inline), or S shards on their own pinned pools, must return the scalar
// golden model's top-k for every shard count and pool size, including ragged splits, duplicate-score tie-breaks, and batches of
// queries from 64 to 2048 residues with duplicated and empty ones. scan()'s
// hits carry no end cells. Also covers the shard planner, typed errors for
// impossible shard counts, empty databases and queries, the reported NUMA
// policy, cancellation/deadline mid-shard, concurrent searches on one
// instance (the TSan lane runs this file), two shards over a mapped .swdb
// artifact (ShardOptions::mapped), and the service wiring
// (ServiceOptions.search.shards).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "align/batch_scan.hpp"
#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "core/db_format.hpp"
#include "core/mapped_db.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::align {
namespace {

using Code = core::ConfigError::Code;

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 15) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 400;
  return seq::SequenceDatabase::synthetic(cfg);
}

void expect_same_hits(const SearchResult& got, const SearchResult& want,
                      const std::string& label) {
  ASSERT_EQ(got.hits.size(), want.hits.size()) << label;
  for (size_t k = 0; k < want.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].seq_index, want.hits[k].seq_index) << label << " #" << k;
    EXPECT_EQ(got.hits[k].score, want.hits[k].score) << label << " #" << k;
    EXPECT_EQ(got.hits[k].end_query, want.hits[k].end_query) << label << " #" << k;
    EXPECT_EQ(got.hits[k].end_ref, want.hits[k].end_ref) << label << " #" << k;
  }
}

ShardOptions shards_of(int s, unsigned total_threads) {
  ShardOptions sopt;
  sopt.shards = s;
  sopt.total_threads = total_threads;
  return sopt;
}

/// The scalar model's top-k of `q` over every sequence of `db`, best score
/// first, then lowest index; end cells -1, as scan() reports them.
std::vector<Hit> golden_scores(const seq::SequenceDatabase& db,
                               seq::SeqView q, const core::AlignConfig& cfg,
                               size_t top_k) {
  std::vector<Hit> hits;
  for (size_t i = 0; i < db.size() && !q.empty(); ++i) {
    const int score = core::ref_align(q, db[i], cfg).score;
    if (score > 0) hits.push_back(Hit{static_cast<uint32_t>(i), score, -1, -1});
  }
  std::sort(hits.begin(), hits.end());
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

/// One shard of `db`, packed for cfg's lanes, scanning `queries` on `pool`
/// (inline when null).
std::vector<SearchResult> scan_one_shard(
    const seq::SequenceDatabase& db, const core::AlignConfig& cfg,
    const std::vector<seq::Sequence>& queries, size_t top_k,
    parallel::ThreadPool* pool = nullptr) {
  const core::Batch32Db packed(
      db, core::batch_lanes_for(simd::resolve_isa(cfg.isa)));
  auto sharded = ShardedSearch::create(db, packed, ShardOptions{});
  EXPECT_TRUE(sharded.ok());
  ExecContext ctx;
  ctx.pool = pool;
  const std::vector<seq::SeqView> views(queries.begin(), queries.end());
  return (*sharded)->scan(cfg, views, top_k, ctx);
}

TEST(ShardedSearch, MatchesScalarGoldenAcrossShardCounts) {
  auto db = make_db(160'000);
  auto q = seq::generate_sequence(90, 150);
  const core::AlignConfig cfg;

  // Golden top-12 from the scalar model over every sequence: best score
  // first, then lowest index, with the model's end positions.
  SearchResult want;
  for (size_t i = 0; i < db.size(); ++i) {
    const core::Alignment a = core::ref_align(q, db[i], cfg);
    if (a.score > 0)
      want.hits.push_back(
          Hit{static_cast<uint32_t>(i), a.score, a.end_query, a.end_ref});
  }
  std::sort(want.hits.begin(), want.hits.end());
  ASSERT_GE(want.hits.size(), 12u);
  want.hits.resize(12);

  parallel::ThreadPool pool(4);
  for (int s : {1, 2, 3, 7}) {
    DatabaseSearch search(db, cfg, shards_of(s, 4));
    ASSERT_GE(search.packed_db()->batch_count(), 7u)
        << "workload too small to exercise S=7";
    ASSERT_NE(search.sharded(), nullptr);
    EXPECT_EQ(search.sharded()->shard_count(), static_cast<size_t>(s));
    const std::string label = std::to_string(s) + " shards";
    // One shard runs on the caller's pool, or inline without one; more
    // shards use their own pools either way.
    expect_same_hits(search.search(q, 12, &pool), want, label + " pool");
    expect_same_hits(search.search(q, 12), want, label + " inline");
  }
}

TEST(ShardedSearch, MultiQueryScanMatchesScalarGolden) {
  // A query ladder of 64 to 2048 residues, one query twice and one empty,
  // over a database with fewer batches than the largest pool and over one
  // with many.
  const core::AlignConfig cfg;
  const int lanes = core::batch_lanes_for(simd::resolve_isa(cfg.isa));
  seq::SyntheticConfig tiny_cfg;
  tiny_cfg.seed = 41;
  tiny_cfg.target_residues = static_cast<uint64_t>(2 * lanes + 1) * 60;
  tiny_cfg.min_length = 20;
  tiny_cfg.max_length = 60;
  std::vector<seq::Sequence> tiny = seq::generate_database(tiny_cfg);
  tiny.resize(static_cast<size_t>(2 * lanes + 1));  // three batches
  const seq::SequenceDatabase few(std::move(tiny));
  const seq::SequenceDatabase many = make_db(40'000, 43);

  const std::vector<seq::Sequence> ladder =
      seq::make_query_ladder(44, 4, 64, 2048);
  std::vector<seq::SeqView> queries(ladder.begin(), ladder.end());
  queries.insert(queries.begin() + 2, ladder[1]);
  queries.push_back(seq::SeqView{});
  constexpr size_t kTop = 9;

  for (const seq::SequenceDatabase* db : {&few, &many}) {
    const core::Batch32Db packed(*db, lanes);
    ASSERT_GE(packed.batch_count(), 3u);
    std::vector<std::vector<Hit>> want;
    for (const seq::SeqView q : queries)
      want.push_back(golden_scores(*db, q, cfg, kTop));
    for (int s : {1, 2, 3}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        const std::string label = std::to_string(packed.batch_count()) +
                                  " batches s" + std::to_string(s) + " p" +
                                  std::to_string(threads);
        auto sharded =
            ShardedSearch::create(*db, packed, shards_of(s, threads));
        ASSERT_TRUE(sharded.ok()) << label;
        parallel::ThreadPool pool(threads);
        ExecContext ctx;
        ctx.pool = &pool;
        const std::vector<SearchResult> got =
            (*sharded)->scan(cfg, queries, kTop, ctx);
        ASSERT_EQ(got.size(), queries.size()) << label;
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          SearchResult golden;
          golden.hits = want[qi];
          expect_same_hits(got[qi], golden,
                           label + " query " + std::to_string(qi));
          EXPECT_FALSE(got[qi].truncated) << label;
          EXPECT_EQ(got[qi].query_length, queries[qi].length) << label;
        }
        EXPECT_EQ(got[1].batch_stats.cells8, got[2].batch_stats.cells8)
            << label;
        EXPECT_EQ(got.back().batch_stats.cells8, 0u) << label;
      }
    }
  }
}

TEST(ShardedSearch, ScanScoresAgreeWithDatabaseSearch) {
  auto db = make_db(50'000, 25);
  const AlignConfig cfg;
  auto queries = seq::make_query_ladder(30, 4, 40, 300);
  auto results = scan_one_shard(db, cfg, queries, 8);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SearchResult direct =
        engine::search_diagonal(db, cfg, queries[qi], 8, ExecContext{});
    const SearchResult& scanned = results[qi];
    ASSERT_EQ(scanned.hits.size(), direct.hits.size()) << "query " << qi;
    for (size_t k = 0; k < direct.hits.size(); ++k) {
      EXPECT_EQ(scanned.hits[k].seq_index, direct.hits[k].seq_index);
      EXPECT_EQ(scanned.hits[k].score, direct.hits[k].score);
      EXPECT_EQ(scanned.hits[k].end_query, -1);
      EXPECT_EQ(scanned.hits[k].end_ref, -1);
    }
  }
}

TEST(ShardedSearch, ScanDeterministicAcrossThreadCounts) {
  auto db = make_db(40'000, 25);
  const AlignConfig cfg;
  auto queries = seq::make_query_ladder(31, 6, 50, 400);
  auto serial = scan_one_shard(db, cfg, queries, 5);
  for (unsigned threads : {2u, 4u}) {
    parallel::ThreadPool pool(threads);
    auto par = scan_one_shard(db, cfg, queries, 5, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (size_t qi = 0; qi < serial.size(); ++qi) {
      expect_same_hits(par[qi], serial[qi], "query " + std::to_string(qi));
      EXPECT_EQ(par[qi].batch_stats.cells8, serial[qi].batch_stats.cells8);
      EXPECT_EQ(par[qi].batch_stats.rescored, serial[qi].batch_stats.rescored);
    }
  }
}

TEST(ShardedSearch, ScanTopHitReplaysWithTraceback) {
  auto q = seq::generate_sequence(32, 200);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(33 + static_cast<uint64_t>(i), 150));
  seqs.push_back(seq::mutate(q, 34, 0.15));
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  auto results = scan_one_shard(db, cfg, {q}, 3);
  ASSERT_FALSE(results[0].hits.empty());
  const Hit& top = results[0].hits[0];
  EXPECT_EQ(top.seq_index, 40u);
  AlignConfig replay_cfg = cfg;
  replay_cfg.traceback = true;
  core::Alignment a = Aligner(replay_cfg).align(q, db[top.seq_index]);
  EXPECT_EQ(a.score, top.score);
  ASSERT_FALSE(a.cigar.empty());
  EXPECT_EQ(core::replay_score(q, db[top.seq_index], replay_cfg, a), a.score);
}

TEST(ShardedSearch, PackedLanesMatchCpuCapability) {
  auto db = make_db(5'000, 25);
  const core::Batch32Db packed(
      db, core::batch_lanes_for(simd::resolve_isa(AlignConfig{}.isa)));
  EXPECT_TRUE(packed.lanes() == 32 || packed.lanes() == 64);
  EXPECT_EQ(packed.lanes(),
            core::batch_lanes_for(simd::resolve_isa(simd::Isa::Auto)));
}

TEST(ShardedSearch, ScanEmptyQueryListAndStats) {
  auto db = make_db(5'000, 25);
  const AlignConfig cfg;
  EXPECT_TRUE(scan_one_shard(db, cfg, {}, 5).empty());
  auto q = seq::generate_sequence(35, 80);
  auto results = scan_one_shard(db, cfg, {q}, 5);
  ASSERT_EQ(results.size(), 1u);
  const core::BatchSearchStats& bs = results[0].batch_stats;
  EXPECT_GT(bs.cells8, 0u);
  EXPECT_EQ(results[0].stats.cells, bs.cells8 + bs.rescored_cells);
  EXPECT_EQ(results[0].stats.vector_cells, bs.cells8);
}

TEST(ShardedSearch, PoolsThatDoNotDivideShardsStayIdentical) {
  // Per-shard pools of 3 and 5 workers over shards whose batch counts they
  // do not divide: the chunk cursor leaves workers with unequal shares, and
  // hits, scores and batch accounting must still equal one shard's on a
  // 4-thread caller pool.
  seq::SyntheticConfig cfg;
  cfg.seed = 23;
  cfg.target_residues = 300'000;
  cfg.log_mean = 3.3;  // short and mixed: many batches per shard
  cfg.min_length = 4;
  cfg.max_length = 200;
  seq::SequenceDatabase db(seq::generate_database(cfg));
  auto q = seq::generate_sequence(97, 90);

  DatabaseSearch one(db, core::AlignConfig{});
  parallel::ThreadPool pool(4);
  SearchResult want = one.search(q, 12, &pool);
  for (int s : {2, 3}) {
    for (unsigned per_shard : {3u, 5u}) {
      const std::string label = std::to_string(s) + " shards, " +
                                std::to_string(per_shard) + " workers";
      DatabaseSearch sharded(db, core::AlignConfig{},
                             shards_of(s, per_shard * static_cast<unsigned>(s)));
      const ShardedSearch* sh = sharded.sharded();
      bool uneven = false;
      for (size_t i = 0; i < sh->shard_count(); ++i) {
        const ShardStats st = sh->shard_stats(i);
        EXPECT_EQ(st.threads, per_shard) << label;
        uneven = uneven || (st.end_batch - st.first_batch) % per_shard != 0;
      }
      EXPECT_TRUE(uneven) << label;
      SearchResult got = sharded.search(q, 12);
      expect_same_hits(got, want, label);
      EXPECT_EQ(got.batch_stats.cells8, want.batch_stats.cells8) << label;
      EXPECT_EQ(got.batch_stats.useful_cells8, want.batch_stats.useful_cells8)
          << label;
      EXPECT_EQ(got.batch_stats.rescored, want.batch_stats.rescored) << label;
      EXPECT_EQ(got.batch_stats.rescored_cells,
                want.batch_stats.rescored_cells) << label;
    }
  }
}

TEST(ShardedSearch, PlanShardsIsContiguousCompleteAndNonEmpty) {
  auto db = make_db(50'000, 33);
  core::Batch32Db packed(db, 32);
  const size_t n = packed.batch_count();
  ASSERT_GE(n, 5u);

  for (size_t s : {size_t{1}, size_t{2}, size_t{3}, n - 1, n}) {
    auto ranges = detail::plan_by_cells(packed, 0, n, s);
    ASSERT_EQ(ranges.size(), s) << s;
    size_t expect_begin = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, expect_begin) << s;   // contiguous, in order
      EXPECT_GT(e, b) << s;              // every shard owns >= 1 batch
      expect_begin = e;
    }
    EXPECT_EQ(ranges.back().second, n) << s;  // ragged tail absorbs the rest
  }

  // More shards than batches clamps instead of planning empty shards.
  auto clamped = detail::plan_by_cells(packed, 0, n, n + 10);
  EXPECT_EQ(clamped.size(), n);
}

TEST(ShardedSearch, RaggedLastShardStillIdentical) {
  auto db = make_db(60'000, 7);
  DatabaseSearch one(db, core::AlignConfig{});
  const size_t n = one.packed_db()->batch_count();
  ASSERT_GE(n, 3u);
  auto q = seq::generate_sequence(91, 120);
  SearchResult want = one.search(q, 10);

  // n-1 shards forces a deliberately lopsided plan: n-2 singleton shards
  // plus whatever the planner leaves for the tail.
  DatabaseSearch sharded(db, core::AlignConfig{},
                         shards_of(static_cast<int>(n - 1), 2));
  expect_same_hits(sharded.search(q, 10), want, "ragged");
}

TEST(ShardedSearch, DuplicateScoresKeepTieBreakOrder) {
  // Clone one sequence many times: the clones tie exactly, so the top-k is
  // decided purely by the seq_index tie-break — the part of the total order
  // a wrong merge would scramble first.
  auto base = make_db(100'000, 21);
  std::vector<seq::Sequence> seqs;
  for (size_t i = 0; i < base.size(); ++i) seqs.push_back(base[i]);
  const seq::Sequence dup = seq::generate_sequence(5, 150);
  for (int i = 0; i < 40; ++i) seqs.push_back(dup);
  seq::SequenceDatabase db(std::move(seqs));

  DatabaseSearch one(db, core::AlignConfig{});
  // The query *is* the duplicated sequence, so every clone scores the same
  // self-alignment score and floods the top-k with ties.
  SearchResult want = one.search(dup, 25);
  bool saw_tie = false;
  for (size_t i = 1; i < want.hits.size(); ++i) {
    if (want.hits[i].score == want.hits[i - 1].score) {
      saw_tie = true;
      EXPECT_LT(want.hits[i - 1].seq_index, want.hits[i].seq_index);
    }
  }
  EXPECT_TRUE(saw_tie);

  for (int s : {2, 3}) {
    DatabaseSearch sharded(db, core::AlignConfig{}, shards_of(s, 3));
    expect_same_hits(sharded.search(dup, 25), want,
                     "ties s" + std::to_string(s));
  }
}

TEST(ShardedSearch, ShardsExceedingBatchesIsTypedError) {
  auto db = make_db(2'000, 3);  // tiny: a handful of batches at most
  core::Batch32Db packed(db, 32);
  ShardOptions sopt;
  sopt.shards = static_cast<int>(packed.batch_count()) + 1;
  auto r = ShardedSearch::create(db, packed, sopt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Code::Unsupported);
  EXPECT_NE(r.error().message.find("exceeds packed batch count"),
            std::string::npos);

  // Negative counts are rejected the same way…
  sopt.shards = -1;
  EXPECT_EQ(ShardedSearch::create(db, packed, sopt).error().code,
            Code::Unsupported);

  // …but auto (0) degrades gracefully, clamping to the batch count.
  EXPECT_EQ(clamp_shard_count(64, packed.batch_count()), packed.batch_count());
  sopt.shards = 0;
  auto auto_r = ShardedSearch::create(db, packed, sopt);
  ASSERT_TRUE(auto_r.ok());
  EXPECT_LE((*auto_r)->shard_count(), packed.batch_count());
  EXPECT_GE((*auto_r)->shard_count(), 1u);
}

TEST(ShardedSearch, OneShardServesEmptyDatabasesAndQueries) {
  // A packed database with no batches is a valid single shard (also auto's
  // answer for it); two shards could never both own a batch.
  seq::SequenceDatabase empty_db{std::vector<seq::Sequence>{}};
  core::Batch32Db empty_packed(empty_db, 32);
  for (int s : {0, 1}) {
    auto one = ShardedSearch::create(empty_db, empty_packed, shards_of(s, 2));
    ASSERT_TRUE(one.ok()) << one.error().message;
    EXPECT_EQ((*one)->shard_count(), 1u);
  }
  EXPECT_EQ(
      ShardedSearch::create(empty_db, empty_packed, shards_of(2, 2)).error().code,
      Code::Unsupported);

  parallel::ThreadPool pool(2);
  const DatabaseSearch empty(empty_db, core::AlignConfig{});
  auto q = seq::generate_sequence(98, 80);
  EXPECT_TRUE(empty.search(q, 10, &pool).hits.empty());
  EXPECT_TRUE(empty.search(q, 10).hits.empty());
  auto db = make_db(20'000, 5);
  const SearchResult r = DatabaseSearch(db, core::AlignConfig{})
                             .search(seq::SeqView{}, 10, &pool);
  EXPECT_TRUE(r.hits.empty());
  EXPECT_FALSE(r.truncated);
}

TEST(ShardedSearch, AutoShardCountClampsToExportedLimit) {
  // The exporters report at most kMaxShards shards; auto must never ask
  // for more, even when the node count and the batch count both allow it.
  auto db = make_db(200'000, 29);
  core::Batch32Db packed(db, 32);
  const size_t limit = perf::MetricsSnapshot::kMaxShards;
  ASSERT_GT(packed.batch_count(), limit);
  const size_t count = clamp_shard_count(64, packed.batch_count());
  EXPECT_EQ(count, limit);
  EXPECT_EQ(clamp_shard_count(2, packed.batch_count()), 2u);
  ShardOptions sopt;
  sopt.shards = static_cast<int>(count);
  sopt.total_threads = 1;
  auto r = ShardedSearch::create(db, packed, sopt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->shard_count(), limit);
}

TEST(ShardedSearch, ServiceRejectsShardsBeyondExportedLimit) {
  // A service with more shards than MetricsSnapshot can hold would drop
  // the extra shards from every exporter; reject it up front instead.
  service::ServiceOptions opt;
  opt.search.shards = perf::MetricsSnapshot::kMaxShards;
  EXPECT_TRUE(opt.try_validate().ok());
  opt.search.shards = perf::MetricsSnapshot::kMaxShards + 1;
  auto st = opt.try_validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, Code::Unsupported);
  EXPECT_NE(st.error().message.find("search.shards"), std::string::npos);
}

TEST(ShardedSearch, RequestedNumaPolicyIsReported) {
  auto db = make_db(20'000, 9);
  core::Batch32Db packed(db, 32);
  ShardOptions sopt;
  sopt.shards = 2;
  sopt.numa = parallel::NumaPolicy::Bind;
  sopt.total_threads = 2;

  // The requested policy survives (placement may still be a no-op on a
  // single-node host, but the policy is honored).
  auto on = ShardedSearch::create(db, packed, sopt);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ((*on)->numa_policy(), parallel::NumaPolicy::Bind);
}

TEST(ShardedSearch, CancellationAndDeadlineTruncateCleanly) {
  auto db = make_db(60'000, 11);
  auto q = seq::generate_sequence(92, 200);
  parallel::ThreadPool pool(3);
  for (int s : {1, 3}) {
    SCOPED_TRACE(::testing::Message() << "s" << s);
    DatabaseSearch sharded(db, core::AlignConfig{}, shards_of(s, 3));
    std::atomic<bool> cancel{true};  // cancelled before the first batch
    ExecContext cancelled;
    cancelled.pool = &pool;
    cancelled.cancel = &cancel;
    ExecContext expired;
    expired.pool = &pool;
    expired.deadline = ExecContext::Clock::now() - std::chrono::milliseconds(1);
    for (const ExecContext* ctx : {&cancelled, &expired}) {
      SearchResult r = sharded.search(q, 10, *ctx);
      EXPECT_TRUE(r.truncated);
      EXPECT_TRUE(r.hits.empty());  // partial answers are withheld, not mixed
    }
    // The instance stays healthy after a truncated pass.
    SearchResult ok = sharded.search(q, 10, &pool);
    EXPECT_FALSE(ok.truncated);
    EXPECT_FALSE(ok.hits.empty());
  }
}

TEST(ShardedSearch, ConcurrentSearchesOnOneInstance) {
  auto db = make_db(40'000, 13);
  auto q = seq::generate_sequence(94, 130);
  // One shard fans every search out on one shared caller pool; three
  // shards on their own pools.
  parallel::ThreadPool pool(3);
  for (int s : {1, 3}) {
    DatabaseSearch sharded(db, core::AlignConfig{}, shards_of(s, 3));
    SearchResult want = sharded.search(q, 10, &pool);

    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (int i = 0; i < 5; ++i) {
          SearchResult got = sharded.search(q, 10, &pool);
          if (got.hits.size() != want.hits.size()) {
            ++mismatches;
            continue;
          }
          for (size_t k = 0; k < want.hits.size(); ++k)
            if (got.hits[k].seq_index != want.hits[k].seq_index ||
                got.hits[k].score != want.hits[k].score)
              ++mismatches;
        }
      });
    for (auto& th : threads) th.join();
    EXPECT_EQ(mismatches.load(), 0) << "s" << s;
  }
}

TEST(ShardedSearch, TwoShardCountsSearchedAtOnceAgree) {
  // Shard count is a per-instance value: a one-shard and a three-shard
  // search over one database, each driven from its own thread at the same
  // time, return identical hits.
  auto db = make_db(40'000, 17);
  const core::Batch32Db packed(db, 32);
  const auto queries = seq::make_query_ladder(95, 6, 60, 300);
  const DatabaseSearch one(db, packed, core::AlignConfig{}, shards_of(1, 2));
  const DatabaseSearch three(db, packed, core::AlignConfig{}, shards_of(3, 3));
  parallel::ThreadPool pool(2);

  std::vector<SearchResult> got_one(queries.size()), got_three(queries.size());
  std::thread t1([&] {
    for (size_t i = 0; i < queries.size(); ++i)
      got_one[i] = one.search(queries[i], 10, &pool);
  });
  std::thread t3([&] {
    for (size_t i = 0; i < queries.size(); ++i)
      got_three[i] = three.search(queries[i], 10);
  });
  t1.join();
  t3.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(got_one[i].hits.empty()) << "query " << i;
    expect_same_hits(got_three[i], got_one[i], "query " + std::to_string(i));
  }
}

TEST(ShardedSearch, MappedTwoShardsMatchOwnedOneShard) {
  // Two shards over a mapped artifact, each advising its own column range
  // at construction, return the owned one-shard hits: Batch search and a
  // multi-query scan.
  const core::AlignConfig cfg;
  auto db = make_db(60'000, 23);
  const core::Batch32Db owned(
      db, core::batch_lanes_for(simd::resolve_isa(cfg.isa)));
  const std::string path = "/tmp/swve_sharded_test_" +
                           std::to_string(::getpid()) + ".swdb";
  auto written = core::write_swdb(db, owned, path);
  ASSERT_TRUE(written.ok()) << written.error().message;
  auto mapped = core::MappedDb::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;
  const core::MappedDb& m = **mapped;

  auto one = ShardedSearch::create(db, owned, shards_of(1, 2));
  ShardOptions sopt = shards_of(2, 2);
  sopt.mapped = &m;
  auto two = ShardedSearch::create(m.db(), m.batch_db(), sopt);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(two.ok());
  ASSERT_EQ((*two)->shard_count(), 2u);

  parallel::ThreadPool pool(2);
  ExecContext ctx;
  ctx.pool = &pool;
  const auto ladder = seq::make_query_ladder(97, 4, 64, 512);
  for (size_t i = 0; i < ladder.size(); ++i) {
    const SearchResult want = (*one)->search(cfg, ladder[i], 10, ctx);
    EXPECT_FALSE(want.hits.empty()) << "query " << i;
    expect_same_hits((*two)->search(cfg, ladder[i], 10, ctx), want,
                     "search " + std::to_string(i));
  }
  const std::vector<seq::SeqView> views(ladder.begin(), ladder.end());
  const auto want = (*one)->scan(cfg, views, 10, ctx);
  const auto got = (*two)->scan(cfg, views, 10, ctx);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i)
    expect_same_hits(got[i], want[i], "scan " + std::to_string(i));
  std::remove(path.c_str());
}

TEST(ShardedSearch, StatsAttributeWorkToEveryShard) {
  auto db = make_db(50'000, 17);
  DatabaseSearch sharded(db, core::AlignConfig{}, shards_of(3, 3));
  auto q = seq::generate_sequence(95, 140);
  sharded.search(q, 10);

  const ShardedSearch* sh = sharded.sharded();
  ASSERT_NE(sh, nullptr);
  uint64_t total_batches = 0, total_seqs = 0;
  for (size_t i = 0; i < sh->shard_count(); ++i) {
    const ShardStats st = sh->shard_stats(i);
    EXPECT_EQ(st.searches, 1u) << i;
    EXPECT_GT(st.cells, 0u) << i;
    EXPECT_GT(st.busy_seconds, 0.0) << i;
    EXPECT_EQ(st.end_batch - st.first_batch, st.batches) << i;
    total_batches += st.batches;
    total_seqs += st.sequences;
  }
  EXPECT_EQ(total_batches, sharded.packed_db()->batch_count());
  EXPECT_EQ(total_seqs, db.size());
}

TEST(ShardedSearch, ScanWithoutPmuSessionCountsWallTimeOnly) {
  // No PMU session on the context (attribution off): the workers read no
  // counters, whatever the host offers, and still account their time.
  auto db = make_db(50'000, 17);
  for (int shards : {1, 3}) {
    DatabaseSearch search(db, core::AlignConfig{}, shards_of(shards, 3));
    parallel::ThreadPool pool(2);
    ExecContext ctx;
    ctx.pool = &pool;
    ASSERT_EQ(ctx.trace.pmu, nullptr);
    search.search(seq::generate_sequence(97, 140), 10, ctx);
    const ShardedSearch* sh = search.sharded();
    ASSERT_NE(sh, nullptr);
    for (size_t i = 0; i < sh->shard_count(); ++i) {
      const ShardStats st = sh->shard_stats(i);
      EXPECT_EQ(st.cycles, 0u) << shards << " shards, shard " << i;
      EXPECT_EQ(st.llc_misses, 0u) << shards << " shards, shard " << i;
      EXPECT_GT(st.busy_seconds, 0.0) << shards << " shards, shard " << i;
    }
  }
}

TEST(ShardedSearch, ServiceLevelShardingMatchesUnsharded) {
  auto db = make_db(60'000, 19);
  auto q = seq::generate_sequence(96, 150);

  // The default search.shards = 1: one shard on the service's pool,
  // reported like any other shard.
  service::ServiceOptions plain;
  plain.pool_threads = 2;
  service::AlignService one_svc(db, plain);
  service::SearchRequest rq;
  rq.query = q;
  rq.options.top_k = 10;
  service::SearchResponse want = service::submit_future(one_svc, std::move(rq)).get().value();
  const perf::MetricsSnapshot one_m = one_svc.metrics();
  ASSERT_EQ(one_m.shard_count, 1u);
  EXPECT_EQ(one_m.shards[0].searches, 1u);
  EXPECT_GT(one_m.shards[0].cells, 0u);
  EXPECT_EQ(one_m.shards[0].sequences, db.size());
  EXPECT_EQ(one_m.shards[0].threads, 2u);  // the service's pool
  EXPECT_EQ(one_m.shards[0].node, -1);
  EXPECT_EQ(one_m.shards[0].bound, 0u);
  EXPECT_GT(one_m.pool_busy_seconds, 0.0);

  service::ServiceOptions opt;
  opt.pool_threads = 2;
  opt.search.shards = 2;
  ASSERT_TRUE(opt.try_validate().ok());
  service::AlignService svc(db, opt);
  ASSERT_NE(svc.sharded(), nullptr);
  EXPECT_EQ(svc.sharded()->shard_count(), 2u);

  service::SearchRequest srq;
  srq.query = q;
  srq.options.top_k = 10;
  service::SearchResponse got = service::submit_future(svc, std::move(srq)).get().value();
  expect_same_hits(got.result, want.result, "service");

  const perf::MetricsSnapshot m = svc.metrics();
  ASSERT_EQ(m.shard_count, 2u);
  EXPECT_GT(m.shards[0].cells + m.shards[1].cells, 0u);

  // Impossible shard counts surface as a typed validation error, not a
  // half-constructed service.
  service::ServiceOptions bad;
  bad.search.shards = -2;
  EXPECT_EQ(bad.try_validate().error().code, Code::Unsupported);
}

}  // namespace
}  // namespace swve::align

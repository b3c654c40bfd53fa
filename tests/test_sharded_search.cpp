// ShardedSearch: the sharded scenario-1 batch path (ISSUE 10 tentpole).
//
// The load-bearing property is bit-identity: splitting the packed database
// into S shards, scanning them on independent pinned pools, and merging the
// bounded per-shard heaps must return exactly the flat engine's answer —
// for every packing policy and shard count, including
// ragged splits and duplicate-score tie-breaks. Also covers the shard
// planner's invariants, the typed config error for impossible shard
// counts, the SWVE_NUMA=off escape hatch, cancellation/deadline mid-shard,
// concurrent searches on one instance (the TSan lane runs this file), and
// the service-level wiring (ServiceOptions.search.shards).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
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

TEST(ShardedSearch, BitIdenticalAcrossPoliciesDepthsAndShardCounts) {
  auto db = make_db(160'000);
  auto q = seq::generate_sequence(90, 150);

  for (core::PackingPolicy policy :
       {core::PackingPolicy::DbOrder, core::PackingPolicy::LengthSorted,
        core::PackingPolicy::LengthBinned}) {
    DatabaseSearch flat(db, core::AlignConfig{}, SearchMode::Batch, policy);
    SearchResult want = flat.search(q, 12);
    const size_t batches = flat.packed_db()->batch_count();
    ASSERT_GE(batches, 7u) << "workload too small to exercise S=7";

    for (int s : {1, 2, 3, 7}) {
      DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch,
                             policy);
      ShardOptions sopt;
      sopt.shards = s;
      sopt.total_threads = 4;
      auto ok = sharded.enable_sharding(sopt);
      ASSERT_TRUE(ok.ok()) << ok.error().message;
      ASSERT_NE(sharded.sharded(), nullptr);
      EXPECT_EQ(sharded.sharded()->shard_count(), static_cast<size_t>(s));
      SearchResult got = sharded.search(q, 12);
      expect_same_hits(got, want,
                       std::string(core::packing_policy_name(policy)) + " s" +
                           std::to_string(s));
    }
  }
}

TEST(ShardedSearch, PoolsThatDoNotDivideShardsStayIdentical) {
  // Per-shard pools of 3 and 5 workers over shards whose batch counts they
  // do not divide: the chunk cursor leaves workers with unequal shares, and
  // hits, scores and batch accounting must still equal the flat path's.
  seq::SyntheticConfig cfg;
  cfg.seed = 23;
  cfg.target_residues = 300'000;
  cfg.log_mean = 3.3;  // short and mixed: many batches per shard
  cfg.min_length = 4;
  cfg.max_length = 200;
  seq::SequenceDatabase db(seq::generate_database(cfg));
  auto q = seq::generate_sequence(97, 90);

  for (core::PackingPolicy policy :
       {core::PackingPolicy::DbOrder, core::PackingPolicy::LengthSorted}) {
    DatabaseSearch flat(db, core::AlignConfig{}, SearchMode::Batch, policy);
    parallel::ThreadPool pool(4);
    SearchResult want = flat.search(q, 12, &pool);
    for (int s : {2, 3}) {
      for (unsigned per_shard : {3u, 5u}) {
        const std::string label = std::string(core::packing_policy_name(policy)) +
                                  " s" + std::to_string(s) + " w" +
                                  std::to_string(per_shard);
        DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch,
                               policy);
        ShardOptions sopt;
        sopt.shards = s;
        sopt.total_threads = per_shard * static_cast<unsigned>(s);
        ASSERT_TRUE(sharded.enable_sharding(sopt).ok()) << label;
        const ShardedSearch* sh = sharded.sharded();
        bool uneven = false;
        for (size_t i = 0; i < sh->shard_count(); ++i) {
          const auto [b, e] = sh->shard_range(i);
          EXPECT_EQ(sh->shard_stats(i).threads, per_shard) << label;
          uneven = uneven || (e - b) % per_shard != 0;
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
}

TEST(ShardedSearch, PlanShardsIsContiguousCompleteAndNonEmpty) {
  auto db = make_db(50'000, 33);
  core::Batch32Db packed(db, 32);
  const size_t n = packed.batch_count();
  ASSERT_GE(n, 5u);

  for (size_t s : {size_t{1}, size_t{2}, size_t{3}, n - 1, n}) {
    auto ranges = ShardedSearch::plan_shards(packed, s);
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
  auto clamped = ShardedSearch::plan_shards(packed, n + 10);
  EXPECT_EQ(clamped.size(), n);
}

TEST(ShardedSearch, RaggedLastShardStillIdentical) {
  auto db = make_db(60'000, 7);
  DatabaseSearch flat(db, core::AlignConfig{}, SearchMode::Batch);
  const size_t n = flat.packed_db()->batch_count();
  ASSERT_GE(n, 3u);
  auto q = seq::generate_sequence(91, 120);
  SearchResult want = flat.search(q, 10);

  // n-1 shards forces a deliberately lopsided plan: n-2 singleton shards
  // plus whatever the planner leaves for the tail.
  DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch);
  ShardOptions sopt;
  sopt.shards = static_cast<int>(n - 1);
  sopt.total_threads = 2;
  ASSERT_TRUE(sharded.enable_sharding(sopt).ok());
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

  DatabaseSearch flat(db, core::AlignConfig{}, SearchMode::Batch);
  // The query *is* the duplicated sequence, so every clone scores the same
  // self-alignment score and floods the top-k with ties.
  SearchResult want = flat.search(dup, 25);
  bool saw_tie = false;
  for (size_t i = 1; i < want.hits.size(); ++i) {
    if (want.hits[i].score == want.hits[i - 1].score) {
      saw_tie = true;
      EXPECT_LT(want.hits[i - 1].seq_index, want.hits[i].seq_index);
    }
  }
  EXPECT_TRUE(saw_tie);

  for (int s : {2, 3}) {
    DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch);
    ShardOptions sopt;
    sopt.shards = s;
    sopt.total_threads = 3;
    ASSERT_TRUE(sharded.enable_sharding(sopt).ok());
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
  set_shard_count_hint(64);
  sopt.shards = 0;
  auto auto_r = ShardedSearch::create(db, packed, sopt);
  set_shard_count_hint(0);
  ASSERT_TRUE(auto_r.ok());
  EXPECT_LE((*auto_r)->shard_count(), packed.batch_count());
  EXPECT_GE((*auto_r)->shard_count(), 1u);
}

TEST(ShardedSearch, AutoShardCountClampsToExportedLimit) {
  // The exporters report at most kMaxShards shards; auto must never build
  // more, even when the hint and the batch count both allow it.
  auto db = make_db(200'000, 29);
  core::Batch32Db packed(db, 32);
  const size_t limit = perf::MetricsSnapshot::kMaxShards;
  ASSERT_GT(packed.batch_count(), limit);
  set_shard_count_hint(64);
  ShardOptions sopt;
  sopt.shards = 0;
  sopt.total_threads = 1;
  auto r = ShardedSearch::create(db, packed, sopt);
  set_shard_count_hint(0);
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

TEST(ShardedSearch, NumaEnvKnobForcesPolicyOff) {
  auto db = make_db(20'000, 9);
  core::Batch32Db packed(db, 32);
  ShardOptions sopt;
  sopt.shards = 2;
  sopt.numa = parallel::NumaPolicy::Bind;
  sopt.total_threads = 2;

  ::setenv("SWVE_NUMA", "off", 1);
  auto off = ShardedSearch::create(db, packed, sopt);
  ::unsetenv("SWVE_NUMA");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ((*off)->numa_policy(), parallel::NumaPolicy::Off);

  // Without the knob the requested policy survives (placement may still be
  // a no-op on a single-node host, but the policy is honored).
  auto on = ShardedSearch::create(db, packed, sopt);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ((*on)->numa_policy(), parallel::NumaPolicy::Bind);
}

TEST(ShardedSearch, CancellationAndDeadlineTruncateCleanly) {
  auto db = make_db(60'000, 11);
  DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch);
  ShardOptions sopt;
  sopt.shards = 3;
  sopt.total_threads = 3;
  ASSERT_TRUE(sharded.enable_sharding(sopt).ok());
  auto q = seq::generate_sequence(92, 200);

  {
    std::atomic<bool> cancel{true};  // cancelled before the first group
    ExecContext ctx;
    ctx.cancel = &cancel;
    SearchResult r = sharded.search(q, 10, ctx);
    EXPECT_TRUE(r.truncated);
    EXPECT_TRUE(r.hits.empty());  // partial answers are withheld, not mixed
  }
  {
    ExecContext ctx;
    ctx.deadline = ExecContext::Clock::now() - std::chrono::milliseconds(1);
    SearchResult r = sharded.search(q, 10, ctx);
    EXPECT_TRUE(r.truncated);
    EXPECT_TRUE(r.hits.empty());
  }
  // The instance stays healthy after a truncated pass.
  SearchResult ok = sharded.search(q, 10);
  EXPECT_FALSE(ok.truncated);
  EXPECT_FALSE(ok.hits.empty());
}

TEST(ShardedSearch, ConcurrentSearchesOnOneInstance) {
  auto db = make_db(40'000, 13);
  DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch);
  ShardOptions sopt;
  sopt.shards = 3;
  sopt.total_threads = 3;
  ASSERT_TRUE(sharded.enable_sharding(sopt).ok());

  auto q = seq::generate_sequence(94, 130);
  SearchResult want = sharded.search(q, 10);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        SearchResult got = sharded.search(q, 10);
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
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardedSearch, StatsAttributeWorkToEveryShard) {
  auto db = make_db(50'000, 17);
  DatabaseSearch sharded(db, core::AlignConfig{}, SearchMode::Batch);
  ShardOptions sopt;
  sopt.shards = 3;
  sopt.total_threads = 3;
  ASSERT_TRUE(sharded.enable_sharding(sopt).ok());
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

TEST(ShardedSearch, ServiceLevelShardingMatchesUnsharded) {
  auto db = make_db(60'000, 19);
  auto q = seq::generate_sequence(96, 150);

  service::ServiceOptions plain;
  plain.pool_threads = 2;
  service::AlignService flat_svc(db, plain);
  service::SearchRequest rq;
  rq.query = q;
  rq.mode = SearchMode::Batch;
  rq.options.top_k = 10;
  service::SearchResponse want = flat_svc.submit_search(std::move(rq)).get();

  service::ServiceOptions opt;
  opt.pool_threads = 2;
  opt.search.shards = 2;
  ASSERT_TRUE(opt.try_validate().ok());
  service::AlignService svc(db, opt);
  ASSERT_NE(svc.sharded(), nullptr);
  EXPECT_EQ(svc.sharded()->shard_count(), 2u);

  service::SearchRequest srq;
  srq.query = q;
  srq.mode = SearchMode::Batch;
  srq.options.top_k = 10;
  service::SearchResponse got = svc.submit_search(std::move(srq)).get();
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

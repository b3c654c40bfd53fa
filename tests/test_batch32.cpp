#include <gtest/gtest.h>

#include <random>

#include "core/batch32.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

seq::SequenceDatabase small_db(uint64_t seed, uint64_t residues, uint32_t min_len = 5,
                               uint32_t max_len = 300) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = min_len;
  cfg.max_length = max_len;
  return seq::SequenceDatabase::synthetic(cfg);
}

TEST(Batch32Db, RejectsBadLaneCounts) {
  auto db = small_db(1, 1000);
  EXPECT_THROW(Batch32Db(db, 16), std::invalid_argument);
  EXPECT_THROW(Batch32Db(db, 48), std::invalid_argument);
}

TEST(Batch32Db, PacksEverySequenceExactlyOnce) {
  auto db = small_db(2, 30'000);
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    std::vector<int> seen(db.size(), 0);
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      EXPECT_LE(batch.count, static_cast<uint32_t>(lanes));
      for (uint32_t k = 0; k < batch.count; ++k) ++seen[batch.seq_index[k]];
    }
    for (size_t s = 0; s < db.size(); ++s) EXPECT_EQ(seen[s], 1) << s;
  }
}

TEST(Batch32Db, TransposedColumnsHoldTheRightResidues) {
  auto db = small_db(3, 8'000);
  Batch32Db bdb(db, 32);
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    auto batch = bdb.batch(b);
    for (uint32_t k = 0; k < batch.count; ++k) {
      const seq::Sequence& s = db[batch.seq_index[k]];
      EXPECT_EQ(batch.seq_len[k], s.length());
      for (uint32_t j = 0; j < batch.max_len; ++j) {
        uint8_t got = batch.columns[static_cast<size_t>(j) * 32 + k];
        if (j < s.length())
          EXPECT_EQ(got, s.codes()[j]);
        else
          EXPECT_EQ(got, kBatchPadCode);
      }
      // Padding lanes beyond count:
      for (uint32_t k2 = batch.count; k2 < 32; ++k2)
        EXPECT_EQ(batch.columns[k2], kBatchPadCode);
    }
  }
}

TEST(Batch32Db, LengthSortedBatchesBoundPadding) {
  auto db = small_db(4, 60'000, 10, 500);
  Batch32Db bdb(db, 32);
  // Sorting by length keeps padding modest even with a wide distribution.
  EXPECT_LT(bdb.padding_overhead(), 1.0);
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    auto batch = bdb.batch(b);
    uint32_t mx = 0;
    for (uint32_t k = 0; k < batch.count; ++k) mx = std::max(mx, batch.seq_len[k]);
    EXPECT_EQ(batch.max_len, mx);
  }
}

class BatchScoreTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchScoreTest, ScoresMatchGoldenForWholeDatabase) {
  const int lanes = GetParam();
  auto db = small_db(5, 25'000);
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  auto q = seq::generate_sequence(50, 100);
  auto scores = batch_scores(q, bdb, db, cfg, ws);
  ASSERT_EQ(scores.size(), db.size());
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

TEST_P(BatchScoreTest, SaturatedLanesAreRescoredExactly) {
  const int lanes = GetParam();
  // Build a db containing a near-copy of the query: its 8-bit lane must
  // saturate and the rescoring ladder must recover the exact score.
  auto q = seq::generate_sequence(60, 500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(61 + static_cast<uint64_t>(i), 80));
  seqs.push_back(seq::mutate(q, 62, 0.03));
  seq::SequenceDatabase db(std::move(seqs));
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  BatchSearchStats stats;
  auto scores = batch_scores(q, bdb, db, cfg, ws, &stats);
  EXPECT_GE(stats.rescored, 1u);
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

TEST_P(BatchScoreTest, FixedSchemeAndLinearGaps) {
  const int lanes = GetParam();
  auto db = small_db(7, 12'000);
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 3;
  cfg.mismatch = -2;
  cfg.gap_model = GapModel::Linear;
  cfg.gap_extend = 2;
  auto q = seq::generate_sequence(70, 60);
  auto scores = batch_scores(q, bdb, db, cfg, ws);
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
}

INSTANTIATE_TEST_SUITE_P(Lanes, BatchScoreTest, ::testing::Values(32, 64),
                         [](const auto& info) {
                           return "lanes" + std::to_string(info.param);
                         });

// A length-skewed database: mostly short sequences with a few huge outliers
// scattered through it, the worst case for db-order packing.
seq::SequenceDatabase skewed_db(uint64_t seed, int n_short, int n_long,
                                uint32_t long_len) {
  std::mt19937_64 rng(seed);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < n_short; ++i)
    seqs.push_back(seq::generate_sequence(rng(), 30 + static_cast<uint32_t>(rng() % 70)));
  for (int i = 0; i < n_long; ++i) {
    auto pos = seqs.begin() + static_cast<std::ptrdiff_t>(rng() % (seqs.size() + 1));
    seqs.insert(pos, seq::generate_sequence(rng(), long_len));
  }
  return seq::SequenceDatabase(std::move(seqs));
}

TEST(Batch32Db, EveryPolicyPacksEverySequenceExactlyOnce) {
  auto db = skewed_db(11, 150, 2, 2000);
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted,
                               PackingPolicy::LengthBinned}) {
    Batch32Db bdb(db, 32, policy);
    EXPECT_EQ(bdb.policy(), policy);
    std::vector<int> seen(db.size(), 0);
    uint64_t real = 0, padded = 0;
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      uint64_t batch_real = 0;
      for (uint32_t k = 0; k < batch.count; ++k) {
        ++seen[batch.seq_index[k]];
        batch_real += batch.seq_len[k];
      }
      EXPECT_EQ(batch.real_residues, batch_real);
      real += batch.real_residues;
      padded += static_cast<uint64_t>(batch.max_len) * 32;
    }
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(seen[s], 1) << packing_policy_name(policy) << " seq " << s;
    EXPECT_EQ(bdb.real_residues(), db.total_residues());
    EXPECT_EQ(real, db.total_residues());
    EXPECT_EQ(bdb.padded_residues(), padded);
  }
}

TEST(Batch32Db, LengthAwarePoliciesBeatDbOrderOnSkewedDb) {
  auto db = skewed_db(12, 300, 3, 3000);
  Batch32Db naive(db, 32, PackingPolicy::DbOrder);
  Batch32Db sorted(db, 32, PackingPolicy::LengthSorted);
  Batch32Db binned(db, 32, PackingPolicy::LengthBinned);
  // Length-sorted packing is padding-optimal; binning approximates it while
  // keeping db order inside each bin. Both must clearly beat naive order,
  // where every batch holding an outlier pads 31 lanes to its length.
  // (Even optimal packing pays for the outliers' own batch — a batch of 3
  // long lanes still pads the other 29 — so assert the relative ordering
  // and a clear margin over naive, not an absolute figure.)
  EXPECT_GT(sorted.packing_efficiency(), 2 * naive.packing_efficiency());
  EXPECT_GT(binned.packing_efficiency(), 2 * naive.packing_efficiency());
  EXPECT_GE(sorted.packing_efficiency(), binned.packing_efficiency());
  EXPECT_LT(naive.packing_efficiency(), 0.5);
}

TEST_P(BatchScoreTest, ScoresIdenticalAcrossPackingPolicies) {
  const int lanes = GetParam();
  auto db = skewed_db(13, 120, 2, 1500);
  Workspace ws;
  AlignConfig cfg;
  auto q = seq::generate_sequence(80, 120);
  std::vector<int> ref_scores;
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted,
                               PackingPolicy::LengthBinned}) {
    Batch32Db bdb(db, lanes, policy);
    auto scores = batch_scores(q, bdb, db, cfg, ws);
    ASSERT_EQ(scores.size(), db.size());
    if (ref_scores.empty()) {
      ref_scores = scores;
      for (size_t s = 0; s < db.size(); ++s)
        ASSERT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
    } else {
      EXPECT_EQ(scores, ref_scores) << packing_policy_name(policy);
    }
  }
}

TEST(BatchScores, RescoreLadderClimbsTo16AndThen32Bits) {
  // Fixed match=30 makes saturation cheap to provoke: an identical pair of
  // length L scores 30*L, so L=400 (12000) needs the 16-bit rung and
  // L=1200 (36000) exceeds int16 and needs the 32-bit rung. Both must come
  // back exact, alongside short sequences that never left the 8-bit kernel.
  auto q = seq::generate_sequence(90, 1200);
  std::vector<uint8_t> prefix(q.codes().begin(), q.codes().begin() + 400);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(91 + static_cast<uint64_t>(i), 60));
  seqs.emplace_back("w16", prefix, seq::Alphabet::protein());    // index 40
  seqs.push_back(seq::mutate(q, 92, 0.0));                       // index 41
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  cfg.scheme = ScoreScheme::Fixed;
  cfg.match = 30;
  cfg.mismatch = -3;
  Workspace ws;
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    BatchSearchStats stats;
    auto scores = batch_scores(q, bdb, db, cfg, ws, &stats);
    EXPECT_GE(stats.rescored, 2u) << lanes;      // both planted sequences
    EXPECT_GT(stats.rescored_cells, 0u);
    EXPECT_EQ(scores[40], 30 * 400) << lanes;    // exact prefix match
    EXPECT_EQ(scores[41], 30 * 1200) << lanes;   // exact full-length match
    EXPECT_GT(scores[41], 32767) << "must have used the 32-bit rung";
    for (size_t s = 0; s < db.size(); ++s)
      EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << lanes << "/" << s;
  }
}

TEST(BatchScores, StatsAccountUsefulVersusPaddedCells) {
  auto db = skewed_db(14, 100, 2, 1000);
  Workspace ws;
  AlignConfig cfg;
  auto q = seq::generate_sequence(81, 100);
  for (PackingPolicy policy : {PackingPolicy::DbOrder, PackingPolicy::LengthSorted}) {
    Batch32Db bdb(db, 32, policy);
    BatchSearchStats stats;
    batch_scores(q, bdb, db, cfg, ws, &stats);
    EXPECT_EQ(stats.useful_cells8, db.total_residues() * q.length());
    EXPECT_EQ(stats.cells8, bdb.padded_residues() * q.length());
    EXPECT_NEAR(stats.packing_efficiency(), bdb.packing_efficiency(), 1e-12);
  }
}

TEST(BatchScores, EmptyQueryScoresAllZero) {
  auto db = small_db(8, 5'000);
  Batch32Db bdb(db, 32);
  Workspace ws;
  AlignConfig cfg;
  seq::Sequence e("e", "", seq::Alphabet::protein());
  auto scores = batch_scores(e, bdb, db, cfg, ws);
  for (int s : scores) EXPECT_EQ(s, 0);
}

TEST(BatchScores, TracebackRequestRejected) {
  auto db = small_db(9, 5'000);
  Batch32Db bdb(db, 32);
  Workspace ws;
  AlignConfig cfg;
  cfg.traceback = true;
  auto q = seq::generate_sequence(71, 50);
  EXPECT_THROW(batch_scores(q, bdb, db, cfg, ws), std::invalid_argument);
}

TEST(BatchKernel, ScalarEngineMatchesSimdEngines) {
  auto db = small_db(10, 10'000);
  AlignConfig cfg;
  auto q = seq::generate_sequence(72, 90);
  Workspace ws;
  for (int lanes : {32, 64}) {
    Batch32Db bdb(db, lanes);
    for (size_t b = 0; b < bdb.batch_count(); ++b) {
      auto batch = bdb.batch(b);
      Batch8Result ref =
          batch32_u8_scalar(q, batch.columns, batch.max_len, lanes, cfg, ws);
      Batch8Result got =
          batch32_align_u8(q, batch, lanes, cfg, ws, simd::resolve_isa(simd::Isa::Auto));
      for (int k = 0; k < lanes; ++k)
        EXPECT_EQ(got.max_score[k], ref.max_score[k]) << "batch " << b << " lane " << k;
      EXPECT_EQ(got.saturated_mask, ref.saturated_mask);
    }
  }
}

TEST(BatchKernel, GroupCallMatchesPerBatchCalls) {
  // batch32_align_u8_group is the benchmark-facing multi-batch entry point;
  // for every count, ragged or not, it must equal one batch32_align_u8 call
  // per batch.
  auto db = small_db(22, 50'000, 20, 200);
  auto q = seq::generate_sequence(102, 70);
  Workspace ws;
  AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  Batch32Db bdb(db, 32);
  std::vector<BatchCols> cols(bdb.batch_count());
  for (size_t b = 0; b < bdb.batch_count(); ++b)
    cols[b] = BatchCols{bdb.batch(b).columns, bdb.batch(b).max_len};
  ASSERT_GE(cols.size(), 7u);
  for (int count : {1, 2, 3, 5, 7}) {
    std::vector<Batch8Result> got(static_cast<size_t>(count));
    batch32_align_u8_group(q, cols.data(), count, 32, cfg, ws, isa,
                           /*k_interleave=*/1, got.data());
    for (int b = 0; b < count; ++b) {
      const Batch8Result ref = batch32_align_u8(
          q, bdb.batch(static_cast<size_t>(b)), 32, cfg, ws, isa);
      const Batch8Result& g = got[static_cast<size_t>(b)];
      for (int k = 0; k < 32; ++k)
        EXPECT_EQ(g.max_score[k], ref.max_score[k])
            << "count " << count << " batch " << b << " lane " << k;
      EXPECT_EQ(g.saturated_mask, ref.saturated_mask)
          << "count " << count << " batch " << b;
    }
  }
}

}  // namespace
}  // namespace swve::core

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "core/batch32.hpp"
#include "core/batch32_kernel.hpp"
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

// batch_scores refuses lanes the host's Auto ISA cannot drive: 64 need
// AVX-512 VBMI. (BatchKernel.MatchesIndependentSaturatingModelOnEveryEngine
// covers the emulated 64-lane kernel on every host.)
bool host_drives(int lanes) {
  return batch_lanes_fit(lanes, simd::resolve_isa(simd::Isa::Auto));
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
  if (!host_drives(lanes)) GTEST_SKIP() << lanes << " lanes need AVX-512 VBMI";
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
  if (!host_drives(lanes)) GTEST_SKIP() << lanes << " lanes need AVX-512 VBMI";
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
  if (!host_drives(lanes)) GTEST_SKIP() << lanes << " lanes need AVX-512 VBMI";
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
// scattered through it, the worst case for batch padding.
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

TEST(Batch32Db, PacksEverySequenceOnceInAscendingMaxLen) {
  auto db = skewed_db(11, 150, 2, 2000);
  Batch32Db bdb(db, 32);
  std::vector<int> seen(db.size(), 0);
  uint64_t real = 0, padded = 0;
  uint32_t prev_max_len = 0;
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    auto batch = bdb.batch(b);
    // The length-sorted layout detail::plan_by_cells and the docs assume.
    EXPECT_GE(batch.max_len, prev_max_len) << "batch " << b;
    prev_max_len = batch.max_len;
    uint64_t batch_real = 0;
    for (uint32_t k = 0; k < batch.count; ++k) {
      ++seen[batch.seq_index[k]];
      batch_real += batch.seq_len[k];
    }
    EXPECT_EQ(batch.real_residues, batch_real);
    real += batch.real_residues;
    padded += static_cast<uint64_t>(batch.max_len) * 32;
  }
  for (size_t s = 0; s < db.size(); ++s) EXPECT_EQ(seen[s], 1) << "seq " << s;
  EXPECT_EQ(bdb.real_residues(), db.total_residues());
  EXPECT_EQ(real, db.total_residues());
  EXPECT_EQ(bdb.padded_residues(), padded);
}

TEST_P(BatchScoreTest, SkewedDatabaseScoresMatchGolden) {
  const int lanes = GetParam();
  if (!host_drives(lanes)) GTEST_SKIP() << lanes << " lanes need AVX-512 VBMI";
  auto db = skewed_db(13, 120, 2, 1500);
  Batch32Db bdb(db, lanes);
  Workspace ws;
  AlignConfig cfg;
  auto q = seq::generate_sequence(80, 120);
  auto scores = batch_scores(q, bdb, db, cfg, ws);
  ASSERT_EQ(scores.size(), db.size());
  for (size_t s = 0; s < db.size(); ++s)
    EXPECT_EQ(scores[s], ref_align(q, db[s], cfg).score) << "seq " << s;
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
    if (!host_drives(lanes)) continue;
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
  Batch32Db bdb(db, 32);
  BatchSearchStats stats;
  batch_scores(q, bdb, db, cfg, ws, &stats);
  EXPECT_EQ(stats.useful_cells8, db.total_residues() * q.length());
  EXPECT_EQ(stats.cells8, bdb.padded_residues() * q.length());
  EXPECT_NEAR(stats.packing_efficiency(), bdb.packing_efficiency(), 1e-12);
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

// Every engine's signed byte primitives match int8 arithmetic on all 256 x
// 256 byte pairs, and max_alt, the port-balancing form, returns the plain
// max: the kernel's cell order may pick either form freely.
TEST(BatchKernel, EngineAltPrimitivesMatchPlainOnEveryBytePair) {
  struct Engine {
    const char* name;
    int lanes;
    BatchEngineOps (*ops)(const uint8_t*, const uint8_t*);
  };
  std::vector<Engine> engines = {
      {"emulated-32", 32, [](const uint8_t* a, const uint8_t* b) {
         return batch32_ops_scalar(a, b, 32);
       }},
      {"emulated-64", 64, [](const uint8_t* a, const uint8_t* b) {
         return batch32_ops_scalar(a, b, 64);
       }}};
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (simd::isa_available(simd::Isa::Avx2))
    engines.push_back({"avx2", 32, &batch32_ops_avx2});
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (batch_lanes_for(simd::Isa::Avx512) == 64)
    engines.push_back({"avx512", 64, &batch32_ops_avx512});
#endif
  auto i8 = [](uint8_t v) { return int{static_cast<int8_t>(v)}; };
  for (const Engine& e : engines) {
    uint8_t a[64], b[64];
    for (int x = 0; x < 256; ++x) {
      std::fill(a, a + e.lanes, static_cast<uint8_t>(x));
      for (int y0 = 0; y0 < 256; y0 += e.lanes) {
        for (int k = 0; k < e.lanes; ++k) b[k] = static_cast<uint8_t>(y0 + k);
        const BatchEngineOps r = e.ops(a, b);
        for (int k = 0; k < e.lanes; ++k) {
          const int sx = static_cast<int8_t>(x), sy = static_cast<int8_t>(y0 + k);
          ASSERT_EQ(i8(r.adds[k]), std::clamp(sx + sy, -128, 127))
              << e.name << " " << sx << " " << sy;
          ASSERT_EQ(i8(r.subs[k]), std::clamp(sx - sy, -128, 127))
              << e.name << " " << sx << " " << sy;
          ASSERT_EQ(i8(r.max[k]), std::max(sx, sy)) << e.name << " " << sx << " " << sy;
          ASSERT_EQ(r.max_alt[k], r.max[k]) << e.name << " " << sx << " " << sy;
        }
      }
    }
  }
}

// Plain saturating-u8 model of one batch, lane by lane: the Fig 5
// recurrence on biased scores with every add and subtract clamped to
// [0, 255], written out here rather than taken from the kernel's engines.
// Returns each lane's running maximum of H.
std::vector<int> model_lane_max(seq::SeqView q, const uint8_t* columns, uint32_t ncols,
                                int lanes, const AlignConfig& cfg) {
  auto u8 = [](int v) { return std::clamp(v, 0, 255); };
  const bool affine = cfg.gap_model == GapModel::Affine;
  const int bias = cfg.bias();
  const int open = u8(affine ? cfg.gap_open : cfg.gap_extend);
  const int ext = u8(cfg.gap_extend);
  std::vector<int> best(static_cast<size_t>(lanes), 0);
  for (int k = 0; k < lanes; ++k) {
    // Column j-1 of H and F, one entry per query row.
    std::vector<int> hcol(q.length, 0), fcol(q.length, 0);
    for (uint32_t j = 0; j < ncols; ++j) {
      const uint8_t r = columns[static_cast<size_t>(j) * lanes + k];
      int hdiag = 0, e = 0;
      for (size_t i = 0; i < q.length; ++i) {
        const int s = cfg.scheme == ScoreScheme::Matrix
                          ? cfg.matrix->score(q[i], r)
                          : (q[i] == r ? cfg.match : cfg.mismatch);
        const int hs = u8(u8(hdiag + u8(s + bias)) - bias);
        const int f = affine ? std::max(u8(hcol[i] - open), u8(fcol[i] - ext))
                             : u8(hcol[i] - ext);
        const int h = std::max({hs, e, f});
        e = affine ? std::max(u8(h - open), u8(e - ext)) : u8(h - ext);
        hdiag = hcol[i];
        hcol[i] = h;
        fcol[i] = f;
        best[static_cast<size_t>(k)] = std::max(best[static_cast<size_t>(k)], h);
      }
    }
  }
  return best;
}

struct ReferenceCase {
  const char* name;
  AlignConfig cfg;
  seq::Sequence query;
  seq::SequenceDatabase db;
};

// Near-copies of the query (mutation rate 0..25%) among random sequences:
// the close ones saturate the 8-bit lanes, the rest stay exact.
seq::SequenceDatabase near_copies_db(const seq::Sequence& q, uint64_t seed,
                                     seq::AlphabetKind kind) {
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 70; ++i) {
    const uint64_t s = seed + static_cast<uint64_t>(i);
    if (i % 3 == 0)
      seqs.push_back(seq::mutate(q, s, 0.05 * (i % 6)));
    else
      seqs.push_back(
          seq::generate_sequence(s, 40 + static_cast<uint32_t>(i) * 7, kind));
  }
  return seq::SequenceDatabase(std::move(seqs));
}

std::vector<ReferenceCase> reference_cases() {
  std::vector<ReferenceCase> cases;
  {
    auto q = seq::generate_sequence(200, 320);
    AlignConfig cfg;  // BLOSUM62, affine 11/1
    cases.push_back({"blosum62-near-identical", cfg, q,
                     near_copies_db(q, 201, seq::AlphabetKind::Protein)});
  }
  {
    // Harsh mismatch and gap costs keep the random lanes below the bound.
    auto q = seq::generate_sequence(210, 150);
    AlignConfig cfg;
    cfg.scheme = ScoreScheme::Fixed;
    cfg.match = 30;
    cfg.mismatch = -30;
    cfg.gap_open = 60;
    cfg.gap_extend = 30;
    cases.push_back({"fixed-match30", cfg, q,
                     near_copies_db(q, 211, seq::AlphabetKind::Protein)});
  }
  {
    auto q = seq::generate_sequence(220, 260, seq::AlphabetKind::Dna);
    AlignConfig cfg;
    cfg.matrix = &matrix::ScoreMatrix::dna_iupac();
    cases.push_back(
        {"dna-iupac", cfg, q, near_copies_db(q, 221, seq::AlphabetKind::Dna)});
  }
  {
    // The top protein codes (X, *) in the query reach the last rows of the
    // score profile.
    const seq::Alphabet& protein = seq::Alphabet::protein();
    const seq::Sequence base = seq::generate_sequence(230, 300);
    std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
    for (size_t i = 0; i < codes.size(); i += 5)
      codes[i] = protein.encode(i % 2 ? 'X' : '*');
    seq::Sequence q("top-codes", std::move(codes), protein);
    AlignConfig cfg;
    cases.push_back({"top-codes", cfg, q,
                     near_copies_db(q, 231, seq::AlphabetKind::Protein)});
  }
  {
    auto q = seq::generate_sequence(240, 280);
    AlignConfig cfg;
    cfg.gap_model = GapModel::Linear;
    cfg.gap_extend = 2;
    cases.push_back({"blosum62-linear", cfg, q,
                     near_copies_db(q, 241, seq::AlphabetKind::Protein)});
  }
  {
    auto q = seq::generate_sequence(250, 120);
    AlignConfig cfg;
    cfg.scheme = ScoreScheme::Fixed;
    cfg.match = 30;
    cfg.mismatch = -30;
    cfg.gap_model = GapModel::Linear;
    cfg.gap_extend = 40;
    cases.push_back({"fixed-match30-linear", cfg, q,
                     near_copies_db(q, 251, seq::AlphabetKind::Protein)});
  }
  return cases;
}

TEST(BatchKernel, MatchesIndependentSaturatingModelOnEveryEngine) {
  Workspace ws;
  for (const ReferenceCase& c : reference_cases()) {
    const int sat_limit = 255 - c.cfg.bias() - c.cfg.max_subst_score();
    for (int lanes : {32, 64}) {
      std::vector<simd::Isa> engines = {simd::Isa::Scalar};
      if (lanes == 32 && simd::isa_available(simd::Isa::Avx2))
        engines.push_back(simd::Isa::Avx2);
      if (lanes == 64 && batch_lanes_for(simd::Isa::Avx512) == 64)
        engines.push_back(simd::Isa::Avx512);
      Batch32Db bdb(c.db, lanes);
      int flagged = 0, exact = 0;
      for (size_t b = 0; b < bdb.batch_count(); ++b) {
        const auto batch = bdb.batch(b);
        const std::vector<int> want =
            model_lane_max(c.query, batch.columns, batch.max_len, lanes, c.cfg);
        for (simd::Isa isa : engines) {
          const Batch8Result got =
              batch32_align_u8(c.query, batch, lanes, c.cfg, ws, isa);
          for (int k = 0; k < lanes; ++k) {
            const bool want_sat = want[static_cast<size_t>(k)] >= sat_limit;
            const bool got_sat = (got.saturated_mask >> k) & 1;
            ASSERT_EQ(got_sat, want_sat) << c.name << " " << simd::isa_name(isa)
                                         << " lanes " << lanes << " batch " << b
                                         << " lane " << k;
            if (!want_sat) {
              ASSERT_EQ(got.max_score[k], want[static_cast<size_t>(k)])
                  << c.name << " " << simd::isa_name(isa) << " lanes " << lanes
                  << " batch " << b << " lane " << k;
            }
          }
        }
        for (uint32_t k = 0; k < batch.count; ++k) {
          if (want[k] >= sat_limit)
            ++flagged;
          else
            ++exact;
        }
      }
      // Every case covers both outcomes: saturated and exact lanes.
      EXPECT_GT(flagged, 0) << c.name << " lanes " << lanes;
      EXPECT_GT(exact, 0) << c.name << " lanes " << lanes;
    }
  }
}

// The signed kernel's clamps (batch32_kernel.hpp, headroom rule): gap
// penalties above 127 run as 127 under sat_limit <= 128, and scores outside
// int8 are clamped in the profile. Unflagged lanes must still be exact, the
// rescored search must match the golden model, and with every penalty
// within int8 the flags must be the model's too.
TEST(BatchKernel, SignedClampsAreExact) {
  struct ClampCase {
    const char* name;
    AlignConfig cfg;
  };
  std::vector<ClampCase> cases;
  for (auto [open, ext] : {std::pair{127, 1}, {128, 1}, {200, 1}, {255, 130}}) {
    AlignConfig cfg;  // BLOSUM62
    cfg.gap_open = open;
    cfg.gap_extend = ext;
    cases.push_back({"blosum62-affine", cfg});
  }
  {
    AlignConfig cfg;
    cfg.gap_model = GapModel::Linear;
    cfg.gap_extend = 150;
    cases.push_back({"blosum62-linear150", cfg});
  }
  for (auto [match, mismatch] : {std::pair{100, -150}, {127, -128}}) {
    AlignConfig cfg;
    cfg.scheme = ScoreScheme::Fixed;
    cfg.match = match;
    cfg.mismatch = mismatch;
    cases.push_back({"fixed", cfg});
  }
  {
    AlignConfig cfg;
    cfg.matrix = &matrix::ScoreMatrix::dna_iupac();
    cases.push_back({"dna-iupac", cfg});
  }
  Workspace ws;
  const auto q = seq::generate_sequence(4400, 90);
  const auto dna_q = seq::generate_sequence(4401, 90, seq::AlphabetKind::Dna);
  const seq::SequenceDatabase dna_db =
      near_copies_db(dna_q, 4420, seq::AlphabetKind::Dna);
  // Besides near-copies, copies of q[0, 60) split by a 1- or 2-residue
  // insertion: two segments that score about 150 each, joined only through
  // a gap. A gap penalty run as 127 without the sat_limit rule would join
  // them below the old sat_limit and leave a wrong lane unflagged.
  std::vector<seq::Sequence> protein_seqs;
  {
    const seq::SequenceDatabase near =
        near_copies_db(q, 4410, seq::AlphabetKind::Protein);
    for (size_t i = 0; i < near.size(); ++i) protein_seqs.push_back(near[i]);
    const auto codes = q.codes();
    for (int insert : {1, 2}) {
      std::vector<uint8_t> split(codes.begin(), codes.begin() + 30);
      for (int r = 0; r < insert; ++r) split.push_back(static_cast<uint8_t>(r + 7));
      split.insert(split.end(), codes.begin() + 30, codes.begin() + 60);
      protein_seqs.emplace_back("split", std::move(split), seq::Alphabet::protein());
    }
  }
  const seq::SequenceDatabase protein_db(std::move(protein_seqs));
  for (const ClampCase& c : cases) {
    const bool dna = c.cfg.matrix == &matrix::ScoreMatrix::dna_iupac();
    const seq::Sequence& query = dna ? dna_q : q;
    const seq::SequenceDatabase& db = dna ? dna_db : protein_db;
    const bool narrow_gaps = std::max(c.cfg.gap_open, c.cfg.gap_extend) <= 127;
    const int sat_limit = 255 - c.cfg.bias() - c.cfg.max_subst_score();
    const std::string where = std::string(c.name) + " " + std::to_string(c.cfg.gap_open) +
                              "/" + std::to_string(c.cfg.gap_extend) + " " +
                              std::to_string(c.cfg.match) + "/" +
                              std::to_string(c.cfg.mismatch);
    for (int lanes : {32, 64}) {
      std::vector<simd::Isa> engines = {simd::Isa::Scalar};
      if (lanes == 32 && simd::isa_available(simd::Isa::Avx2))
        engines.push_back(simd::Isa::Avx2);
      if (lanes == 64 && batch_lanes_for(simd::Isa::Avx512) == 64)
        engines.push_back(simd::Isa::Avx512);
      Batch32Db bdb(db, lanes);
      size_t unflagged = 0;
      for (size_t b = 0; b < bdb.batch_count(); ++b) {
        const auto batch = bdb.batch(b);
        const std::vector<int> want =
            model_lane_max(query, batch.columns, batch.max_len, lanes, c.cfg);
        for (simd::Isa isa : engines) {
          const Batch8Result got = batch32_align_u8(query, batch, lanes, c.cfg, ws, isa);
          for (uint32_t k = 0; k < batch.count; ++k)
            unflagged += !((got.saturated_mask >> k) & 1);
          for (int k = 0; k < lanes; ++k) {
            const bool got_sat = (got.saturated_mask >> k) & 1;
            const bool want_sat = want[static_cast<size_t>(k)] >= sat_limit;
            if (narrow_gaps) {
              ASSERT_EQ(got_sat, want_sat) << where << " " << simd::isa_name(isa)
                                           << " lanes " << lanes << " lane " << k;
            }
            if (!got_sat) {
              ASSERT_EQ(got.max_score[k], want[static_cast<size_t>(k)])
                  << where << " " << simd::isa_name(isa) << " lanes " << lanes
                  << " lane " << k;
            }
          }
        }
      }
      // Where one match stays below sat_limit, some real lane stays exact
      // in 8 bits: the clamps must not flag every lane.
      if (sat_limit > c.cfg.max_subst_score()) {
        EXPECT_GT(unflagged, 0u) << where << " lanes " << lanes;
      }
      for (simd::Isa isa : engines) {
        if (!batch_lanes_fit(lanes, isa)) continue;
        AlignConfig cfg = c.cfg;
        cfg.isa = isa;
        const std::vector<int> scores = batch_scores(query, bdb, db, cfg, ws);
        for (size_t s = 0; s < db.size(); ++s)
          ASSERT_EQ(scores[s], ref_align(query, db[s], c.cfg).score)
              << where << " " << simd::isa_name(isa) << " lanes " << lanes
              << " seq " << s;
      }
    }
  }
}

// The kernel computes kBatchBlockCols columns per pass over the query rows
// and the ncols mod kBatchBlockCols tail one column per pass. Hand-built
// batches of every width from 1 to 2 * kBatchBlockCols + 1 columns (ragged
// lanes padded with kBatchPadCode) cover a lone tail, full blocks and a tail
// after two blocks, on queries around the 64-residue vector edge and one
// long query.
TEST(BatchKernel, RaggedColumnBlocksMatchModel) {
  static_assert(kBatchBlockCols > 3, "the saturating lane peaks in column 2");
  constexpr int kSatLane = 5;
  Workspace ws;
  std::mt19937 rng(36);
  std::vector<seq::Sequence> queries;
  for (uint32_t m : {1u, 2u, 63u, 64u, 65u, 300u})
    queries.push_back(seq::generate_sequence(3600 + m, m));
  std::vector<std::pair<const char*, AlignConfig>> cfgs;
  for (bool linear : {false, true}) {
    AlignConfig matrix;  // BLOSUM62, affine 11/1
    if (linear) {
      matrix.gap_model = GapModel::Linear;
      matrix.gap_extend = 2;
    }
    cfgs.push_back({linear ? "matrix-linear" : "matrix-affine", matrix});
    // Three matches in a row reach sat_limit = 255 - 60 - 60 = 135, and
    // every gap or mismatch costs at least 60.
    AlignConfig fixed;
    fixed.scheme = ScoreScheme::Fixed;
    fixed.match = 60;
    fixed.mismatch = -60;
    fixed.gap_open = 60;
    fixed.gap_extend = linear ? 60 : 30;
    if (linear) fixed.gap_model = GapModel::Linear;
    cfgs.push_back({linear ? "fixed-linear" : "fixed-affine", fixed});
  }
  int sat_lane_flagged = 0;
  for (int lanes : {32, 64}) {
    std::vector<simd::Isa> engines = {simd::Isa::Scalar};
    if (lanes == 32 && simd::isa_available(simd::Isa::Avx2))
      engines.push_back(simd::Isa::Avx2);
    if (lanes == 64 && batch_lanes_for(simd::Isa::Avx512) == 64)
      engines.push_back(simd::Isa::Avx512);
    for (uint32_t ncols = 1; ncols <= 2 * kBatchBlockCols + 1; ++ncols) {
      for (const seq::Sequence& q : queries) {
        // Random residues; lane k holds a sequence of 1..ncols residues
        // (lane 0 the full width), padded with kBatchPadCode.
        std::vector<uint8_t> cols(static_cast<size_t>(ncols) * lanes);
        for (int k = 0; k < lanes; ++k) {
          const uint32_t len = k == 0 ? ncols : 1 + rng() % ncols;
          for (uint32_t j = 0; j < ncols; ++j)
            cols[static_cast<size_t>(j) * lanes + k] =
                j < len ? static_cast<uint8_t>(rng() % 20) : kBatchPadCode;
        }
        // kSatLane is the query's first three residues, so with the fixed
        // scheme it first reaches sat_limit in column 2 of the first block,
        // and every later column stays below it.
        for (uint32_t j = 0; j < ncols; ++j)
          cols[static_cast<size_t>(j) * lanes + kSatLane] =
              j < 3 && j < q.length() ? q.codes()[j] : kBatchPadCode;
        Batch32Db::Batch batch{};
        batch.columns = cols.data();
        batch.max_len = ncols;
        batch.count = static_cast<uint32_t>(lanes);
        for (const auto& [name, cfg] : cfgs) {
          const int sat_limit = 255 - cfg.bias() - cfg.max_subst_score();
          const std::vector<int> want = model_lane_max(q, cols.data(), ncols, lanes, cfg);
          if (cfg.scheme == ScoreScheme::Fixed && ncols >= 3 && q.length() >= 3) {
            ASSERT_GE(want[kSatLane], sat_limit) << name << " m " << q.length();
            ASSERT_LT(model_lane_max(q, cols.data(), 2, lanes, cfg)[kSatLane], sat_limit)
                << name << " m " << q.length();
            ++sat_lane_flagged;
          }
          for (simd::Isa isa : engines) {
            const Batch8Result got = batch32_align_u8(q, batch, lanes, cfg, ws, isa);
            for (int k = 0; k < lanes; ++k) {
              const bool want_sat = want[static_cast<size_t>(k)] >= sat_limit;
              ASSERT_EQ(((got.saturated_mask >> k) & 1) != 0, want_sat)
                  << name << " " << simd::isa_name(isa) << " lanes " << lanes
                  << " ncols " << ncols << " m " << q.length() << " lane " << k;
              if (!want_sat) {
                ASSERT_EQ(got.max_score[k], want[static_cast<size_t>(k)])
                    << name << " " << simd::isa_name(isa) << " lanes " << lanes
                    << " ncols " << ncols << " m " << q.length() << " lane " << k;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(sat_lane_flagged, 0);
}

}  // namespace
}  // namespace swve::core

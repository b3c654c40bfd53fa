// Differential fuzzing across every axis at once: random sequences, random
// configurations (scheme, gap model, penalties, matrix, width, ISA,
// delivery, band, traceback), every kernel family versus the golden scalar
// model. Complements the per-axis suites with cross-axis interactions.
#include <gtest/gtest.h>

#include <random>

#include "baseline/diag_basic.hpp"
#include "baseline/scan.hpp"
#include "baseline/striped.hpp"
#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "seq/database.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

struct FuzzCase {
  seq::Sequence q, r;
  AlignConfig cfg;
  std::string desc;
};

seq::Sequence fuzz_seq_of(std::mt19937_64& rng, uint32_t len) {
  switch (rng() % 4) {
    case 0:  // natural composition
      return seq::generate_sequence(rng(), len);
    case 1: {  // low complexity (gap-chain adversarial)
      std::vector<uint8_t> codes;
      while (codes.size() < len) {
        uint8_t c = static_cast<uint8_t>(rng() % 3);
        for (size_t k = 0, run = 1 + rng() % 13; k < run && codes.size() < len; ++k)
          codes.push_back(c);
      }
      return seq::Sequence("lowc", std::move(codes), seq::Alphabet::protein());
    }
    case 2: {  // self-similar (repeats)
      auto base = seq::generate_sequence(rng(), std::max(4u, len / 4));
      std::vector<uint8_t> codes;
      while (codes.size() < len)
        codes.insert(codes.end(), base.codes().begin(),
                     base.codes().end());
      codes.resize(len);
      return seq::Sequence("rep", std::move(codes), seq::Alphabet::protein());
    }
    default: {  // uniform over the full padded-code range seen in inputs
      std::vector<uint8_t> codes(len);
      for (auto& c : codes) c = static_cast<uint8_t>(rng() % 24);
      return seq::Sequence("uni", std::move(codes), seq::Alphabet::protein());
    }
  }
}

seq::Sequence fuzz_seq(std::mt19937_64& rng, uint32_t max_len) {
  return fuzz_seq_of(rng, 1 + static_cast<uint32_t>(rng() % max_len));
}

/// A length at a vector edge of the column sweep's striped layout: one
/// below, at and above 64, 128, 192 and 256 rows.
uint32_t edge_length(std::mt19937_64& rng) {
  return 64 * static_cast<uint32_t>(1 + rng() % 4) - 1 + static_cast<uint32_t>(rng() % 3);
}

FuzzCase make_case(std::mt19937_64& rng) {
  FuzzCase fc{fuzz_seq(rng, 220), fuzz_seq(rng, 220), {}, {}};
  AlignConfig& c = fc.cfg;
  if (rng() % 4 == 0) {
    c.scheme = ScoreScheme::Fixed;
    c.match = 1 + static_cast<int>(rng() % 8);
    c.mismatch = -static_cast<int>(rng() % 8);
  } else {
    auto names = matrix::ScoreMatrix::builtin_names();
    c.matrix = matrix::ScoreMatrix::find(names[rng() % names.size()]);
  }
  if (rng() % 3 == 0) {
    c.gap_model = GapModel::Linear;
    c.gap_extend = 1 + static_cast<int>(rng() % 5);
  } else {
    c.gap_extend = 1 + static_cast<int>(rng() % 3);
    c.gap_open = c.gap_extend + static_cast<int>(rng() % 14);
  }
  if (rng() % 3 == 0) c.band = static_cast<int>(rng() % 48);
  c.traceback = rng() % 2 == 0;
  switch (rng() % 4) {
    case 0: c.delivery = ScoreDelivery::Auto; break;
    case 1: c.delivery = ScoreDelivery::Gather; break;
    case 2: c.delivery = ScoreDelivery::Fill; break;
    default: c.delivery = ScoreDelivery::Shuffle; break;
  }
  switch (rng() % 4) {
    case 0: c.width = Width::W8; break;
    case 1: c.width = Width::W16; break;
    case 2: c.width = Width::W32; break;
    default: c.width = Width::Adaptive; break;
  }
  return fc;
}

/// q with a block of 1-70 residues deleted or random residues inserted at a
/// random point: aligning it to q crosses one long vertical or horizontal
/// gap.
seq::Sequence with_indel(const seq::Sequence& q, std::mt19937_64& rng) {
  std::vector<uint8_t> codes(q.codes().begin(), q.codes().end());
  const size_t len = 1 + rng() % 70;
  const size_t at = rng() % (codes.size() + 1);
  if (rng() % 2 == 0) {
    codes.erase(codes.begin() + at, codes.begin() + std::min(codes.size(), at + len));
  } else {
    for (size_t k = 0; k < len; ++k)
      codes.insert(codes.begin() + at, static_cast<uint8_t>(rng() % 20));
  }
  if (codes.empty()) codes.push_back(0);
  return seq::Sequence("indel", std::move(codes), q.alphabet());
}

TEST(Fuzz, DiagKernelsAllAxes) {
  std::mt19937_64 rng(777);
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);
  Workspace ws;

  int checked = 0, column = 0;
  for (int it = 0; it < 250; ++it) {
    FuzzCase fc = make_case(rng);
    // A third of the queries and references sit at a vector edge.
    if (rng() % 3 == 0) fc.q = fuzz_seq_of(rng, edge_length(rng));
    if (rng() % 3 == 0) fc.r = fuzz_seq_of(rng, edge_length(rng));
    if (rng() % 3 == 0) fc.r = with_indel(fc.q, rng);
    const Alignment ref = ref_align(fc.q, fc.r, fc.cfg);
    AlignConfig cfg = fc.cfg;
    cfg.isa = isas[rng() % isas.size()];
    Alignment got = diag_align(fc.q, fc.r, cfg, ws);
    // pair_align (the column sweep where its rule admits the pair) gives
    // the diagonal kernel's result in every field.
    const Alignment pa = pair_align(fc.q, fc.r, cfg, ws);
    ASSERT_EQ(pa.score, got.score) << "it=" << it;
    ASSERT_EQ(pa.end_query, got.end_query) << "it=" << it;
    ASSERT_EQ(pa.end_ref, got.end_ref) << "it=" << it;
    ASSERT_EQ(pa.begin_query, got.begin_query) << "it=" << it;
    ASSERT_EQ(pa.begin_ref, got.begin_ref) << "it=" << it;
    ASSERT_EQ(pa.cigar, got.cigar) << "it=" << it;
    ASSERT_EQ(pa.width_used, got.width_used) << "it=" << it;
    ASSERT_EQ(pa.saturated_8, got.saturated_8) << "it=" << it;
    ASSERT_EQ(pa.saturated_16, got.saturated_16) << "it=" << it;
    ASSERT_EQ(pa.saturated, got.saturated) << "it=" << it;
    if (pa.sweep == Sweep::Column) ++column;
    if (got.saturated) continue;  // fixed narrow width on a hot pair
    ASSERT_EQ(got.score, ref.score)
        << "it=" << it << " isa=" << simd::isa_name(cfg.isa)
        << " m=" << fc.q.length() << " n=" << fc.r.length()
        << " band=" << cfg.band << " w=" << static_cast<int>(cfg.width)
        << " d=" << static_cast<int>(cfg.delivery);
    ASSERT_EQ(got.end_query, ref.end_query) << "it=" << it;
    ASSERT_EQ(got.end_ref, ref.end_ref) << "it=" << it;
    if (cfg.traceback && got.score > 0) {
      ASSERT_EQ(got.cigar, ref.cigar) << "it=" << it;
      ASSERT_EQ(replay_score(fc.q, fc.r, cfg, got), got.score) << "it=" << it;
    }
    ++checked;
  }
  EXPECT_GT(checked, 150);  // most cases must be exercised, not skipped
  if (simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi) {
    EXPECT_GT(column, 5);  // the column sweep ran on some of them
  }
}

TEST(Fuzz, BaselinesAllConfigs) {
  if (!simd::isa_available(simd::Isa::Avx2)) GTEST_SKIP() << "needs AVX2";
  std::mt19937_64 rng(778);
  Workspace ws;
  for (int it = 0; it < 120; ++it) {
    FuzzCase fc = make_case(rng);
    fc.cfg.band = -1;  // baselines are unbanded
    const int ref = ref_align(fc.q, fc.r, fc.cfg).score;
    baseline::StripedAligner striped(fc.q, fc.cfg);
    ASSERT_EQ(striped.align(fc.r, ws).score, ref)
        << "striped it=" << it << " m=" << fc.q.length() << " n=" << fc.r.length();
    baseline::ScanAligner scan(fc.q, fc.cfg);
    ASSERT_EQ(scan.align(fc.r, ws).score, ref) << "scan it=" << it;
    baseline::DiagBasicAligner diag(fc.q, fc.cfg);
    ASSERT_EQ(diag.align(fc.r, ws).score, ref) << "diag it=" << it;
  }
}

TEST(Fuzz, BatchKernelRandomDatabases) {
  std::mt19937_64 rng(779);
  Workspace ws;
  // Odd rounds pack as wide as the host's Auto ISA drives (64 with AVX-512
  // VBMI, else 32): batch_scores refuses lanes it cannot drive.
  const int wide = batch_lanes_for(simd::resolve_isa(simd::Isa::Auto));
  for (int round = 0; round < 6; ++round) {
    std::vector<seq::Sequence> seqs;
    const size_t count = 5 + rng() % 70;
    for (size_t s = 0; s < count; ++s) seqs.push_back(fuzz_seq(rng, 160));
    seq::SequenceDatabase db(std::move(seqs));
    AlignConfig cfg;
    if (round % 2) {
      cfg.scheme = ScoreScheme::Fixed;
      cfg.match = 3;
      cfg.mismatch = -2;
    }
    Batch32Db bdb(db, round % 2 ? wide : 32);
    auto q = fuzz_seq(rng, 120);
    auto scores = batch_scores(q, bdb, db, cfg, ws);
    for (size_t s = 0; s < db.size(); ++s)
      ASSERT_EQ(scores[s], ref_align(q, db[s], cfg).score)
          << "round=" << round << " seq=" << s;
  }
}

}  // namespace
}  // namespace swve::core

// The library's determinism guarantee (§IV-H of the paper): identical
// results for identical inputs regardless of ISA, width ladder, repetition,
// or thread count.
#include <gtest/gtest.h>

#include <random>

#include "align/db_search.hpp"
#include "core/dispatch.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve {
namespace {

using core::AlignConfig;
using core::Alignment;
using core::Width;
using core::Workspace;

TEST(Determinism, AllIsasAgreeCellForCell) {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::isa_available(simd::Isa::Avx2)) isas.push_back(simd::Isa::Avx2);
  if (simd::isa_available(simd::Isa::Avx512)) isas.push_back(simd::Isa::Avx512);
  if (isas.size() < 2) GTEST_SKIP() << "single-ISA machine";

  std::mt19937_64 rng(200);
  Workspace ws;
  for (int it = 0; it < 30; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 300);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 300);
    AlignConfig cfg;
    cfg.traceback = true;
    cfg.isa = isas[0];
    Alignment base = core::diag_align(q, r, cfg, ws);
    for (size_t i = 1; i < isas.size(); ++i) {
      cfg.isa = isas[i];
      Alignment other = core::diag_align(q, r, cfg, ws);
      EXPECT_EQ(other.score, base.score) << simd::isa_name(isas[i]);
      EXPECT_EQ(other.end_query, base.end_query);
      EXPECT_EQ(other.end_ref, base.end_ref);
      EXPECT_EQ(other.begin_query, base.begin_query);
      EXPECT_EQ(other.begin_ref, base.begin_ref);
      EXPECT_EQ(other.cigar, base.cigar);
    }
  }
}

TEST(Determinism, WidthLadderAgreesWithDirect32) {
  std::mt19937_64 rng(201);
  Workspace ws;
  for (int it = 0; it < 20; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 200);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 200);
    AlignConfig cfg;
    cfg.width = Width::Adaptive;
    Alignment adaptive = core::diag_align(q, r, cfg, ws);
    cfg.width = Width::W32;
    Alignment exact = core::diag_align(q, r, cfg, ws);
    EXPECT_EQ(adaptive.score, exact.score);
    EXPECT_EQ(adaptive.end_query, exact.end_query);
    EXPECT_EQ(adaptive.end_ref, exact.end_ref);
  }
}

TEST(Determinism, SearchIdenticalAcrossRuns) {
  seq::SyntheticConfig sc;
  sc.seed = 55;
  sc.target_residues = 60'000;
  auto db = seq::SequenceDatabase::synthetic(sc);
  align::DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(202, 180);
  auto a = search.search(q, 10);
  auto b = search.search(q, 10);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index);
    EXPECT_EQ(a.hits[k].score, b.hits[k].score);
  }
}

TEST(Determinism, BatchKernelAgreesWithDiagKernel) {
  seq::SyntheticConfig sc;
  sc.seed = 56;
  sc.target_residues = 20'000;
  sc.min_length = 10;
  sc.max_length = 200;
  auto db = seq::SequenceDatabase::synthetic(sc);
  AlignConfig cfg;
  core::Batch32Db bdb(db, 32);
  Workspace ws;
  auto q = seq::generate_sequence(203, 90);
  auto batch = core::batch_scores(q, bdb, db, cfg, ws);
  for (size_t s = 0; s < db.size(); ++s) {
    Alignment a = core::diag_align(q, db[s], cfg, ws);
    EXPECT_EQ(batch[s], a.score) << s;
  }
}

}  // namespace
}  // namespace swve

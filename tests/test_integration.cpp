// End-to-end flows across the whole stack.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>

#include "align/aligner.hpp"
#include "align/db_search.hpp"
#include "core/traceback.hpp"
#include "seq/fasta.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve {
namespace {

using align::AlignConfig;
using align::Aligner;

TEST(Integration, FastaToSearchToTraceback) {
  // Build a FASTA in memory, read it back, search, re-align the top hit.
  seq::SyntheticConfig sc;
  sc.seed = 71;
  sc.target_residues = 30'000;
  auto seqs = seq::generate_database(sc);
  auto query = seq::mutate(seqs[3], 72, 0.1);  // homolog of entry 3

  std::ostringstream fasta;
  seq::write_fasta(fasta, seqs);
  std::istringstream in(fasta.str());
  seq::SequenceDatabase db(seq::read_fasta(in, seq::Alphabet::protein()));
  ASSERT_EQ(db.size(), seqs.size());

  align::DatabaseSearch search(db, AlignConfig{});
  auto res = search.search(query, 5);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].seq_index, 3u);

  AlignConfig tb_cfg;
  tb_cfg.traceback = true;
  Aligner aligner(tb_cfg);
  core::Alignment a = aligner.align(query, db[res.hits[0].seq_index]);
  EXPECT_EQ(a.score, res.hits[0].score);
  EXPECT_EQ(core::replay_score(query, db[res.hits[0].seq_index], tb_cfg, a), a.score);
}

TEST(Integration, ScenarioThreeReusableAlignerAllocatesOnceWarm) {
  Aligner aligner;
  std::mt19937_64 rng(73);
  // Warm up at the maximum size, then confirm many small alignments work
  // and agree with the scalar golden model.
  auto big_q = seq::generate_sequence(rng(), 256);
  auto big_r = seq::generate_sequence(rng(), 256);
  aligner.align(big_q, big_r);
  for (int it = 0; it < 200; ++it) {
    auto q = seq::generate_sequence(rng(), 1 + rng() % 128);
    auto r = seq::generate_sequence(rng(), 1 + rng() % 128);
    EXPECT_EQ(aligner.align(q, r).score, core::ref_align(q, r, {}).score);
  }
}

TEST(Integration, DnaReadMappingFlow) {
  // Scenario 3 flavored: map short DNA reads against a small reference.
  std::mt19937_64 rng(74);
  auto ref = seq::generate_sequence(75, 2000, seq::AlphabetKind::Dna);
  AlignConfig cfg;
  cfg.scheme = core::ScoreScheme::Fixed;
  cfg.match = 2;
  cfg.mismatch = -3;
  cfg.gap_open = 5;
  cfg.gap_extend = 2;
  cfg.traceback = true;
  Aligner aligner(cfg);
  for (int read_i = 0; read_i < 20; ++read_i) {
    size_t pos = rng() % 1900;
    auto read = seq::mutate(ref.subsequence(pos, 100), rng(), 0.05);
    core::Alignment a = aligner.align(read, ref);
    ASSERT_GT(a.score, 100);  // ~100bp at +2 with few errors
    // The mapped window must overlap the true origin.
    EXPECT_LT(std::abs(a.begin_ref - static_cast<int>(pos)), 20);
  }
}

TEST(Integration, PlantedDomainsCreateSharedHits) {
  // The synthetic generator plants shared domains; two sequences carrying
  // the same domain must align far better than background.
  seq::SyntheticConfig sc;
  sc.seed = 76;
  sc.target_residues = 120'000;
  sc.planted_fraction = 0.5;
  sc.min_length = 150;
  auto db = seq::SequenceDatabase::synthetic(sc);
  align::DatabaseSearch search(db, AlignConfig{});
  // Search each of a few sequences against the db; at least one should have
  // a strong non-self hit (shared domain).
  int strong_pairs = 0;
  for (size_t s = 0; s < std::min<size_t>(db.size(), 20); ++s) {
    auto res = search.search(db[s], 3);
    for (const auto& h : res.hits)
      if (h.seq_index != s && h.score > 200) ++strong_pairs;
  }
  EXPECT_GT(strong_pairs, 0);
}

TEST(Integration, ServiceBatchPipelineWithThreads) {
  seq::SyntheticConfig sc;
  sc.seed = 77;
  sc.target_residues = 50'000;
  auto db = seq::SequenceDatabase::synthetic(sc);
  service::ServiceOptions opt;
  opt.pool_threads = 2;
  service::AlignService svc(db, opt);
  auto queries = seq::make_query_ladder(78, 5, 60, 500);
  service::BatchRequest batch;
  batch.queries = queries;
  batch.options.top_k = 10;
  auto results = submit_future(svc, std::move(batch)).get();
  ASSERT_TRUE(results.ok()) << results.error().message;
  ASSERT_EQ(results->results.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const auto& hit : results->results[qi].result.hits) {
      service::AlignRequest realign;
      realign.query = queries[qi];
      realign.reference = db[hit.seq_index];
      realign.options.traceback = true;
      auto exact = submit_future(svc, std::move(realign)).get();
      ASSERT_TRUE(exact.ok()) << exact.error().message;
      EXPECT_EQ(exact->alignment.score, hit.score) << "query " << qi;
      EXPECT_FALSE(exact->alignment.cigar.empty()) << "query " << qi;
    }
  }
}

}  // namespace
}  // namespace swve

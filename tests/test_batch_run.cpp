// engine::batch_run, the scenario-2 engine behind AlignService's
// BatchRequest, called directly on a database packed for the config's ISA.
#include <gtest/gtest.h>

#include "align/aligner.hpp"
#include "align/batch_run.hpp"
#include "core/scalar_ref.hpp"
#include "core/traceback.hpp"
#include "seq/synthetic.hpp"

namespace swve::align {
namespace {

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 25) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 300;
  return seq::SequenceDatabase::synthetic(cfg);
}

core::Batch32Db pack_for(const seq::SequenceDatabase& db,
                         const AlignConfig& cfg) {
  return core::Batch32Db(db, core::batch_lanes_for(simd::resolve_isa(cfg.isa)));
}

std::vector<BatchQueryResult> run(const seq::SequenceDatabase& db,
                                  const core::Batch32Db& packed,
                                  const AlignConfig& cfg,
                                  const std::vector<seq::Sequence>& queries,
                                  size_t top_k,
                                  parallel::ThreadPool* pool = nullptr) {
  ExecContext ctx;
  ctx.pool = pool;
  return engine::batch_run(db, packed, cfg, queries, top_k, ctx);
}

TEST(BatchRun, ScoresAgreeWithDatabaseSearch) {
  auto db = make_db(50'000);
  AlignConfig cfg;
  const core::Batch32Db packed = pack_for(db, cfg);
  DatabaseSearch search(db, cfg);
  auto queries = seq::make_query_ladder(30, 4, 40, 300);
  auto results = run(db, packed, cfg, queries, 8);
  ASSERT_EQ(results.size(), queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    SearchResult direct = search.search(queries[qi], 8);
    const auto& batch = results[qi].result;
    ASSERT_EQ(batch.hits.size(), direct.hits.size()) << "query " << qi;
    for (size_t k = 0; k < direct.hits.size(); ++k) {
      EXPECT_EQ(batch.hits[k].seq_index, direct.hits[k].seq_index);
      EXPECT_EQ(batch.hits[k].score, direct.hits[k].score);
    }
  }
}

TEST(BatchRun, DeterministicAcrossThreadCounts) {
  auto db = make_db(40'000);
  const AlignConfig cfg;
  const core::Batch32Db packed = pack_for(db, cfg);
  auto queries = seq::make_query_ladder(31, 6, 50, 400);
  auto serial = run(db, packed, cfg, queries, 5);
  for (unsigned threads : {2u, 4u}) {
    parallel::ThreadPool pool(threads);
    auto par = run(db, packed, cfg, queries, 5, &pool);
    ASSERT_EQ(par.size(), serial.size());
    for (size_t qi = 0; qi < serial.size(); ++qi) {
      ASSERT_EQ(par[qi].result.hits.size(), serial[qi].result.hits.size());
      for (size_t k = 0; k < serial[qi].result.hits.size(); ++k) {
        EXPECT_EQ(par[qi].result.hits[k].seq_index,
                  serial[qi].result.hits[k].seq_index);
        EXPECT_EQ(par[qi].result.hits[k].score, serial[qi].result.hits[k].score);
      }
    }
  }
}

TEST(BatchRun, RealignProducesValidTraceback) {
  auto q = seq::generate_sequence(32, 200);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 40; ++i)
    seqs.push_back(seq::generate_sequence(33 + static_cast<uint64_t>(i), 150));
  seqs.push_back(seq::mutate(q, 34, 0.15));
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  auto results = run(db, pack_for(db, cfg), cfg, {q}, 3);
  ASSERT_FALSE(results[0].result.hits.empty());
  const Hit& top = results[0].result.hits[0];
  EXPECT_EQ(top.seq_index, 40u);
  AlignConfig replay_cfg = cfg;
  replay_cfg.traceback = true;
  core::Alignment a = Aligner(replay_cfg).align(q, db[top.seq_index]);
  EXPECT_EQ(a.score, top.score);
  ASSERT_FALSE(a.cigar.empty());
  EXPECT_EQ(core::replay_score(q, db[top.seq_index], replay_cfg, a), a.score);
}

TEST(BatchRun, LanesMatchCpuCapability) {
  auto db = make_db(5'000);
  const core::Batch32Db packed = pack_for(db, AlignConfig{});
  EXPECT_TRUE(packed.lanes() == 32 || packed.lanes() == 64);
  EXPECT_EQ(packed.lanes(),
            core::batch_lanes_for(simd::resolve_isa(simd::Isa::Auto)));
}

TEST(BatchRun, EmptyQueryListAndStats) {
  auto db = make_db(5'000);
  const AlignConfig cfg;
  const core::Batch32Db packed = pack_for(db, cfg);
  EXPECT_TRUE(run(db, packed, cfg, {}, 5).empty());
  auto q = seq::generate_sequence(35, 80);
  auto results = run(db, packed, cfg, {q}, 5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].batch_stats.cells8, 0u);
}

}  // namespace
}  // namespace swve::align

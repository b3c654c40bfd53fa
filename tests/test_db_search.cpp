#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <random>
#include <thread>
#include <vector>

#include "align/batch_scan.hpp"
#include "align/db_search.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::align {
namespace {

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 15) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 400;
  return seq::SequenceDatabase::synthetic(cfg);
}

/// Swiss-Prot-shaped but short (median ~27 aa, 4..200): many batches for
/// few residues.
std::vector<seq::Sequence> make_mixed_db(uint64_t residues, uint64_t seed = 16) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.log_mean = 3.3;
  cfg.min_length = 4;
  cfg.max_length = 200;
  return seq::generate_database(cfg);
}

/// Padded cells of batches [b, e): what plan_by_cells balances.
uint64_t padded_cells(const core::Batch32Db& packed, size_t b, size_t e) {
  uint64_t cells = 0;
  for (; b < e; ++b)
    cells += static_cast<uint64_t>(packed.batch(b).max_len) *
             static_cast<uint64_t>(packed.lanes());
  return cells;
}

TEST(ScanPlanner, CutsAreContiguousAndBalanced) {
  seq::SequenceDatabase db(make_mixed_db(400'000));
  core::Batch32Db packed(db, 32);
  const size_t n = packed.batch_count();
  ASSERT_GE(n, 200u);
  // Whole database and an unaligned sub-range (a shard's view).
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, n},
                            std::pair<size_t, size_t>{7, n - 3}}) {
    uint64_t max_batch = 0;
    for (size_t b = begin; b < end; ++b)
      max_batch = std::max(max_batch, padded_cells(packed, b, b + 1));
    const uint64_t total = padded_cells(packed, begin, end);
    for (size_t parts : {size_t{1}, size_t{3}, size_t{16}, size_t{48}}) {
      std::string label = "[";
      label += std::to_string(begin) + "," + std::to_string(end) + ") parts" +
               std::to_string(parts);
      auto ranges = detail::plan_by_cells(packed, begin, end, parts);
      ASSERT_EQ(ranges.size(), parts) << label;
      size_t expect_begin = begin;
      for (const auto& [b, e] : ranges) {
        EXPECT_EQ(b, expect_begin) << label;  // contiguous, in order
        EXPECT_GT(e, b) << label;             // non-empty
        const double target = static_cast<double>(total) /
                              static_cast<double>(parts);
        EXPECT_LE(std::abs(static_cast<double>(padded_cells(packed, b, e)) -
                           target),
                  static_cast<double>(max_batch))
            << label << " range [" << b << "," << e << ")";
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, end) << label;  // every batch covered
    }
  }

  // Fewer batches than parts: one range per batch.
  auto few = detail::plan_by_cells(packed, 10, 13, 8);
  ASSERT_EQ(few.size(), 3u);
  EXPECT_EQ(few[0], (std::pair<size_t, size_t>{10, 11}));
  EXPECT_EQ(few[1], (std::pair<size_t, size_t>{11, 12}));
  EXPECT_EQ(few[2], (std::pair<size_t, size_t>{12, 13}));
  // A single batch is one range whatever the part count.
  auto one = detail::plan_by_cells(packed, 5, 6, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::pair<size_t, size_t>{5, 6}));
  // Empty range, or no parts.
  EXPECT_TRUE(detail::plan_by_cells(packed, 9, 9, 4).empty());
  EXPECT_TRUE(detail::plan_by_cells(packed, 0, n, 0).empty());
}

void expect_same_hits(const SearchResult& got, const std::vector<Hit>& want,
                      const char* what) {
  ASSERT_EQ(got.hits.size(), want.size()) << what;
  for (size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got.hits[k].seq_index, want[k].seq_index) << what << " " << k;
    EXPECT_EQ(got.hits[k].score, want[k].score) << what << " " << k;
    EXPECT_EQ(got.hits[k].end_query, want[k].end_query) << what << " " << k;
    EXPECT_EQ(got.hits[k].end_ref, want[k].end_ref) << what << " " << k;
  }
}

TEST(DatabaseSearch, TopKMatchesBruteForce) {
  AlignConfig cfg;
  // A short query over a random database, and a query past the column
  // sweep's limit (core::kColumnSweepMaxQuery) over one with three planted
  // near-copies of it. The copies saturate their 8-bit lanes, so the
  // rescore ladder and the phase-2 re-alignment both run the diagonal
  // kernel on the request's query feed.
  const seq::Sequence long_q =
      seq::generate_sequence(91, core::kColumnSweepMaxQuery + 144);
  seq::SyntheticConfig sc;
  sc.seed = 17;
  sc.target_residues = 30'000;
  sc.min_length = 20;
  sc.max_length = 400;
  std::vector<seq::Sequence> seqs = seq::generate_database(sc);
  for (size_t i = 0; i < 3; ++i)
    seqs.insert(seqs.begin() + static_cast<std::ptrdiff_t>(seqs.size() * (i + 1) / 4),
                seq::mutate(long_q, 92 + i, 0.05 * static_cast<double>(i + 1)));
  struct Input {
    seq::SequenceDatabase db;
    seq::Sequence q;
    uint64_t planted;  // near-copies whose 8-bit lanes saturate
  };
  const Input inputs[] = {{make_db(60'000), seq::generate_sequence(90, 120), 0},
                          {seq::SequenceDatabase(std::move(seqs)), long_q, 3}};

  for (const Input& in : inputs) {
    SCOPED_TRACE(::testing::Message() << "query of " << in.q.length() << " aa");
    // Brute force with the golden model.
    std::vector<Hit> all;
    for (size_t s = 0; s < in.db.size(); ++s) {
      core::Alignment a = core::ref_align(in.q, in.db[s], cfg);
      if (a.score > 0)
        all.push_back(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
    }
    std::sort(all.begin(), all.end());
    all.resize(std::min<size_t>(all.size(), 10));

    DatabaseSearch search(in.db, cfg);
    SearchResult res = search.search(in.q, 10);
    expect_same_hits(res, all, "DatabaseSearch");
    EXPECT_GE(res.batch_stats.rescored, in.planted);
    expect_same_hits(engine::search_diagonal(in.db, cfg, in.q, 10, ExecContext{}),
                     all, "search_diagonal");

    service::ServiceOptions opt;
    opt.pool_threads = 2;
    service::AlignService svc(in.db, opt);
    service::SearchRequest rq;
    rq.query = in.q;
    rq.options.top_k = 10;
    auto got = service::submit_future(svc, std::move(rq)).get();
    ASSERT_TRUE(got.ok()) << got.error().message;
    expect_same_hits(got.value().result, all, "AlignService");
    EXPECT_GE(got.value().result.batch_stats.rescored, in.planted);
  }
}

TEST(DatabaseSearch, HitsAreSortedBestFirst) {
  auto db = make_db(40'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(91, 100);
  SearchResult res = search.search(q, 20);
  for (size_t k = 1; k < res.hits.size(); ++k) {
    EXPECT_GE(res.hits[k - 1].score, res.hits[k].score);
    if (res.hits[k - 1].score == res.hits[k].score) {
      EXPECT_LT(res.hits[k - 1].seq_index, res.hits[k].seq_index);
    }
  }
}

TEST(DatabaseSearch, IdenticalResultsForAnyThreadCount) {
  auto db = make_db(80'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(92, 150);
  SearchResult serial = search.search(q, 15);
  for (unsigned threads : {1u, 2u, 3u, 5u}) {
    parallel::ThreadPool pool(threads);
    SearchResult par = search.search(q, 15, &pool);
    ASSERT_EQ(par.hits.size(), serial.hits.size()) << threads << " threads";
    for (size_t k = 0; k < serial.hits.size(); ++k) {
      EXPECT_EQ(par.hits[k].seq_index, serial.hits[k].seq_index);
      EXPECT_EQ(par.hits[k].score, serial.hits[k].score);
    }
    EXPECT_EQ(par.stats.cells, serial.stats.cells);
  }
}

TEST(DatabaseSearch, StatsCountEveryCell) {
  auto db = make_db(30'000);
  auto q = seq::generate_sequence(93, 64);
  // The diagonal engine: adaptive width may re-run saturated pairs, so
  // cells >= m * residues.
  SearchResult res =
      engine::search_diagonal(db, AlignConfig{}, q, 5, ExecContext{});
  EXPECT_GE(res.stats.cells, 64u * db.total_residues());
  EXPECT_EQ(res.db_residues, db.total_residues());
  EXPECT_EQ(res.query_length, 64u);
  EXPECT_GT(res.seconds, 0.0);
  EXPECT_GT(res.gcups(), 0.0);

  // The facade's batch scan: every real cell once, plus lane padding.
  DatabaseSearch search(db, AlignConfig{});
  SearchResult batch = search.search(q, 5);
  EXPECT_EQ(batch.batch_stats.useful_cells8, 64u * db.total_residues());
  EXPECT_GE(batch.stats.cells, batch.batch_stats.useful_cells8);
  EXPECT_EQ(batch.db_residues, db.total_residues());
  EXPECT_GT(batch.gcups(), 0.0);
}

TEST(DatabaseSearch, PlantedHomologIsTopHit) {
  auto q = seq::generate_sequence(94, 300);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 60; ++i)
    seqs.push_back(seq::generate_sequence(95 + static_cast<uint64_t>(i), 250));
  seqs.push_back(seq::mutate(q, 96, 0.2));  // index 60
  seq::SequenceDatabase db(std::move(seqs));
  DatabaseSearch search(db, AlignConfig{});
  SearchResult res = search.search(q, 3);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].seq_index, 60u);
}

TEST(DatabaseSearch, EmptyQueryAndEmptyDb) {
  auto db = make_db(10'000);
  DatabaseSearch search(db, AlignConfig{});
  seq::Sequence e("e", "", seq::Alphabet::protein());
  EXPECT_TRUE(search.search(e, 10).hits.empty());
  seq::SequenceDatabase empty;
  DatabaseSearch s2(empty, AlignConfig{});
  auto q = seq::generate_sequence(97, 50);
  EXPECT_TRUE(s2.search(q, 10).hits.empty());
}

TEST(DatabaseSearch, BatchModeMatchesDiagonalMode) {
  auto db = make_db(50'000);
  AlignConfig cfg;
  DatabaseSearch batch(db, cfg);
  for (uint64_t seed : {400u, 401u, 402u}) {
    auto q = seq::generate_sequence(seed, 80 + seed % 200);
    SearchResult a = engine::search_diagonal(db, cfg, q, 12, ExecContext{});
    SearchResult b = batch.search(q, 12);
    EXPECT_EQ(a.batch_stats.cells8, 0u);
    EXPECT_GT(b.batch_stats.cells8, 0u);  // the facade took the batch scan
    ASSERT_EQ(a.hits.size(), b.hits.size()) << "seed " << seed;
    for (size_t k = 0; k < a.hits.size(); ++k) {
      EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index) << k;
      EXPECT_EQ(a.hits[k].score, b.hits[k].score) << k;
      EXPECT_EQ(a.hits[k].end_query, b.hits[k].end_query) << k;
      EXPECT_EQ(a.hits[k].end_ref, b.hits[k].end_ref) << k;
    }
  }
}

TEST(DatabaseSearch, BatchModeDeterministicAcrossThreads) {
  // Short, widely mixed lengths: hundreds of batches, several per scan
  // chunk even at 7 workers, so the chunk cursor hands batches to workers
  // in a different order every run. Planted copies of the query saturate
  // the 8-bit kernel, so the rescore ladder runs inside the chunks too.
  auto q = seq::generate_sequence(410, 64);
  std::vector<seq::Sequence> seqs = make_mixed_db(1'200'000);
  for (size_t i = 0; i < 6; ++i)
    seqs.insert(seqs.begin() + static_cast<std::ptrdiff_t>(i * seqs.size() / 6),
                seq::mutate(q, 411 + i, 0.02 * static_cast<double>(i)));
  seq::SequenceDatabase db(std::move(seqs));

  DatabaseSearch batch(db, AlignConfig{});
  ASSERT_GE(batch.packed_db()->batch_count(),
            3 * 7 * detail::kChunksPerWorker)
      << "workload too small to put several batches in every chunk";
  SearchResult serial = batch.search(q, 10);
  ASSERT_FALSE(serial.truncated);
  EXPECT_GE(serial.batch_stats.rescored, 1u);
  for (unsigned threads : {1u, 2u, 3u, 5u, 7u}) {
    parallel::ThreadPool pool(threads);
    SearchResult par = batch.search(q, 10, &pool);
    const std::string label = std::to_string(threads) + " threads";
    ASSERT_EQ(par.hits.size(), serial.hits.size()) << label;
    for (size_t i = 0; i < serial.hits.size(); ++i) {
      EXPECT_EQ(par.hits[i].seq_index, serial.hits[i].seq_index) << label;
      EXPECT_EQ(par.hits[i].score, serial.hits[i].score) << label;
      EXPECT_EQ(par.hits[i].end_query, serial.hits[i].end_query) << label;
      EXPECT_EQ(par.hits[i].end_ref, serial.hits[i].end_ref) << label;
    }
    EXPECT_EQ(par.batch_stats.cells8, serial.batch_stats.cells8) << label;
    EXPECT_EQ(par.batch_stats.useful_cells8,
              serial.batch_stats.useful_cells8) << label;
    EXPECT_EQ(par.batch_stats.rescored, serial.batch_stats.rescored)
        << label;
    EXPECT_EQ(par.batch_stats.rescored_cells,
              serial.batch_stats.rescored_cells) << label;
    EXPECT_EQ(par.stats.cells, serial.stats.cells) << label;
  }
}

TEST(DatabaseSearch, BatchModeHandlesSaturatingHomolog) {
  auto q = seq::generate_sequence(420, 500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 50; ++i)
    seqs.push_back(seq::generate_sequence(421 + static_cast<uint64_t>(i), 150));
  seqs.push_back(seq::mutate(q, 422, 0.05));  // saturates the 8-bit kernel
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  DatabaseSearch batch(db, cfg);
  SearchResult res = batch.search(q, 3);
  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.hits[0].seq_index, 50u);
  EXPECT_EQ(res.hits[0].score, core::ref_align(q, db[50], cfg).score);
}

TEST(DatabaseSearch, PackedTopKIdenticalOnAdversarialLengthMix) {
  // Worst case for batch packing: one 10k-residue sequence buried among
  // hundreds of short ones. The packed batch scan must return the same
  // top-k (indices, scores, end positions) as the unpacked diagonal path.
  std::mt19937_64 rng(500);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 300; ++i)
    seqs.push_back(seq::generate_sequence(rng(), 25 + static_cast<uint32_t>(rng() % 80)));
  auto mid = seqs.begin() + static_cast<std::ptrdiff_t>(seqs.size() / 2);
  seqs.insert(mid, seq::generate_sequence(rng(), 10'000));
  seq::SequenceDatabase db(std::move(seqs));

  AlignConfig cfg;
  auto q = seq::generate_sequence(501, 180);
  SearchResult ref = engine::search_diagonal(db, cfg, q, 15, ExecContext{});
  ASSERT_FALSE(ref.hits.empty());

  DatabaseSearch batch(db, cfg);
  ASSERT_NE(batch.packed_db(), nullptr);
  SearchResult res = batch.search(q, 15);
  ASSERT_EQ(res.hits.size(), ref.hits.size());
  for (size_t k = 0; k < ref.hits.size(); ++k) {
    EXPECT_EQ(res.hits[k].seq_index, ref.hits[k].seq_index) << k;
    EXPECT_EQ(res.hits[k].score, ref.hits[k].score) << k;
    EXPECT_EQ(res.hits[k].end_query, ref.hits[k].end_query) << k;
    EXPECT_EQ(res.hits[k].end_ref, ref.hits[k].end_ref) << k;
  }
  // The batch accounting must agree with the packed database layout.
  EXPECT_EQ(res.batch_stats.useful_cells8, db.total_residues() * q.length());
  EXPECT_EQ(res.batch_stats.cells8,
            batch.packed_db()->padded_residues() * q.length());
}

TEST(DatabaseSearch, BatchModeSaturationLadderReachesWide32) {
  // Fixed match=30 against a planted identical 1200-mer scores 36000 —
  // past int16 — so the batch path's rescore ladder must climb u8 -> W16
  // -> W32 and still agree with the diagonal path bit for bit.
  auto q = seq::generate_sequence(510, 1200);
  std::vector<seq::Sequence> seqs;
  for (int i = 0; i < 70; ++i)
    seqs.push_back(seq::generate_sequence(511 + static_cast<uint64_t>(i), 90));
  seqs.push_back(seq::mutate(q, 512, 0.0));  // index 70
  seq::SequenceDatabase db(std::move(seqs));
  AlignConfig cfg;
  cfg.scheme = core::ScoreScheme::Fixed;
  cfg.match = 30;
  cfg.mismatch = -3;
  DatabaseSearch batch(db, cfg);
  SearchResult a = engine::search_diagonal(db, cfg, q, 5, ExecContext{});
  SearchResult b = batch.search(q, 5);
  ASSERT_FALSE(b.hits.empty());
  EXPECT_EQ(b.hits[0].seq_index, 70u);
  EXPECT_EQ(b.hits[0].score, 30 * 1200);
  EXPECT_GE(b.batch_stats.rescored, 1u);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].seq_index, b.hits[k].seq_index) << k;
    EXPECT_EQ(a.hits[k].score, b.hits[k].score) << k;
  }
}

TEST(DatabaseSearch, BandedConfigRunsTheDiagonalEngine) {
  // The batch kernel cannot band: a banded facade packs nothing and
  // returns the diagonal engine's hits, end cells included.
  auto db = make_db(5'000);
  AlignConfig cfg;
  cfg.band = 8;
  DatabaseSearch search(db, cfg);
  EXPECT_EQ(search.packed_db(), nullptr);
  EXPECT_EQ(search.sharded(), nullptr);
  auto q = seq::generate_sequence(99, 90);
  const SearchResult got = search.search(q, 10);
  const SearchResult want =
      engine::search_diagonal(db, cfg, q, 10, ExecContext{});
  ASSERT_FALSE(want.hits.empty());
  ASSERT_EQ(got.hits.size(), want.hits.size());
  for (size_t k = 0; k < want.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].seq_index, want.hits[k].seq_index) << k;
    EXPECT_EQ(got.hits[k].score, want.hits[k].score) << k;
    EXPECT_EQ(got.hits[k].end_query, want.hits[k].end_query) << k;
    EXPECT_EQ(got.hits[k].end_ref, want.hits[k].end_ref) << k;
  }
  EXPECT_EQ(got.batch_stats.cells8, 0u);
  EXPECT_EQ(got.stats.cells, want.stats.cells);
}

/// Capacity of every buffer in `ws`, in declaration order.
std::vector<size_t> capacities(const core::Workspace& ws) {
  std::vector<size_t> out;
  for (const auto& b : ws.h) out.push_back(b.capacity());
  for (const auto& b : ws.e) out.push_back(b.capacity());
  for (const auto& b : ws.f) out.push_back(b.capacity());
  for (const core::AlignedBuf* b :
       {&ws.rowmax, &ws.best_diag, &ws.qmul32, &ws.dbrev32, &ws.diag_scores,
        &ws.qenc, &ws.dbrev_enc, &ws.column_prof, &ws.tb_dirs,
        &ws.tb_offsets, &ws.batch_h, &ws.batch_f, &ws.batch_prof})
    out.push_back(b->capacity());
  for (const auto& b : ws.baseline) out.push_back(b.capacity());
  return out;
}

// Every engine scans with the calling thread's core::thread_workspace(): on
// a thread with no pool, a diagonal-engine search, a batch-scan search and
// a pair_align all grow the one object, a repeat grows nothing, and
// another thread has its own.
TEST(DatabaseSearch, EnginesScanWithTheThreadWorkspace) {
  auto db = make_db(40'000, 31);
  core::AlignConfig cfg;
  // Longer than core::kColumnSweepMaxQuery, so the diagonal engine runs
  // the diagonal kernel.
  auto q = seq::generate_sequence(131, 300);
  DatabaseSearch batch(db, cfg);
  const core::Workspace* const main_ws = &core::thread_workspace();

  // A fresh thread, so its workspace starts with nothing allocated.
  std::thread worker([&] {
    const core::Workspace& ws = core::thread_workspace();
    EXPECT_NE(&ws, main_ws);  // the spawning thread's is still alive
    const ExecContext none;  // no pool: every engine runs on this thread
    auto run_all = [&] {
      engine::search_diagonal(db, cfg, q, 10, none);
      EXPECT_EQ(&core::thread_workspace(), &ws);
      EXPECT_GT(ws.h[0].capacity(), 0u);  // the diagonal kernel's DP state
      batch.search(q, 10, none);
      EXPECT_EQ(&core::thread_workspace(), &ws);
      EXPECT_GT(ws.batch_h.capacity(), 0u);  // the batch kernel's columns
      core::pair_align(q, db[0], cfg, core::thread_workspace());
      EXPECT_EQ(&core::thread_workspace(), &ws);
    };
    ASSERT_EQ(ws.h[0].capacity(), 0u);
    run_all();
    const std::vector<size_t> warmed = capacities(ws);
    run_all();
    EXPECT_EQ(capacities(ws), warmed) << "a repeated search grew a buffer";
  });
  worker.join();
}

// TopK rejects an offer no better than its worst kept hit before touching
// the heap. Scores drawn from a narrow range (many ties, some not positive)
// and every offer order must keep exactly the first k of the sorted
// positive hits.
TEST(DatabaseSearch, TopKMatchesSortedSelectionWithTies) {
  std::mt19937 rng(39);
  for (int round = 0; round < 40; ++round) {
    const int n = 1 + static_cast<int>(rng() % 300);
    std::vector<Hit> offers(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      offers[static_cast<size_t>(i)].seq_index = static_cast<uint32_t>(i);
      offers[static_cast<size_t>(i)].score = static_cast<int>(rng() % 7) - 1;
    }
    std::shuffle(offers.begin(), offers.end(), rng);
    std::vector<Hit> positive;
    for (const Hit& h : offers)
      if (h.score > 0) positive.push_back(h);
    std::sort(positive.begin(), positive.end());
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{10},
                     static_cast<size_t>(n), static_cast<size_t>(n) + 5}) {
      detail::TopK top(k);
      for (const Hit& h : offers) top.offer(h);
      const std::vector<Hit> got = std::move(top).sorted();
      const std::vector<Hit> want(
          positive.begin(),
          positive.begin() + static_cast<std::ptrdiff_t>(std::min(k, positive.size())));
      ASSERT_EQ(got.size(), want.size()) << "round " << round << " k " << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].seq_index, want[i].seq_index) << "round " << round << " k " << k;
        EXPECT_EQ(got[i].score, want[i].score) << "round " << round << " k " << k;
      }
    }
  }
}

TEST(DatabaseSearch, TopKZero) {
  auto db = make_db(10'000);
  DatabaseSearch search(db, AlignConfig{});
  auto q = seq::generate_sequence(98, 50);
  EXPECT_TRUE(search.search(q, 0).hits.empty());
}

}  // namespace
}  // namespace swve::align

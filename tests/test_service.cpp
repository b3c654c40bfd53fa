// AlignService: the async front door, driven through submit_async and the
// blocking submit_future wrapper.
//
// Covers: future completion order, deadline expiry (queued and mid-run),
// queue-full backpressure, bit-identical results vs the direct drivers for
// several thread counts and both search modes, per-request config
// validation failing the future with a typed error, the delivery override
// hook, the metrics snapshot, the telemetry history, and the caller-runs
// admission rule for small pairwise requests.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "align/db_search.hpp"
#include "core/dispatch.hpp"
#include "core/scalar_ref.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"

namespace swve::service {
namespace {

using Code = core::ConfigError::Code;
using std::chrono::milliseconds;

seq::SequenceDatabase make_db(uint64_t residues, uint64_t seed = 15) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = 20;
  cfg.max_length = 400;
  return seq::SequenceDatabase::synthetic(cfg);
}

AlignRequest pairwise_request(uint64_t seed, int qlen = 80, int rlen = 120) {
  AlignRequest rq;
  rq.query = seq::generate_sequence(seed, qlen);
  rq.reference = seq::generate_sequence(seed + 1, rlen);
  return rq;
}

/// The request's response; a failed request fails the test.
template <typename Response>
Response get_ok(std::future<core::ErrorOr<Response>> fut) {
  core::ErrorOr<Response> out = fut.get();
  EXPECT_TRUE(out.ok()) << out.error().message;
  return std::move(out).value();
}

/// The request's typed error code (Code::Ok when it succeeded).
template <typename Response>
Code failure_code(std::future<core::ErrorOr<Response>>& fut) {
  const core::ErrorOr<Response> out = fut.get();
  return out.ok() ? Code::Ok : out.error().code;
}

TEST(AlignService, PairwiseMatchesAligner) {
  ServiceOptions opt;
  opt.pool_threads = 2;
  AlignService svc(opt);

  AlignRequest rq = pairwise_request(71);
  rq.options.traceback = true;
  seq::Sequence q = rq.query, r = rq.reference;

  AlignResponse resp = get_ok(submit_future(svc, std::move(rq)));

  align::AlignConfig cfg;
  cfg.traceback = true;
  align::Aligner direct(cfg);
  core::Alignment want = direct.align(q, r);
  EXPECT_EQ(resp.alignment.score, want.score);
  EXPECT_EQ(resp.alignment.end_query, want.end_query);
  EXPECT_EQ(resp.alignment.end_ref, want.end_ref);
  EXPECT_EQ(resp.alignment.cigar, want.cigar);
  EXPECT_EQ(resp.trace.scenario, Scenario::Pairwise);
  EXPECT_GT(resp.trace.cells, 0u);
  EXPECT_GE(resp.trace.queue_wait_s, 0.0);
}

TEST(AlignService, FifoCompletionOrderWithOneExecutor) {
  ServiceOptions opt;
  opt.pool_threads = 1;
  opt.queue.executors = 1;  // strict FIFO
  opt.queue.start_paused = true;
  AlignService svc(opt);

  std::vector<std::future<core::ErrorOr<AlignResponse>>> futs;
  for (int i = 0; i < 8; ++i)
    futs.push_back(submit_future(svc, pairwise_request(100 + i)));
  svc.resume();

  uint64_t prev = 0;
  for (size_t i = 0; i < futs.size(); ++i) {
    AlignResponse r = get_ok(std::move(futs[i]));
    if (i > 0) {
      EXPECT_EQ(r.trace.exec_sequence, prev + 1) << i;
    }
    prev = r.trace.exec_sequence;
  }
}

TEST(AlignService, QueueFullRejectionWhilePaused) {
  ServiceOptions opt;
  opt.queue.capacity = 3;
  opt.queue.start_paused = true;
  AlignService svc(opt);

  std::vector<std::future<core::ErrorOr<AlignResponse>>> ok;
  for (int i = 0; i < 3; ++i)
    ok.push_back(submit_future(svc, pairwise_request(10 + i)));
  EXPECT_EQ(svc.queue_depth(), 3u);

  auto rejected = submit_future(svc, pairwise_request(50));
  EXPECT_EQ(failure_code(rejected), Code::QueueFull);

  svc.resume();
  for (auto& f : ok) EXPECT_TRUE(f.get().ok());

  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.rejected_queue_full, 1u);
  EXPECT_EQ(m.submitted, 3u);
  EXPECT_EQ(m.completed, 3u);
}

TEST(AlignService, DeadlineExpiresInQueue) {
  ServiceOptions opt;
  opt.queue.start_paused = true;
  AlignService svc(opt);

  AlignRequest rq = pairwise_request(7);
  rq.options.deadline = milliseconds(1);
  auto fut = submit_future(svc, std::move(rq));
  std::this_thread::sleep_for(milliseconds(20));
  svc.resume();

  EXPECT_EQ(failure_code(fut), Code::DeadlineExceeded);
  EXPECT_EQ(svc.metrics().deadline_expired, 1u);
}

TEST(AlignService, DeadlineExpiresMidSearch) {
  auto db = make_db(400'000);
  ServiceOptions opt;
  opt.pool_threads = 1;
  AlignService svc(db, opt);

  SearchRequest rq;
  rq.query = seq::generate_sequence(90, 200);
  // Long enough to enter execution, far too short to scan 400k residues:
  // the engine notices between sequences and reports truncation.
  rq.options.deadline = milliseconds(1);
  auto fut = submit_future(svc, std::move(rq));
  EXPECT_EQ(failure_code(fut), Code::DeadlineExceeded);
  EXPECT_EQ(svc.metrics().deadline_expired, 1u);
  EXPECT_EQ(svc.metrics().completed, 0u);
}

TEST(AlignService, SearchMatchesDatabaseSearchForEveryThreadCount) {
  auto db = make_db(120'000);
  auto q = seq::generate_sequence(90, 150);

  // The facade, the diagonal engine and the service (in either wire mode)
  // return the same hits.
  align::ExecContext none;
  const align::SearchResult diagonal = align::engine::search_diagonal(
      db, align::AlignConfig{}, q, 10, none);
  for (unsigned threads : {1u, 2u, 3u}) {
    for (align::SearchMode mode :
         {align::SearchMode::Diagonal, align::SearchMode::Batch}) {
      parallel::ThreadPool pool(threads);
      align::DatabaseSearch direct(db, align::AlignConfig{});
      align::SearchResult want = direct.search(q, 10, &pool);
      ASSERT_EQ(want.hits.size(), diagonal.hits.size());
      for (size_t k = 0; k < want.hits.size(); ++k) {
        EXPECT_EQ(want.hits[k].seq_index, diagonal.hits[k].seq_index) << k;
        EXPECT_EQ(want.hits[k].score, diagonal.hits[k].score) << k;
        EXPECT_EQ(want.hits[k].end_query, diagonal.hits[k].end_query) << k;
        EXPECT_EQ(want.hits[k].end_ref, diagonal.hits[k].end_ref) << k;
      }

      ServiceOptions opt;
      opt.pool_threads = threads;
      AlignService svc(db, opt);
      SearchRequest rq;
      rq.query = q;
      rq.mode = mode;
      rq.options.top_k = 10;
      SearchResponse got = get_ok(submit_future(svc, std::move(rq)));
      EXPECT_EQ(got.result.batch_stats.cells8, want.batch_stats.cells8);

      ASSERT_EQ(got.result.hits.size(), want.hits.size())
          << threads << " threads, mode " << static_cast<int>(mode);
      for (size_t k = 0; k < want.hits.size(); ++k) {
        EXPECT_EQ(got.result.hits[k].seq_index, want.hits[k].seq_index) << k;
        EXPECT_EQ(got.result.hits[k].score, want.hits[k].score) << k;
        EXPECT_EQ(got.result.hits[k].end_query, want.hits[k].end_query) << k;
        EXPECT_EQ(got.result.hits[k].end_ref, want.hits[k].end_ref) << k;
      }
      EXPECT_FALSE(got.result.truncated);
      EXPECT_EQ(got.trace.scenario, Scenario::Search);
    }
  }
}

TEST(AlignService, BatchMatchesPerQuerySearchForEveryThreadCount) {
  // A batch is one scan of all its queries; each query's result is the
  // search of that query alone, without its end cells.
  auto db = make_db(100'000);
  std::vector<seq::Sequence> queries = seq::make_query_ladder(33, 6, 60, 300);

  for (unsigned threads : {1u, 3u}) {
    for (int shards : {1, 2}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, " << shards << " shards");
      ServiceOptions opt;
      opt.pool_threads = threads;
      opt.search.shards = shards;
      AlignService svc(db, opt);
      BatchRequest rq;
      rq.queries = queries;
      rq.options.top_k = 5;
      BatchResponse got = get_ok(submit_future(svc, std::move(rq)));
      EXPECT_EQ(got.trace.scenario, Scenario::Batch);
      ASSERT_EQ(got.results.size(), queries.size());

      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SearchRequest srq;
        srq.query = queries[qi];
        srq.options.top_k = 5;
        const align::SearchResult want =
            get_ok(submit_future(svc, std::move(srq))).result;
        const align::SearchResult& res = got.results[qi];
        ASSERT_EQ(res.hits.size(), want.hits.size()) << qi;
        for (size_t k = 0; k < want.hits.size(); ++k) {
          EXPECT_EQ(res.hits[k].seq_index, want.hits[k].seq_index) << qi;
          EXPECT_EQ(res.hits[k].score, want.hits[k].score) << qi;
          EXPECT_EQ(res.hits[k].end_query, -1) << qi;
          EXPECT_EQ(res.hits[k].end_ref, -1) << qi;
        }
        EXPECT_EQ(res.batch_stats.cells8, want.batch_stats.cells8) << qi;
        EXPECT_EQ(res.batch_stats.useful_cells8,
                  want.batch_stats.useful_cells8) << qi;
        EXPECT_EQ(res.batch_stats.rescored, want.batch_stats.rescored) << qi;
        EXPECT_EQ(res.batch_stats.rescored_cells,
                  want.batch_stats.rescored_cells) << qi;
        EXPECT_FALSE(res.truncated);
      }
    }
  }
}

TEST(AlignService, BadConfigFailsFutureNotThrow) {
  AlignService svc;
  AlignRequest rq = pairwise_request(3);
  core::AlignConfig bad;
  bad.gap_open = 1;
  bad.gap_extend = 5;  // affine open < extend
  rq.options.config = bad;
  std::future<core::ErrorOr<AlignResponse>> fut;
  EXPECT_NO_THROW(fut = submit_future(svc, std::move(rq)));
  EXPECT_EQ(failure_code(fut), Code::OpenLessThanExtend);
  EXPECT_EQ(svc.metrics().invalid_request, 1u);
}

TEST(AlignService, SearchWithoutDatabaseFails) {
  AlignService svc;
  SearchRequest rq;
  rq.query = seq::generate_sequence(4, 50);
  auto fut = submit_future(svc, std::move(rq));
  EXPECT_EQ(failure_code(fut), Code::NoDatabase);
}

TEST(AlignService, MatrixWithoutRowsForTheResiduesIsRejected) {
  // The DNA matrix has rows for 16 codes; protein residues use 24. Every
  // request kind fails with a typed error before any kernel runs, and the
  // service keeps serving.
  auto db = make_db(20'000);  // protein
  ServiceOptions opt;
  opt.pool_threads = 2;
  AlignService svc(db, opt);
  core::AlignConfig dna;
  dna.matrix = &matrix::ScoreMatrix::dna_iupac();

  AlignRequest pair = pairwise_request(94);
  pair.options.config = dna;
  auto pf = submit_future(svc, std::move(pair));
  EXPECT_EQ(failure_code(pf), Code::Unsupported);

  // A DNA query: the protein database is what the matrix cannot score.
  SearchRequest rq;
  rq.query = seq::generate_sequence(95, 60, seq::AlphabetKind::Dna);
  rq.options.config = dna;
  auto f = submit_future(svc, std::move(rq));
  EXPECT_EQ(failure_code(f), Code::Unsupported);
  BatchRequest batch;
  batch.queries.push_back(seq::generate_sequence(96, 60, seq::AlphabetKind::Dna));
  batch.options.config = dna;
  auto bf = submit_future(svc, std::move(batch));
  EXPECT_EQ(failure_code(bf), Code::Unsupported);

  AlignRequest ok;
  ok.query = seq::generate_sequence(97, 60, seq::AlphabetKind::Dna);
  ok.reference = seq::generate_sequence(98, 80, seq::AlphabetKind::Dna);
  ok.options.config = dna;
  EXPECT_GT(get_ok(submit_future(svc, std::move(ok))).alignment.score, 0);
  SearchRequest protein;
  protein.query = seq::generate_sequence(99, 60);
  EXPECT_FALSE(get_ok(submit_future(svc, std::move(protein))).result.hits.empty());
}

TEST(AlignService, TracebackOverTheCellCapIsRejectedBeforeItRuns) {
  // A 20x20 pair with traceback under a 100-cell cap: Unsupported, counted
  // once as invalid, never run or queued. Inline (caller-runs) first, then
  // on a paused service, where it would otherwise wait in the queue.
  core::AlignConfig capped;
  capped.max_traceback_cells = 100;
  for (bool paused : {false, true}) {
    ServiceOptions opt;
    opt.queue.start_paused = paused;
    AlignService svc(opt);
    AlignRequest rq = pairwise_request(60, 20, 20);
    rq.options.config = capped;
    rq.options.traceback = true;
    auto f = submit_future(svc, std::move(rq));
    EXPECT_EQ(failure_code(f), Code::Unsupported) << paused;
    EXPECT_EQ(svc.queue_depth(), 0u) << paused;
    perf::MetricsSnapshot m = svc.metrics();
    EXPECT_EQ(m.invalid_request, 1u) << paused;
    EXPECT_EQ(m.submitted, 0u) << paused;

    AlignRequest scores_only = pairwise_request(60, 20, 20);
    scores_only.options.config = capped;
    auto ok = submit_future(svc, std::move(scores_only));
    if (paused) svc.resume();
    EXPECT_TRUE(ok.get().ok()) << paused;
    EXPECT_EQ(svc.metrics().invalid_request, 1u) << paused;

    // An invalid config still reports its own error first.
    AlignRequest bad = pairwise_request(60, 20, 20);
    core::AlignConfig bad_cfg = capped;
    bad_cfg.gap_open = 1;
    bad_cfg.gap_extend = 5;
    bad.options.config = bad_cfg;
    bad.options.traceback = true;
    auto bad_f = submit_future(svc, std::move(bad));
    EXPECT_EQ(failure_code(bad_f), Code::OpenLessThanExtend) << paused;
    EXPECT_EQ(svc.metrics().invalid_request, 2u) << paused;
  }
}

TEST(AlignService, DiagonalSearchCountsEachSweepsCells) {
  // pair_align picks the sweep by the query: in the diagonal engine, one of
  // 60 residues runs the column sweep (where the host has AVX-512 VBMI)
  // against every target, whatever its length, and one longer than
  // core::kColumnSweepMaxQuery the diagonal kernel.
  auto db = make_db(60'000);
  auto engine = [&](uint32_t length) {
    return align::engine::search_diagonal(
               db, core::AlignConfig{}, seq::generate_sequence(91, length), 10,
               align::ExecContext{})
        .stats;
  };
  const core::KernelStats short_q = engine(60);
  const core::KernelStats long_q =
      engine(static_cast<uint32_t>(core::kColumnSweepMaxQuery) + 40);
  uint64_t residues = 0;
  for (size_t s = 0; s < db.size(); ++s) residues += db[s].length();
  const bool column =
      simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi;
  EXPECT_EQ(short_q.column_cells, column ? 60 * residues : 0u);
  EXPECT_EQ(long_q.column_cells, 0u);
  EXPECT_GT(long_q.cells, 0u);

  // The service counts each kernel's cells under its own target: a banded
  // search runs the diagonal engine (the column sweep cannot band either),
  // an unbanded one the batch scan.
  ServiceOptions opt;
  opt.pool_threads = 2;
  AlignService svc(db, opt);
  auto search = [&](int band) {
    SearchRequest rq;
    rq.query = seq::generate_sequence(91, 60);
    core::AlignConfig cfg;
    cfg.band = band;
    rq.options.config = cfg;
    return get_ok(submit_future(svc, std::move(rq))).result.stats;
  };
  const core::KernelStats banded = search(16);
  const core::KernelStats unbanded = search(-1);
  EXPECT_EQ(banded.column_cells, 0u);
  EXPECT_GT(banded.cells, 0u);
  EXPECT_GE(unbanded.cells, 60 * residues);

  const perf::MetricsSnapshot m = svc.metrics();
  std::array<uint64_t, perf::MetricsSnapshot::kKernelVariants> cells{},
      reqs{};
  for (size_t i = 0; i < m.target_cells.size(); ++i)
    for (size_t k = 0; k < cells.size(); ++k) {
      cells[k] += m.target_cells[i][k];
      reqs[k] += m.target_requests[i][k];
    }
  const auto at = [](perf::KernelVariant v) { return static_cast<size_t>(v); };
  EXPECT_EQ(cells[at(perf::KernelVariant::Column)], 0u);
  EXPECT_EQ(cells[at(perf::KernelVariant::Diagonal)], banded.cells);
  EXPECT_EQ(cells[at(perf::KernelVariant::Batch32)], unbanded.cells);
  EXPECT_EQ(reqs[at(perf::KernelVariant::Column)], 0u);
  EXPECT_EQ(reqs[at(perf::KernelVariant::Diagonal)], 1u);
  EXPECT_EQ(reqs[at(perf::KernelVariant::Batch32)], 1u);
}

TEST(AlignService, ShutdownFailsQueuedRequests) {
  std::future<core::ErrorOr<AlignResponse>> fut;
  {
    ServiceOptions opt;
    opt.queue.start_paused = true;
    AlignService svc(opt);
    fut = submit_future(svc, pairwise_request(8));
  }  // destructor: queued request aborted
  EXPECT_EQ(failure_code(fut), Code::ShuttingDown);
}

TEST(AlignService, MetricsSnapshotAndDump) {
  auto db = make_db(60'000);
  ServiceOptions opt;
  opt.pool_threads = 2;
  AlignService svc(db, opt);

  for (int i = 0; i < 4; ++i) get_ok(submit_future(svc, pairwise_request(200 + i)));
  SearchRequest srq;
  srq.query = seq::generate_sequence(90, 100);
  get_ok(submit_future(svc, std::move(srq)));

  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.submitted, 5u);
  EXPECT_EQ(m.completed, 5u);
  EXPECT_EQ(m.pairwise, 4u);
  EXPECT_EQ(m.search, 1u);
  EXPECT_GT(m.cells, 0u);
  EXPECT_GT(m.aggregate_gcups(), 0.0);
  EXPECT_EQ(m.queue_wait.count, 5u);
  EXPECT_EQ(m.kernel_time.count, 5u);
  std::string dump = obs::render_metrics(m, obs::MetricsFormat::Text);
  EXPECT_NE(dump.find("swve_requests_completed_total{scenario=\"pairwise\"} 4\n"
                      "swve_requests_completed_total{scenario=\"search\"} 1\n"
                      "swve_requests_completed_total{scenario=\"batch\"} 0\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("swve_gcups_aggregate "), std::string::npos) << dump;
  // The process-memory gauges ride along wherever the platform reports them.
  if (perf::read_process_memory().resident_bytes != 0) {
    EXPECT_GT(m.process_resident_bytes, 0u);
    EXPECT_GE(m.process_peak_resident_bytes, m.process_resident_bytes);
    EXPECT_NE(dump.find("swve_process_peak_resident_bytes "), std::string::npos);
  }
}

TEST(AlignService, DeliveryOverridePinsTracePath) {
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  core::AlignConfig fill;
  fill.delivery = core::ScoreDelivery::Fill;
  EXPECT_EQ(core::delivery_for(fill, isa, core::Width::Adaptive),
            core::ScoreDelivery::Fill);

  AlignService svc;
  AlignRequest rq = pairwise_request(91);
  rq.options.config = fill;
  seq::Sequence q = rq.query, r = rq.reference;
  AlignResponse resp = get_ok(submit_future(svc, std::move(rq)));
  EXPECT_EQ(resp.trace.delivery, core::ScoreDelivery::Fill);

  // Pinning must not change results: Fill and Gather are different roads to
  // the same scores.
  align::AlignConfig cfg;
  cfg.delivery = core::ScoreDelivery::Gather;
  align::Aligner gather(cfg);
  EXPECT_EQ(resp.alignment.score, gather.align(q, r).score);
}

TEST(AlignService, PinnedShuffleOnAvx2ReportsThePathThatRan) {
  if (!simd::isa_available(simd::Isa::Avx2)) GTEST_SKIP() << "needs AVX2";
  // AVX2 has no Shuffle kernel: a pinned Shuffle runs the AVX2 rule's
  // choice (Gather, or Fill where gathers are slow), and the trace must say
  // so instead of echoing the pin.
  const core::ScoreDelivery rule = simd::cpu_features().slow_gathers
                                       ? core::ScoreDelivery::Fill
                                       : core::ScoreDelivery::Gather;
  AlignService svc;
  core::AlignConfig cfg;
  cfg.isa = simd::Isa::Avx2;
  cfg.delivery = core::ScoreDelivery::Shuffle;
  AlignRequest rq = pairwise_request(92);
  rq.options.config = cfg;
  AlignResponse resp = get_ok(submit_future(svc, std::move(rq)));
  EXPECT_EQ(resp.trace.isa, simd::Isa::Avx2);
  EXPECT_EQ(resp.trace.delivery, rule);
  EXPECT_EQ(resp.trace.delivery,
            core::delivery_for(cfg, simd::Isa::Avx2, resp.alignment.width_used));
}

TEST(AlignService, ConcurrentRequestsKeepTheirOwnDeliveryPin) {
  // Delivery is a per-request value, so requests pinned to different paths
  // can run side by side in one service: each trace reports its own path,
  // and every path gives the same score.
  const simd::Isa isa = simd::resolve_isa(simd::Isa::Auto);
  std::vector<core::ScoreDelivery> pins = {core::ScoreDelivery::Fill,
                                           core::ScoreDelivery::Gather};
  core::AlignConfig shuffle;
  shuffle.delivery = core::ScoreDelivery::Shuffle;
  if (core::delivery_for(shuffle, isa, core::Width::Adaptive) ==
      core::ScoreDelivery::Shuffle)
    pins.push_back(core::ScoreDelivery::Shuffle);

  ServiceOptions opt;
  opt.queue.executors = 2;
  AlignService svc(opt);
  constexpr int kRounds = 8;
  std::vector<std::vector<AlignResponse>> got(pins.size());
  std::vector<std::thread> clients;
  for (size_t p = 0; p < pins.size(); ++p)
    clients.emplace_back([&, p] {
      for (int i = 0; i < kRounds; ++i) {
        // Above the inline-pair limit, so requests also meet on executors.
        AlignRequest rq = pairwise_request(300 + static_cast<uint64_t>(i), 300, 400);
        core::AlignConfig cfg;
        cfg.delivery = pins[p];
        rq.options.config = cfg;
        got[p].push_back(get_ok(submit_future(svc, std::move(rq))));
      }
    });
  for (auto& t : clients) t.join();

  for (size_t p = 0; p < pins.size(); ++p) {
    ASSERT_EQ(got[p].size(), static_cast<size_t>(kRounds));
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(got[p][i].trace.delivery, pins[p]) << "pin " << p << " round " << i;
      EXPECT_EQ(got[p][i].alignment.score, got[0][i].alignment.score)
          << "pin " << p << " round " << i;
    }
  }
}

TEST(AlignConfigTryValidate, ReturnsMachineReadableCodes) {
  core::AlignConfig ok;
  EXPECT_TRUE(ok.try_validate().ok());

  core::AlignConfig bad = ok;
  bad.matrix = nullptr;
  EXPECT_EQ(bad.try_validate().error().code, Code::MissingMatrix);

  bad = ok;
  bad.gap_extend = -1;
  EXPECT_EQ(bad.try_validate().error().code, Code::NegativeGapPenalty);

  bad = ok;
  bad.scheme = core::ScoreScheme::Fixed;
  bad.match = -5;
  bad.mismatch = 0;
  EXPECT_EQ(bad.try_validate().error().code, Code::MatchLessThanMismatch);
  EXPECT_STREQ(core::ConfigError::code_name(Code::QueueFull), "queue_full");
}

TEST(AlignService, TraceSinkCapturesRequestSpans) {
  auto db = make_db(60'000);
  obs::TraceSink sink;
  ServiceOptions opt;
  opt.pool_threads = 2;
  opt.obs.trace_sink = &sink;
  AlignService svc(db, opt);

  AlignResponse presp = get_ok(submit_future(svc, pairwise_request(300)));
  // A banded search runs the diagonal engine, an unbanded one the batch
  // scan.
  SearchRequest srq;
  srq.query = seq::generate_sequence(90, 120);
  core::AlignConfig banded;
  banded.band = 32;
  srq.options.config = banded;
  SearchResponse sresp = get_ok(submit_future(svc, std::move(srq)));
  SearchRequest brq;
  brq.query = seq::generate_sequence(91, 120);
  SearchResponse bresp = get_ok(submit_future(svc, std::move(brq)));

  EXPECT_NE(presp.trace.trace_id, sresp.trace.trace_id);
  EXPECT_GT(presp.trace.trace_id, 0u);

  auto events = sink.snapshot_events();
  auto count = [&](const char* name, uint64_t trace_id) {
    size_t n = 0;
    for (const auto& e : events)
      if (std::string(e.name) == name && e.trace_id == trace_id) ++n;
    return n;
  };
  // Every request recorded exactly one queue-wait and one dispatch span.
  EXPECT_EQ(count("queue_wait", presp.trace.trace_id), 1u);
  EXPECT_EQ(count("dispatch.pairwise", presp.trace.trace_id), 1u);
  EXPECT_EQ(count("chunk.pairwise", presp.trace.trace_id), 1u);
  EXPECT_EQ(count("dispatch.search", sresp.trace.trace_id), 1u);
  EXPECT_GE(count("chunk.search_diagonal", sresp.trace.trace_id), 1u);
  EXPECT_GE(count("chunk.search_batch", bresp.trace.trace_id), 1u);

  // Chunk spans carry kernel annotations: ISA and DP cells.
  uint64_t chunk_cells = 0;
  for (const auto& e : events) {
    if (std::string(e.name) != "chunk.search_diagonal" ||
        e.trace_id != sresp.trace.trace_id)
      continue;
    chunk_cells += e.cells;
    EXPECT_NE(e.isa, simd::Isa::Auto);
    EXPECT_EQ(e.trunc, obs::TruncCause::None);
  }
  EXPECT_EQ(chunk_cells, sresp.result.stats.cells);

  // The exported Chrome trace is loadable JSON with those spans.
  std::string json = sink.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"chunk.search_diagonal\""), std::string::npos);
  EXPECT_NE(json.find("\"isa\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\""), std::string::npos);
}

TEST(AlignService, InlinePairSpansShareOneClock) {
  // An inline pair reads the clock at submit, at the start of execution,
  // just before its kernel (chunk.pairwise's start) and at the end of its
  // kernel; its spans and its kernel time reuse those readings. Holds
  // whether PMU attribution has hardware counters or falls back to wall
  // time (SWVE_PMU=eperm/off).
  obs::TraceSink sink;
  ServiceOptions opt;
  opt.obs.trace_sink = &sink;
  opt.obs.pmu_attribution = true;
  AlignService svc(opt);
  std::optional<AlignResponse> resp;
  svc.submit_async(pairwise_request(500),
                   [&](core::ErrorOr<AlignResponse> out) {
                     ASSERT_TRUE(out.ok()) << out.error().message;
                     resp = std::move(out).value();
                   });
  ASSERT_TRUE(resp.has_value());  // ran inline, before submit_async returned
  const perf::MetricsSnapshot m = svc.metrics();
  ASSERT_EQ(m.inline_runs, 1u);

  std::optional<obs::TraceEvent> queue_wait, dispatch, chunk;
  for (const obs::TraceEvent& e : sink.snapshot_events()) {
    if (e.trace_id != resp->trace.trace_id) continue;
    const std::string name = e.name;
    if (name == "queue_wait") queue_wait = e;
    if (name == "dispatch.pairwise") dispatch = e;
    if (name == "chunk.pairwise") chunk = e;
  }
  ASSERT_TRUE(queue_wait && dispatch && chunk);
  EXPECT_EQ(queue_wait->ts_ns + queue_wait->dur_ns, dispatch->ts_ns);
  EXPECT_GE(chunk->ts_ns, dispatch->ts_ns);
  EXPECT_EQ(chunk->ts_ns + chunk->dur_ns, dispatch->ts_ns + dispatch->dur_ns);
  EXPECT_EQ(dispatch->dur_ns,
            static_cast<uint64_t>(std::llround(resp->trace.kernel_s * 1e9)));

  // The kernel span's attribution cell holds this one sample.
  const core::Alignment& a = resp->alignment;
  const perf::PmuSample& cell =
      m.pmu[static_cast<size_t>(a.isa_used)]
           [static_cast<size_t>(align::kernel_variant(a.sweep))]
           [perf::MetricsSnapshot::width_index(chunk->width_bits)];
  EXPECT_EQ(cell.samples, 1u);
  EXPECT_EQ(cell.wall_ns, chunk->dur_ns);
  EXPECT_EQ(m.pmu_total().samples, 1u);
}

TEST(AlignService, TraceMarksDeadlineTruncation) {
  // A 4000-aa query over 2M residues on one thread scans far longer than
  // any deadline tried, so a request dequeued in time is cut mid-scan. A
  // loaded host can only hold it in the queue past its deadline; the test
  // then doubles the deadline instead of racing the clock. It passes on the
  // engine's chunk span that opened before `before + deadline` (the
  // service's deadline is later still) and carries TruncCause::Deadline.
  // Cases: a banded search (the diagonal engine; the band still leaves
  // most of every pair's cells), an unbanded search (the batch scan), and
  // a batch of that one query.
  auto db = make_db(2'000'000);
  const seq::Sequence q = seq::generate_sequence(90, 4000);
  struct Case {
    const char* label;
    std::optional<int> band;  // search request's band; nullopt: BatchRequest
    const char* chunk;
  };
  for (const Case& c :
       {Case{"banded search", 2000, "chunk.search_diagonal"},
        Case{"search", -1, "chunk.search_batch"},
        Case{"batch", std::nullopt, "chunk.search_batch"}}) {
    obs::TraceSink sink;
    ServiceOptions opt;
    opt.pool_threads = 1;
    opt.obs.trace_sink = &sink;
    AlignService svc(db, opt);
    bool marked = false;
    uint64_t id = 100;
    for (milliseconds deadline{10}; !marked && deadline.count() <= 160;
         deadline *= 2) {
      RequestOptions ro;
      ro.deadline = deadline;
      ro.trace_id = ++id;
      const uint64_t expiry_ns = sink.now_ns() + 1'000'000 * deadline.count();
      std::optional<core::ConfigError> err;
      if (c.band) {
        core::AlignConfig cfg;
        cfg.band = *c.band;
        ro.config = cfg;
        SearchRequest rq;
        rq.query = q;
        rq.options = ro;
        const auto out = submit_future(svc, std::move(rq)).get();
        if (!out.ok()) err = out.error();
      } else {
        BatchRequest rq{{q}, ro};
        const auto out = submit_future(svc, std::move(rq)).get();
        if (!out.ok()) err = out.error();
      }
      ASSERT_TRUE(err.has_value()) << c.label << ": the scan beat the deadline";
      ASSERT_EQ(err->code, Code::DeadlineExceeded) << c.label;
      if (err->message.find("in queue") != std::string::npos) continue;
      for (const auto& e : sink.snapshot_events())
        marked = marked || (e.trace_id == id && e.ts_ns < expiry_ns &&
                            e.trunc == obs::TruncCause::Deadline &&
                            std::string(e.name) == c.chunk);
    }
    EXPECT_TRUE(marked) << c.label;
  }
}

TEST(AlignService, DumpMetricsFormats) {
  auto db = make_db(60'000);
  ServiceOptions opt;
  opt.pool_threads = 2;
  AlignService svc(db, opt);
  get_ok(submit_future(svc, pairwise_request(310)));
  SearchRequest srq;
  srq.query = seq::generate_sequence(92, 100);
  get_ok(submit_future(svc, std::move(srq)));

  std::string text = svc.dump_metrics(obs::MetricsFormat::Text);
  EXPECT_NE(text.find("swve_requests_submitted_total "), std::string::npos);
  EXPECT_NE(text.find("swve_gcups_window{window_s=\"60\"}"), std::string::npos);
  EXPECT_NE(text.find("swve_pool_threads 2\n"), std::string::npos);
  EXPECT_NE(text.find("swve_kernel_target_requests_total{"), std::string::npos);
  EXPECT_EQ(text.find("# "), std::string::npos);

  std::string prom = svc.dump_metrics(obs::MetricsFormat::Prometheus);
  EXPECT_NE(prom.find("swve_requests_completed_total{scenario=\"pairwise\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("swve_gcups_window{window_s=\"60\"}"), std::string::npos);
  EXPECT_NE(prom.find("swve_kernel_target_requests_total{isa="),
            std::string::npos);
  EXPECT_NE(prom.find("swve_queue_wait_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);

  std::string json = svc.dump_metrics(obs::MetricsFormat::Json);
  EXPECT_NE(json.find("\"requests_submitted_total\""), std::string::npos);
  EXPECT_NE(json.find("\"gcups_window\""), std::string::npos);
  EXPECT_NE(json.find("\"kernel_target_requests_total\""), std::string::npos);

  // Pool utilization accounting: the search fanned out over the pool.
  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.pool_threads, 2u);
  EXPECT_GT(m.pool_jobs, 0u);
  EXPECT_GT(m.window_cells, 0u);
  EXPECT_GT(m.window_gcups(), 0.0);
  for (int i = 0; i < perf::MetricsSnapshot::kIsas; ++i) {
    // The pairwise and search requests were attributed to exactly one
    // diagonal-target ISA each (they resolve to the same ISA here).
    if (m.target_requests[i][0] > 0) {
      EXPECT_GT(m.target_cells[i][0], 0u);
    }
  }
}

TEST(AlignService, SamplerCollectsTimeSeries) {
  // The sampler tick carries its frequency probe into the one telemetry
  // history, under the "freq" series.
  ServiceOptions opt;
  opt.serve.telemetry_cadence_s = 0.02;
  AlignService svc(opt);
  get_ok(submit_future(svc, pairwise_request(320)));
  std::this_thread::sleep_for(milliseconds(120));

  ASSERT_NE(svc.timeseries(), nullptr);
  const std::vector<obs::TimeSeriesPoint> points = svc.timeseries()->points();
  ASSERT_GE(points.size(), 1u);
  bool probed = false;
  for (const obs::TimeSeriesPoint& p : points)
    probed = probed || p.probe_ghz > 0.1;
  EXPECT_TRUE(probed);
  const std::string json = svc.timeseries()->json("freq");
  EXPECT_NE(json.find("\"probe_ghz\""), std::string::npos) << json;
}

TEST(AlignService, TopdownSamplingAttachesBreakdown) {
  ServiceOptions opt;
  opt.obs.topdown_every_n = 1;  // every request
  AlignService svc(opt);
  AlignResponse resp =
      get_ok(submit_future(svc, pairwise_request(330, 200, 300)));
  ASSERT_TRUE(resp.trace.topdown.has_value());
  const perf::TopDownResult& td = *resp.trace.topdown;
  EXPECT_FALSE(td.source.empty());
  EXPECT_GE(td.retiring, 0.0);
  EXPECT_LE(td.retiring + td.frontend_bound + td.bad_speculation +
                td.backend_bound,
            1.0 + 1e-6);

  // Disabled sampling attaches nothing.
  AlignService plain;
  EXPECT_FALSE(get_ok(submit_future(plain, pairwise_request(331)))
                   .trace.topdown.has_value());
}

TEST(AlignService, BlockingOverflowEventuallyAccepts) {
  ServiceOptions opt;
  opt.queue.capacity = 1;
  opt.queue.overflow = QueueOptions::Overflow::Block;
  AlignService svc(opt);

  // With Block, every submit succeeds (the submitter stalls instead of
  // being rejected); all futures must complete.
  std::vector<std::future<core::ErrorOr<AlignResponse>>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(submit_future(svc, pairwise_request(i)));
  for (auto& f : futs) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(svc.metrics().rejected_queue_full, 0u);
  EXPECT_EQ(svc.metrics().completed, 6u);
}


// ------------------------------------------------------------- caller-runs

TEST(AlignService, SmallPairwiseRunsInlineOnIdleService) {
  AlignService svc;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  bool done = false;
  svc.submit_async(pairwise_request(400),
                   [&](core::ErrorOr<AlignResponse> out) {
                     ASSERT_TRUE(out.ok());
                     ran_on = std::this_thread::get_id();
                     done = true;
                   });
  // Completed before submit_async returned, on this thread.
  EXPECT_TRUE(done);
  EXPECT_EQ(ran_on, caller);
  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.inline_runs, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.pairwise, 1u);
}

TEST(AlignService, InlineNeverOvertakesTheBusyExecutor) {
  // Hold the single executor on a large request A inside the hook, then
  // submit a small B from this thread: B must queue behind A.
  std::latch entered(1), release(1);
  std::atomic<int> hooks{0};
  ServiceOptions opt;
  opt.queue.executors = 1;
  opt.before_execute_hook = [&] {
    if (hooks.fetch_add(1) == 0) {
      entered.count_down();
      release.wait();
    }
  };
  AlignService svc(opt);

  auto a = submit_future(svc, pairwise_request(410, 300, 300));
  static_assert(300 * 300 > AlignService::kInlineMaxCells);
  entered.wait();
  auto b = submit_future(svc, pairwise_request(411));
  EXPECT_EQ(svc.queue_depth(), 1u);
  EXPECT_EQ(b.wait_for(milliseconds(0)), std::future_status::timeout);
  release.count_down();

  const AlignResponse ra = get_ok(std::move(a));
  const AlignResponse rb = get_ok(std::move(b));
  EXPECT_EQ(rb.trace.exec_sequence, ra.trace.exec_sequence + 1);
  EXPECT_EQ(svc.metrics().inline_runs, 0u);
}

TEST(AlignService, PausedServiceQueuesSmallPairwiseInTierOrder) {
  ServiceOptions opt;
  opt.queue.executors = 1;
  opt.queue.start_paused = true;
  AlignService svc(opt);

  AlignRequest low = pairwise_request(420);
  low.options.tier = QosTier::Bulk;
  auto fl = submit_future(svc, std::move(low));
  EXPECT_EQ(svc.queue_depth(), 1u);
  // Paused and something queued: an urgent request queues too, and still
  // runs first once the executor drains.
  AlignRequest urgent = pairwise_request(421);
  urgent.options.tier = QosTier::Interactive;
  auto fu = submit_future(svc, std::move(urgent));
  EXPECT_EQ(svc.queue_depth(), 2u);
  EXPECT_EQ(svc.metrics().inline_runs, 0u);

  svc.resume();
  const AlignResponse rl = get_ok(std::move(fl));
  const AlignResponse ru = get_ok(std::move(fu));
  EXPECT_LT(ru.trace.exec_sequence, rl.trace.exec_sequence);
  EXPECT_EQ(svc.metrics().inline_runs, 0u);
}

TEST(AlignService, PairwiseAboveInlineCellsAlwaysQueues) {
  AlignService svc;
  const std::thread::id caller = std::this_thread::get_id();
  // One cell over the limit, on an otherwise idle service.
  static_assert(257 * 256 == AlignService::kInlineMaxCells + 256);
  for (int i = 0; i < 3; ++i) {
    std::promise<std::thread::id> ran_on;
    auto fut = ran_on.get_future();
    svc.submit_async(pairwise_request(430 + i, 257, 256),
                     [&](core::ErrorOr<AlignResponse> out) {
                       EXPECT_TRUE(out.ok());
                       ran_on.set_value(std::this_thread::get_id());
                     });
    EXPECT_NE(fut.get(), caller);
  }
  EXPECT_EQ(svc.metrics().inline_runs, 0u);
  EXPECT_EQ(svc.metrics().completed, 3u);
}

TEST(AlignService, InlineRunsFailWithTypedErrors) {
  AlignService svc;
  const auto code_of = [&](AlignRequest rq) {
    Code code = Code::Ok;
    bool done = false;
    svc.submit_async(std::move(rq), [&](core::ErrorOr<AlignResponse> out) {
      code = out.ok() ? Code::Ok : out.error().code;
      done = true;
    });
    EXPECT_TRUE(done);  // ran inline
    return code;
  };

  AlignRequest expired = pairwise_request(440);
  expired.options.deadline = milliseconds(0);
  EXPECT_EQ(code_of(std::move(expired)), Code::DeadlineExceeded);

  AlignRequest bad = pairwise_request(441);
  core::AlignConfig cfg;
  cfg.gap_open = 1;
  cfg.gap_extend = 5;
  bad.options.config = cfg;
  const Code bad_code = code_of(std::move(bad));
  EXPECT_EQ(to_status(bad_code), ServiceStatus::InvalidConfig);

  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.inline_runs, 2u);
  EXPECT_EQ(m.deadline_expired, 1u);
  EXPECT_EQ(m.invalid_request, 1u);
  EXPECT_EQ(m.completed, 0u);
}

TEST(AlignService, ConcurrentSmallPairsBesideBatchSearches) {
  // 8 submitters of small pairs race inline runs, queued runs and Batch
  // searches holding the executors: every completion fires exactly once
  // and matches the golden scalar model.
  constexpr int kThreads = 8, kPerThread = 500, kPairs = kThreads * kPerThread;
  auto db = make_db(60'000);
  std::vector<AlignRequest> pairs;
  std::vector<core::Alignment> want;
  for (int i = 0; i < kPairs; ++i) {
    pairs.push_back(pairwise_request(1000 + 2 * i, 20 + i % 90, 30 + i % 70));
    want.push_back(
        core::ref_align(pairs.back().query, pairs.back().reference, {}));
  }

  ServiceOptions opt;
  opt.pool_threads = 2;
  opt.queue.executors = 2;
  opt.queue.overflow = QueueOptions::Overflow::Block;  // queued, never rejected
  AlignService svc(db, opt);

  std::vector<std::atomic<int>> fired(kPairs);
  std::vector<core::Alignment> got(kPairs);
  std::latch all_done(kPairs);
  std::atomic<bool> stop{false};
  std::thread searcher([&] {
    for (uint64_t s = 0; !stop.load(); ++s) {
      SearchRequest rq;
      rq.query = seq::generate_sequence(500 + s, 120);
      EXPECT_TRUE(submit_future(svc, std::move(rq)).get().ok());
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = t; i < kPairs; i += kThreads)
        svc.submit_async(pairs[i], [&, i](core::ErrorOr<AlignResponse> out) {
          EXPECT_TRUE(out.ok()) << i << ": " << out.error().message;
          if (out.ok()) got[i] = std::move(out->alignment);
          fired[i].fetch_add(1);
          all_done.count_down();
        });
    });
  }
  for (auto& t : submitters) t.join();
  all_done.wait();
  stop.store(true);
  searcher.join();

  for (int i = 0; i < kPairs; ++i) {
    ASSERT_EQ(fired[i].load(), 1) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
    EXPECT_EQ(got[i].end_query, want[i].end_query) << i;
    EXPECT_EQ(got[i].end_ref, want[i].end_ref) << i;
  }
  perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.pairwise, static_cast<uint64_t>(kPairs));
  EXPECT_LE(m.inline_runs, static_cast<uint64_t>(kPairs));
  EXPECT_EQ(m.submitted, m.completed);
}

TEST(AlignService, ConcurrentInlinePairsCountExactly) {
  // N submitters x M small pairs on an otherwise idle service: every
  // request is counted exactly once in every family, however the pairs
  // split between inline runs and the executor.
  constexpr int kThreads = 4, kPerThread = 300;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  obs::TraceSink sink(1024);
  ServiceOptions opt;
  opt.obs.trace_sink = &sink;
  AlignService svc(opt);

  std::atomic<uint64_t> queued{0}, fired{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      const std::thread::id me = std::this_thread::get_id();
      std::latch left(kPerThread);
      for (int i = 0; i < kPerThread; ++i)
        svc.submit_async(pairwise_request(2000 + 2 * (t * kPerThread + i),
                                          20 + i % 90, 30 + i % 70),
                         [&](core::ErrorOr<AlignResponse> out) {
                           EXPECT_TRUE(out.ok());
                           if (std::this_thread::get_id() != me)
                             queued.fetch_add(1);
                           fired.fetch_add(1);
                           left.count_down();
                         });
      left.wait();
    });
  }
  for (auto& t : submitters) t.join();

  EXPECT_EQ(fired.load(), kTotal);
  const perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.submitted, kTotal);
  EXPECT_EQ(m.completed, kTotal);
  EXPECT_EQ(m.pairwise, kTotal);
  EXPECT_EQ(m.inline_runs + queued.load(), kTotal);
  EXPECT_EQ(m.queue_wait.count, kTotal);
  EXPECT_EQ(m.kernel_time.count, kTotal);
  EXPECT_EQ(m.tier_latency[static_cast<int>(QosTier::Standard)].count, kTotal);
  EXPECT_EQ(m.pmu_total().samples, kTotal);
  // Queries of 20-109 residues against references of 30-99:
  // core::pair_align's column sweep where the host has AVX-512 VBMI, else
  // the diagonal kernel.
  const bool column =
      simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi;
  const auto kernel = static_cast<size_t>(column ? perf::KernelVariant::Column
                                                 : perf::KernelVariant::Diagonal);
  uint64_t targets = 0;
  for (const auto& isa : m.target_requests) targets += isa[kernel];
  EXPECT_EQ(targets, kTotal);
}

// ----------------------------------------------- lock-free inline admission

TEST(AlignService, PausedServiceWithAQueuedRequestQueuesSmallPairs) {
  ServiceOptions opt;
  opt.queue.executors = 1;
  opt.queue.start_paused = true;
  AlignService svc(opt);

  bool a_done = false, b_done = false;
  svc.submit_async(pairwise_request(450), [&](core::ErrorOr<AlignResponse>) {
    a_done = true;
  });
  EXPECT_FALSE(a_done);  // paused: queued, not run inline
  std::promise<uint64_t> b_seq;
  svc.submit_async(pairwise_request(451),
                   [&](core::ErrorOr<AlignResponse> out) {
                     b_done = true;
                     b_seq.set_value(out.ok() ? out->trace.exec_sequence : 0);
                   });
  EXPECT_FALSE(b_done);  // paused with a request queued
  EXPECT_EQ(svc.queue_depth(), 2u);

  svc.resume();
  EXPECT_EQ(b_seq.get_future().get(), 1u);  // after A, in order
  EXPECT_EQ(svc.metrics().inline_runs, 0u);
}

TEST(AlignService, SmallPairQueuesBehindAnExecutorHoldingABatchSearch) {
  auto db = make_db(20'000);
  std::latch entered(1), release(1);
  std::atomic<int> hooks{0};
  ServiceOptions opt;
  opt.pool_threads = 2;
  opt.queue.executors = 1;
  opt.before_execute_hook = [&] {
    if (hooks.fetch_add(1) == 0) {
      entered.count_down();
      release.wait();
    }
  };
  AlignService svc(db, opt);

  SearchRequest search;
  search.query = seq::generate_sequence(460, 120);
  auto fs = submit_future(svc, std::move(search));
  entered.wait();  // the executor now holds the Batch search
  bool done = false;
  std::promise<uint64_t> seq;
  svc.submit_async(pairwise_request(461),
                   [&](core::ErrorOr<AlignResponse> out) {
                     done = true;
                     seq.set_value(out.ok() ? out->trace.exec_sequence : 0);
                   });
  EXPECT_FALSE(done);
  EXPECT_EQ(svc.queue_depth(), 1u);
  release.count_down();

  const SearchResponse rs = get_ok(std::move(fs));
  EXPECT_EQ(seq.get_future().get(), rs.trace.exec_sequence + 1);
  EXPECT_EQ(svc.metrics().inline_runs, 0u);
}

TEST(AlignService, PauseFromAnotherThreadGatesInlineRuns) {
  ServiceOptions opt;
  opt.queue.executors = 1;
  opt.queue.overflow = QueueOptions::Overflow::Block;  // queued, never rejected
  AlignService svc(opt);
  const std::thread::id caller = std::this_thread::get_id();

  // Paused by another thread: a small pair queues until it resumes.
  std::thread([&] { svc.pause(); }).join();
  std::promise<std::thread::id> ran_on;
  svc.submit_async(pairwise_request(470),
                   [&](core::ErrorOr<AlignResponse> out) {
                     EXPECT_TRUE(out.ok());
                     ran_on.set_value(std::this_thread::get_id());
                   });
  EXPECT_EQ(svc.queue_depth(), 1u);
  std::thread([&] { svc.resume(); }).join();
  EXPECT_NE(ran_on.get_future().get(), caller);
  EXPECT_EQ(svc.metrics().inline_runs, 0u);

  // Pause and resume racing the submitter: each pair runs exactly once,
  // inline on this thread or on the executor, and every count matches.
  constexpr int kPairs = 400;
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      svc.pause();
      std::this_thread::yield();
      svc.resume();
    }
  });
  std::atomic<int> on_caller{0}, fired{0};
  std::latch left(kPairs);
  for (int i = 0; i < kPairs; ++i)
    svc.submit_async(pairwise_request(480 + 2 * i, 30 + i % 60, 40),
                     [&](core::ErrorOr<AlignResponse> out) {
                       EXPECT_TRUE(out.ok());
                       if (std::this_thread::get_id() == caller)
                         on_caller.fetch_add(1);
                       fired.fetch_add(1);
                       left.count_down();
                     });
  stop.store(true);
  toggler.join();
  svc.resume();
  left.wait();
  EXPECT_EQ(fired.load(), kPairs);
  const perf::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kPairs) + 1);
  EXPECT_EQ(m.submitted, m.completed);
  EXPECT_EQ(m.inline_runs, static_cast<uint64_t>(on_caller.load()));
}

}  // namespace
}  // namespace swve::service

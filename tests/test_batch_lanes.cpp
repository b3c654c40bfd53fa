// The batch lane rule: a database packed `lanes` wide can be scanned at a
// resolved ISA only when the lanes are 32 or that ISA's native width
// (core::batch_lanes_fit). Anything else would silently run the emulated
// 64-lane kernel, so the batch engines throw, a batch request gets a typed
// Unsupported before queueing, and a search (align::search_database's
// rule) runs the diagonal engine instead. The service tests use a 64-lane
// .swdb and a request pinned to isa = avx2, which mismatch on every host:
// avx2 drives 32 lanes, and a host without AVX2 resolves it to scalar,
// also 32.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "align/db_search.hpp"
#include "align/sharded_search.hpp"
#include "core/batch32.hpp"
#include "core/db_format.hpp"
#include "core/mapped_db.hpp"
#include "host_classes.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "seq/synthetic.hpp"
#include "service/align_service.hpp"
#include "simd/cpu.hpp"

namespace swve {
namespace {

using Code = core::ConfigError::Code;

seq::SequenceDatabase make_db() {
  seq::SyntheticConfig cfg;
  cfg.seed = 61;
  cfg.target_residues = 30'000;
  cfg.min_length = 20;
  cfg.max_length = 300;
  return seq::SequenceDatabase::synthetic(cfg);
}

core::AlignConfig avx2_config() {
  core::AlignConfig cfg;
  cfg.isa = simd::Isa::Avx2;
  return cfg;
}

/// A 64-lane .swdb of make_db(), opened; the file is removed on destruction.
struct Wide64Artifact {
  Wide64Artifact() {
    path = "/tmp/swve_lanes_test_" + std::to_string(::getpid()) + ".swdb";
    const seq::SequenceDatabase db = make_db();
    const core::Batch32Db packed(db, 64);
    auto written = core::write_swdb(db, packed, path);
    EXPECT_TRUE(written.ok()) << (written.ok() ? "" : written.error().message);
    auto opened = core::MappedDb::open(path);
    EXPECT_TRUE(opened.ok()) << (opened.ok() ? "" : opened.error().message);
    if (opened.ok()) mapped = std::move(opened).value();
  }
  ~Wide64Artifact() { std::remove(path.c_str()); }

  std::string path;
  std::unique_ptr<core::MappedDb> mapped;
};

template <class Response, class Request>
core::ErrorOr<Response> submit_wait(service::AlignService& svc, Request rq) {
  std::promise<core::ErrorOr<Response>> done;
  auto fut = done.get_future();
  svc.submit_async(std::move(rq), [&done](core::ErrorOr<Response> r) {
    done.set_value(std::move(r));
  });
  return fut.get();
}

service::BatchRequest mismatched_batch_request() {
  service::BatchRequest rq;
  rq.queries = {seq::generate_sequence(62, 80), seq::generate_sequence(63, 120)};
  rq.options.config = avx2_config();
  rq.options.top_k = 5;
  return rq;
}

service::SearchRequest search_request(align::SearchMode mode) {
  service::SearchRequest rq;
  rq.query = seq::generate_sequence(64, 100);
  rq.mode = mode;  // the wire byte: either value takes the same engine
  rq.options.config = avx2_config();
  rq.options.top_k = 5;
  return rq;
}

TEST(BatchLanes, FitRuleAcceptsNarrowOrNativeLanesOnly) {
  for (const simd::CpuFeatures& f :
       {host_classes::vbmi, host_classes::avx512, host_classes::avx2,
        host_classes::scalar, simd::cpu_features()})
    for (simd::Isa isa : {simd::Isa::Scalar, simd::Isa::Avx2, simd::Isa::Avx512}) {
      EXPECT_TRUE(core::batch_lanes_fit(32, isa, f)) << simd::isa_name(isa);
      EXPECT_EQ(core::batch_lanes_fit(64, isa, f),
                core::batch_lanes_for(isa, f) == 64)
          << simd::isa_name(isa);
    }
  EXPECT_EQ(core::batch_lanes_for(simd::Isa::Scalar), 32);
  EXPECT_EQ(core::batch_lanes_for(simd::Isa::Avx2), 32);
  EXPECT_FALSE(core::batch_lanes_fit(64, simd::resolve_isa(simd::Isa::Avx2)));
}

TEST(BatchLanes, OwningFacadesPackForTheirConfigIsa) {
  const seq::SequenceDatabase db = make_db();
  const core::AlignConfig avx2 = avx2_config();
  const int want = core::batch_lanes_for(simd::resolve_isa(avx2.isa));
  align::DatabaseSearch search(db, avx2);
  EXPECT_EQ(search.packed_db()->lanes(), want);

  const core::AlignConfig auto_cfg;
  align::DatabaseSearch auto_search(db, auto_cfg);
  EXPECT_EQ(auto_search.packed_db()->lanes(),
            core::batch_lanes_for(simd::resolve_isa(simd::Isa::Auto)));
}

TEST(BatchLanes, EnginesRejectLanesTheIsaCannotDrive) {
  const seq::SequenceDatabase db = make_db();
  const core::Batch32Db wide(db, 64);
  const core::AlignConfig cfg = avx2_config();
  const seq::Sequence q = seq::generate_sequence(65, 90);
  align::ExecContext ctx;

  core::Workspace ws;
  EXPECT_THROW(core::batch_scores(q, wide, db, cfg, ws), std::invalid_argument);
  // The facade's rule sends such a search to the diagonal engine.
  const align::SearchResult facade =
      align::DatabaseSearch(db, wide, cfg).search(q, 5);
  const align::SearchResult diagonal =
      align::engine::search_diagonal(db, cfg, q, 5, ctx);
  ASSERT_EQ(facade.hits.size(), diagonal.hits.size());
  for (size_t k = 0; k < diagonal.hits.size(); ++k) {
    EXPECT_EQ(facade.hits[k].seq_index, diagonal.hits[k].seq_index) << k;
    EXPECT_EQ(facade.hits[k].score, diagonal.hits[k].score) << k;
    EXPECT_EQ(facade.hits[k].end_query, diagonal.hits[k].end_query) << k;
    EXPECT_EQ(facade.hits[k].end_ref, diagonal.hits[k].end_ref) << k;
  }
  EXPECT_EQ(facade.batch_stats.cells8, 0u);

  // One shard, on a caller pool (no job reaches it) and inline.
  auto one = align::ShardedSearch::create(db, wide, align::ShardOptions{});
  ASSERT_TRUE(one.ok()) << one.error().message;
  parallel::ThreadPool pool(4);
  align::ExecContext pooled;
  pooled.pool = &pool;
  const seq::SeqView batch[] = {q, q};
  EXPECT_THROW((*one)->search(cfg, q, 5, pooled), std::invalid_argument);
  EXPECT_THROW((*one)->scan(cfg, batch, 5, pooled), std::invalid_argument);
  EXPECT_EQ(pool.stats().jobs, 0u);
  EXPECT_THROW((*one)->search(cfg, q, 5, ctx), std::invalid_argument);
  EXPECT_THROW((*one)->scan(cfg, batch, 5, ctx), std::invalid_argument);

  align::ShardOptions so;
  so.shards = 2;
  so.total_threads = 2;
  auto sharded = align::ShardedSearch::create(db, wide, so);
  ASSERT_TRUE(sharded.ok()) << sharded.error().message;
  EXPECT_THROW((*sharded)->search(cfg, q, 5, ctx), std::invalid_argument);
  EXPECT_THROW((*sharded)->scan(cfg, batch, 5, ctx), std::invalid_argument);
}

TEST(AlignServiceBatchLanes, BatchRequestWithMismatchedIsaIsUnsupported) {
  Wide64Artifact art;
  ASSERT_NE(art.mapped, nullptr);
  service::AlignService svc(*art.mapped);
  ASSERT_EQ(svc.batch_lanes(), 64);

  auto r = submit_wait<service::BatchResponse>(svc, mismatched_batch_request());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Code::Unsupported) << r.error().message;

  // The service keeps serving: the same ISA's search runs the diagonal
  // engine, which reads no packed lanes.
  auto after = submit_wait<service::SearchResponse>(
      svc, search_request(align::SearchMode::Batch));
  ASSERT_TRUE(after.ok()) << after.error().message;
  EXPECT_FALSE(after->result.hits.empty());
}

TEST(AlignServiceBatchLanes, SearchWithMismatchedIsaRunsTheDiagonalEngine) {
  // Either mode byte's search takes the diagonal engine, with its hits,
  // where a batch request is refused.
  Wide64Artifact art;
  ASSERT_NE(art.mapped, nullptr);
  service::AlignService svc(*art.mapped);
  const service::SearchRequest rq = search_request(align::SearchMode::Batch);
  const align::SearchResult want = align::engine::search_diagonal(
      art.mapped->db(), *rq.options.config, rq.query, *rq.options.top_k,
      align::ExecContext{});
  ASSERT_FALSE(want.hits.empty());

  for (align::SearchMode mode :
       {align::SearchMode::Batch, align::SearchMode::Diagonal}) {
    auto r = submit_wait<service::SearchResponse>(svc, search_request(mode));
    ASSERT_TRUE(r.ok()) << r.error().message;
    ASSERT_EQ(r->result.hits.size(), want.hits.size());
    for (size_t k = 0; k < want.hits.size(); ++k) {
      EXPECT_EQ(r->result.hits[k].seq_index, want.hits[k].seq_index) << k;
      EXPECT_EQ(r->result.hits[k].score, want.hits[k].score) << k;
      EXPECT_EQ(r->result.hits[k].end_query, want.hits[k].end_query) << k;
      EXPECT_EQ(r->result.hits[k].end_ref, want.hits[k].end_ref) << k;
    }
    EXPECT_EQ(r->result.batch_stats.cells8, 0u);
  }
  EXPECT_EQ(svc.metrics().invalid_request, 0u);
}

TEST(AlignServiceBatchLanes, WireRejectionKeepsServerServing) {
  Wide64Artifact art;
  ASSERT_NE(art.mapped, nullptr);
  service::ServiceOptions opt;
  opt.serve.port = 0;  // ephemeral
  service::AlignService svc(*art.mapped, opt);
  auto server = net::Server::start(svc);
  ASSERT_TRUE(server.ok()) << server.error().message;
  auto client = net::Client::connect("127.0.0.1", (*server)->port(), 20.0);
  ASSERT_TRUE(client.ok());

  const auto rejected = (*client)->batch(mismatched_batch_request());
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status, service::ServiceStatus::Unsupported)
      << rejected.error;

  const auto pong = (*client)->ping();
  EXPECT_TRUE(pong.ok()) << pong.error;
  const auto served = (*client)->search(search_request(align::SearchMode::Diagonal));
  ASSERT_TRUE(served.ok()) << served.error;
  EXPECT_FALSE(served.response->result.hits.empty());
}

}  // namespace
}  // namespace swve

#include "align/batch_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "align/query_cache.hpp"
#include "core/dispatch.hpp"
#include "perf/metrics.hpp"
#include "perf/timer.hpp"
#include "simd/cpu.hpp"

namespace swve::align {

namespace engine {

std::vector<BatchQueryResult> batch_run(const seq::SequenceDatabase& db,
                                        const core::Batch32Db& bdb,
                                        const core::AlignConfig& cfg,
                                        const std::vector<seq::Sequence>& queries,
                                        size_t top_k, const ExecContext& ctx) {
  if (!core::batch_lanes_fit(bdb.lanes(), simd::resolve_isa(cfg.isa)))
    throw std::invalid_argument(
        "batch_run: database packed for a different ISA");
  std::vector<BatchQueryResult> out(queries.size());

  auto run_query = [&](size_t qi) {
    perf::Stopwatch sw;
    obs::Span span(ctx.trace, "chunk.batch_query");
    const simd::Isa isa = simd::resolve_isa(cfg.isa);
    span.set_kernel(perf::KernelVariant::Batch32);
    span.set_index(qi);
    span.set_isa(isa);
    span.set_width_bits(8);
    span.set_lanes(static_cast<uint32_t>(bdb.lanes()));
    BatchQueryResult& r = out[qi];
    const seq::Sequence& q = queries[qi];
    r.result.query_length = q.length();
    r.result.db_residues = db.total_residues();
    if (ctx.should_stop()) {  // per-query cancellation/deadline check
      r.result.truncated = true;
      span.set_trunc(ctx.cancelled() ? obs::TruncCause::Cancelled
                                     : obs::TruncCause::Deadline);
      return;
    }
    std::shared_ptr<const core::PreparedQuery> prep;
    if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(q, cfg);
    auto lease = QueryStateCache::lease(ctx.query_cache);
    core::Workspace& ws = lease.ws();
    std::vector<int> scores =
        core::batch_scores(q, bdb, db, cfg, ws, &r.batch_stats, prep.get());
    // Top-k over the score vector (index order => deterministic ties).
    std::vector<Hit> hits;
    for (size_t s = 0; s < scores.size(); ++s)
      if (scores[s] > 0)
        hits.push_back(Hit{static_cast<uint32_t>(s), scores[s], -1, -1});
    std::sort(hits.begin(), hits.end());
    if (hits.size() > top_k) hits.resize(top_k);
    r.result.hits = std::move(hits);
    r.result.stats.cells = r.batch_stats.cells8 + r.batch_stats.rescored_cells;
    r.result.stats.vector_cells = r.batch_stats.cells8;
    span.add_cells(r.result.stats.cells);
    span.set_useful_cells(r.batch_stats.useful_cells8 +
                          r.batch_stats.rescored_cells);
    r.result.seconds = sw.seconds();
  };

  if (ctx.pool) {
    ctx.pool->parallel_chunks(queries.size(),
                              [&](size_t qi, unsigned) { run_query(qi); });
  } else {
    for (size_t qi = 0; qi < queries.size(); ++qi) run_query(qi);
  }
  return out;
}

}  // namespace engine

BatchServer::BatchServer(const seq::SequenceDatabase& db, AlignConfig cfg)
    : db_(&db),
      cfg_(cfg),
      bdb_(db, core::batch_lanes_for(simd::resolve_isa(cfg.isa))) {
  cfg_.validate();
  cfg_.traceback = false;
}

std::vector<BatchQueryResult> BatchServer::run(
    const std::vector<seq::Sequence>& queries, size_t top_k,
    parallel::ThreadPool* pool) const {
  ExecContext ctx;
  ctx.pool = pool;
  return engine::batch_run(*db_, bdb_, cfg_, queries, top_k, ctx);
}

std::vector<BatchQueryResult> BatchServer::run(
    const std::vector<seq::Sequence>& queries, size_t top_k,
    const ExecContext& ctx) const {
  return engine::batch_run(*db_, bdb_, cfg_, queries, top_k, ctx);
}

core::Alignment BatchServer::realign(const seq::Sequence& query, const Hit& hit) const {
  AlignConfig cfg = cfg_;
  cfg.traceback = true;
  cfg.width = core::Width::Adaptive;
  core::Workspace ws;
  return core::diag_align(query, (*db_)[hit.seq_index], cfg, ws);
}

}  // namespace swve::align

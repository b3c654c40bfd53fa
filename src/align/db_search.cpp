#include "align/db_search.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>

#include "align/batch_scan.hpp"
#include "align/query_cache.hpp"
#include "align/sharded_search.hpp"
#include "parallel/partition.hpp"
#include "perf/metrics.hpp"
#include "perf/timer.hpp"

namespace swve::align {

namespace {

uint16_t width_bits(core::Width w) {
  switch (w) {
    case core::Width::W8: return 8;
    case core::Width::W16: return 16;
    case core::Width::W32: return 32;
    case core::Width::Adaptive: return 0;
  }
  return 0;
}

obs::TruncCause trunc_cause(const ExecContext& ctx) {
  return ctx.cancelled() ? obs::TruncCause::Cancelled
                         : obs::TruncCause::Deadline;
}

}  // namespace

namespace engine {

SearchResult search_batch(const seq::SequenceDatabase& db,
                          const core::Batch32Db& bdb,
                          const core::AlignConfig& cfg, seq::SeqView query,
                          size_t top_k, const ExecContext& ctx) {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db.total_residues();
  if (db.empty() || query.empty()) return out;

  // Cached query state, when the caller provides a cache: the prepared
  // feed arrays are shared read-only across worker threads, and workspaces
  // come from the pool instead of cold allocation.
  std::shared_ptr<const core::PreparedQuery> prep;
  if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(query, cfg);

  // Phase 1: score every sequence through the batch kernel. The pool's
  // workers pull cost-balanced chunks from one cursor and write scores by
  // original sequence index, so the vector is the same whoever scans what.
  std::vector<int> scores(db.size(), 0);
  core::BatchSearchStats agg{};
  std::mutex agg_mu;
  const unsigned workers = ctx.pool ? ctx.pool->size() : 1u;
  detail::BatchScan scan(db, bdb, cfg, query, prep.get(), ctx, 0,
                         bdb.batch_count(), workers);
  auto score_batches = [&](size_t slot) {
    auto lease = QueryStateCache::lease(ctx.query_cache);
    const detail::BatchScan::Tally t =
        scan.run("chunk.search_batch", slot, lease.ws(),
                 [&scores](uint32_t seq_idx, int score) {
                   scores[seq_idx] = score;
                 });
    std::lock_guard<std::mutex> lk(agg_mu);
    agg += t.stats;
  };
  if (ctx.pool) {
    ctx.pool->parallel_for(
        std::min<size_t>(workers, scan.chunk_count()),
        [&](size_t slot, size_t, unsigned) { score_batches(slot); });
  } else {
    score_batches(0);
  }
  out.truncated = scan.truncated();
  out.batch_stats = agg;
  if (out.truncated) {  // partial answer; skip the exact re-alignment pass
    out.seconds = sw.seconds();
    return out;
  }

  // Phase 2: top-k over the score vector (index order => deterministic),
  // then exact re-alignment of just the winners for end positions.
  detail::TopK top(top_k);
  for (size_t s = 0; s < scores.size(); ++s)
    top.offer(Hit{static_cast<uint32_t>(s), scores[s], -1, -1});
  out.hits = std::move(top).sorted();
  detail::realign_winners(db, cfg, query, prep.get(), ctx, out);
  out.seconds = sw.seconds();
  return out;
}

SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx) {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db.total_residues();
  if (db.empty() || query.empty()) return out;

  std::shared_ptr<const core::PreparedQuery> prep;
  if (ctx.query_cache != nullptr) prep = ctx.query_cache->prepared(query, cfg);

  const unsigned parts = ctx.pool ? ctx.pool->size() : 1u;
  auto ranges = parallel::partition_by_residues(db, parts);
  std::vector<std::vector<Hit>> part_hits(parts);
  std::vector<core::KernelStats> part_stats(parts);
  std::atomic<bool> truncated{false};

  auto run_part = [&](unsigned p) {
    auto [begin, end] = ranges[p];
    if (begin >= end) return;
    obs::Span span(ctx.trace, "chunk.search_diagonal");
    span.set_kernel(perf::KernelVariant::Diagonal);
    span.set_index(p);
    auto lease = QueryStateCache::lease(ctx.query_cache);
    core::Workspace& ws = lease.ws();
    detail::TopK top(top_k);
    core::KernelStats stats;
    for (size_t s = begin; s < end; ++s) {
      if (ctx.should_stop()) {  // per-sequence cancellation/deadline check
        truncated.store(true, std::memory_order_relaxed);
        span.set_trunc(trunc_cause(ctx));
        break;
      }
      core::Alignment a = core::diag_align(query, db[s], cfg, ws, prep.get());
      span.set_isa(a.isa_used);
      span.set_width_bits(width_bits(a.width_used));
      stats += a.stats;
      top.offer(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
    }
    span.add_cells(stats.cells);
    part_hits[p] = std::move(top).sorted();
    part_stats[p] = stats;
  };

  if (ctx.pool) {
    ctx.pool->parallel_for(parts, [&](size_t b, size_t e, unsigned) {
      for (size_t p = b; p < e; ++p) run_part(static_cast<unsigned>(p));
    });
  } else {
    run_part(0);
  }

  // Deterministic merge in partition order, then global top-k.
  detail::TopK merged(top_k);
  for (unsigned p = 0; p < parts; ++p) {
    out.stats += part_stats[p];
    for (const Hit& h : part_hits[p]) merged.offer(h);
  }
  out.hits = std::move(merged).sorted();
  out.truncated = truncated.load(std::memory_order_relaxed);
  out.seconds = sw.seconds();
  return out;
}

}  // namespace engine

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                               SearchMode mode, core::PackingPolicy packing)
    : db_(&db), cfg_(cfg), mode_(mode) {
  cfg_.validate();
  cfg_.traceback = false;  // scoring pass; re-align hits for traceback
  if (mode_ == SearchMode::Batch) {
    if (cfg_.band >= 0)
      throw std::invalid_argument("DatabaseSearch: Batch mode cannot band");
    bdb_ = std::make_unique<core::Batch32Db>(
        db, core::batch_lanes_for(simd::resolve_isa(cfg_.isa)), packing);
    packed_ = bdb_.get();
  }
}

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db,
                               const core::Batch32Db& packed, AlignConfig cfg)
    : db_(&db), cfg_(cfg), mode_(SearchMode::Batch), packed_(&packed) {
  cfg_.validate();
  cfg_.traceback = false;
  if (cfg_.band >= 0)
    throw std::invalid_argument("DatabaseSearch: Batch mode cannot band");
  if (packed.sequence_count() != db.size())
    throw std::invalid_argument(
        "DatabaseSearch: packed database does not match the sequence database");
}

DatabaseSearch::~DatabaseSearch() = default;
DatabaseSearch::DatabaseSearch(DatabaseSearch&&) noexcept = default;
DatabaseSearch& DatabaseSearch::operator=(DatabaseSearch&&) noexcept = default;

core::ErrorOr<void> DatabaseSearch::enable_sharding(const ShardOptions& opt) {
  if (mode_ != SearchMode::Batch)
    return core::ConfigError{core::ConfigError::Code::Unsupported,
                             "DatabaseSearch: sharding requires Batch mode"};
  auto sharded = ShardedSearch::create(*db_, *packed_, opt);
  if (!sharded.ok()) return sharded.error();
  sharded_ = std::move(sharded).value();
  return {};
}

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    parallel::ThreadPool* pool) const {
  ExecContext ctx;
  ctx.pool = pool;
  return search(query, top_k, ctx);
}

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    const ExecContext& ctx) const {
  if (sharded_) return sharded_->search(cfg_, query, top_k, ctx);
  return mode_ == SearchMode::Batch
             ? engine::search_batch(*db_, *packed_, cfg_, query, top_k, ctx)
             : engine::search_diagonal(*db_, cfg_, query, top_k, ctx);
}

}  // namespace swve::align

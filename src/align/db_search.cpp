#include "align/db_search.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "align/batch_scan.hpp"
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

std::unique_ptr<ShardedSearch> make_sharded(const seq::SequenceDatabase& db,
                                            const core::Batch32Db& packed,
                                            const ShardOptions& opt) {
  auto sharded = ShardedSearch::create(db, packed, opt);
  if (!sharded.ok()) throw std::invalid_argument(sharded.error().message);
  return std::move(sharded).value();
}

}  // namespace

namespace engine {

SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx) {
  perf::Stopwatch sw;
  SearchResult out;
  out.query_length = query.length;
  out.db_residues = db.total_residues();
  if (db.empty() || query.empty()) return out;

  // The request's query feed, shared read-only by every part.
  const core::PreparedQuery prep(query);

  const unsigned parts = ctx.pool ? ctx.pool->size() : 1u;
  auto ranges = parallel::partition_by_residues(db, parts);
  std::vector<std::vector<Hit>> part_hits(parts);
  std::vector<core::KernelStats> part_stats(parts);
  std::atomic<bool> truncated{false};

  auto run_part = [&](unsigned p) {
    auto [begin, end] = ranges[p];
    if (begin >= end) return;
    obs::Span span(ctx.trace, "chunk.search_diagonal");
    span.set_index(p);
    core::Workspace& ws = core::thread_workspace();
    detail::TopK top(top_k);
    core::KernelStats stats;
    for (size_t s = begin; s < end; ++s) {
      if (ctx.should_stop()) {  // per-sequence cancellation/deadline check
        truncated.store(true, std::memory_order_relaxed);
        span.set_trunc(trunc_cause(ctx));
        break;
      }
      core::Alignment a = core::pair_align(query, db[s], cfg, ws, &prep);
      span.set_isa(a.isa_used);
      span.set_width_bits(width_bits(a.width_used));
      stats += a.stats;
      top.offer(Hit{static_cast<uint32_t>(s), a.score, a.end_query, a.end_ref});
    }
    // pair_align picks the sweep per pair: the chunk carries the one
    // that computed most of its cells (the diagonal kernel when none ran).
    span.set_kernel(kernel_variant(2 * stats.column_cells > stats.cells
                                       ? core::Sweep::Column
                                       : core::Sweep::Diagonal));
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

SearchResult search_database(const seq::SequenceDatabase& db,
                             const ShardedSearch* sharded,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx) {
  if (sharded != nullptr && cfg.band < 0 &&
      core::batch_lanes_fit(sharded->lanes(), simd::resolve_isa(cfg.isa)))
    return sharded->search(cfg, query, top_k, ctx);
  return engine::search_diagonal(db, cfg, query, top_k, ctx);
}

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                               const ShardOptions& sharding)
    : db_(&db), cfg_(cfg) {
  cfg_.validate();
  cfg_.traceback = false;  // scoring pass; re-align hits for traceback
  if (cfg_.band >= 0) return;  // the batch kernel cannot band
  bdb_ = std::make_unique<core::Batch32Db>(
      db, core::batch_lanes_for(simd::resolve_isa(cfg_.isa)));
  packed_ = bdb_.get();
  sharded_ = make_sharded(db, *packed_, sharding);
}

DatabaseSearch::DatabaseSearch(const seq::SequenceDatabase& db,
                               const core::Batch32Db& packed, AlignConfig cfg,
                               const ShardOptions& sharding)
    : db_(&db), cfg_(cfg), packed_(&packed) {
  cfg_.validate();
  cfg_.traceback = false;
  if (packed.sequence_count() != db.size())
    throw std::invalid_argument(
        "DatabaseSearch: packed database does not match the sequence database");
  sharded_ = make_sharded(db, packed, sharding);
}

DatabaseSearch::~DatabaseSearch() = default;
DatabaseSearch::DatabaseSearch(DatabaseSearch&&) noexcept = default;
DatabaseSearch& DatabaseSearch::operator=(DatabaseSearch&&) noexcept = default;

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    parallel::ThreadPool* pool) const {
  ExecContext ctx;
  ctx.pool = pool;
  return search(query, top_k, ctx);
}

SearchResult DatabaseSearch::search(seq::SeqView query, size_t top_k,
                                    const ExecContext& ctx) const {
  return search_database(*db_, sharded_.get(), cfg_, query, top_k, ctx);
}

}  // namespace swve::align

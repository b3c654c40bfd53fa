#include "align/batch_scan.hpp"

#include <stdexcept>

#include "align/query_cache.hpp"
#include "core/dispatch.hpp"

namespace swve::align::detail {

std::vector<std::pair<size_t, size_t>> plan_by_cells(
    const core::Batch32Db& packed, size_t begin, size_t end, size_t parts) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (parts == 0 || end <= begin) return ranges;
  parts = std::min(parts, end - begin);
  const auto records = packed.batch_records();
  const uint64_t lanes = static_cast<uint64_t>(packed.lanes());
  uint64_t total = 0;
  for (size_t b = begin; b < end; ++b) total += records[b].max_len * lanes;
  size_t b = begin;
  uint64_t prefix = 0;
  for (size_t p = 0; p < parts; ++p) {
    // Cut where the running cost first reaches this part's share of the
    // total: every part ends within one batch's cost past its target.
    const uint64_t target = total * (p + 1) / parts;
    const size_t first = b;
    // Leave at least one batch per remaining part; always take one.
    const size_t max_end = end - (parts - 1 - p);
    while (b < max_end && (b == first || prefix < target))
      prefix += records[b++].max_len * lanes;
    ranges.emplace_back(first, b);
  }
  ranges.back().second = end;  // the last range absorbs rounding
  return ranges;
}

void realign_winners(const seq::SequenceDatabase& db,
                     const core::AlignConfig& cfg, seq::SeqView query,
                     const core::PreparedQuery* prep, const ExecContext& ctx,
                     SearchResult& out) {
  auto lease = QueryStateCache::lease(ctx.query_cache);
  core::Workspace& ws = lease.ws();
  for (Hit& h : out.hits) {
    core::Alignment a = core::diag_align(query, db[h.seq_index], cfg, ws, prep);
    h.end_query = a.end_query;
    h.end_ref = a.end_ref;
    out.stats += a.stats;
  }
  out.stats.cells += out.batch_stats.cells8 + out.batch_stats.rescored_cells;
  out.stats.vector_cells += out.batch_stats.cells8;
}

BatchScan::BatchScan(const seq::SequenceDatabase& db,
                     const core::Batch32Db& bdb, const core::AlignConfig& cfg,
                     seq::SeqView query, const core::PreparedQuery* prep,
                     const ExecContext& ctx, size_t begin, size_t end,
                     unsigned workers)
    : db_(db),
      bdb_(bdb),
      cfg_(cfg),
      query_(query),
      prep_(prep),
      ctx_(ctx),
      isa_(simd::resolve_isa(cfg.isa)) {
  if (!core::batch_lanes_fit(bdb.lanes(), isa_))
    throw std::invalid_argument(
        "batch search: database packed for a different ISA");
  chunks_ = plan_by_cells(bdb, begin, end,
                          std::max(1u, workers) * kChunksPerWorker);
  // Longest first, so the chunk that starts last is a short one and no
  // worker is left finishing a long tail while the others idle. Ties keep
  // database order.
  const auto records = bdb.batch_records();
  std::vector<std::pair<uint64_t, std::pair<size_t, size_t>>> by_cost;
  by_cost.reserve(chunks_.size());
  for (const auto& c : chunks_) {
    uint64_t len = 0;
    for (size_t b = c.first; b < c.second; ++b) len += records[b].max_len;
    by_cost.emplace_back(len, c);
  }
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  for (size_t i = 0; i < by_cost.size(); ++i) chunks_[i] = by_cost[i].second;
}

}  // namespace swve::align::detail

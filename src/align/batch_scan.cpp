#include "align/batch_scan.hpp"

#include "align/query_cache.hpp"

namespace swve::align::detail {

std::vector<std::pair<size_t, size_t>> plan_by_cells(
    const core::Batch32Db& packed, size_t begin, size_t end, size_t parts,
    size_t multiple) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (parts == 0 || end <= begin) return ranges;
  multiple = std::max<size_t>(multiple, 1);
  // Cut between groups of `multiple` batches counted from `begin`; the last
  // group may be short.
  const size_t groups = (end - begin + multiple - 1) / multiple;
  parts = std::min(parts, groups);
  const auto records = packed.batch_records();
  const uint64_t lanes = static_cast<uint64_t>(packed.lanes());
  uint64_t total = 0;
  for (size_t b = begin; b < end; ++b) total += records[b].max_len * lanes;
  size_t group = 0;
  uint64_t prefix = 0;
  for (size_t p = 0; p < parts; ++p) {
    // Cut where the running cost first reaches this part's share of the
    // total: every part ends within one group's cost past its target.
    const uint64_t target = total * (p + 1) / parts;
    const size_t first = group;
    // Leave at least one group per remaining part; always take one.
    const size_t max_group = groups - (parts - 1 - p);
    while (group < max_group && (group == first || prefix < target)) {
      const size_t b_end = std::min(end, begin + (group + 1) * multiple);
      for (size_t b = begin + group * multiple; b < b_end; ++b)
        prefix += records[b].max_len * lanes;
      ++group;
    }
    ranges.emplace_back(begin + first * multiple,
                        std::min(end, begin + group * multiple));
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
      wide_(cfg),
      query_(query),
      prep_(prep),
      ctx_(ctx),
      isa_(simd::resolve_isa(cfg.isa)),
      k_ilp_(core::resolved_ilp(isa_)) {
  wide_.width = core::Width::W16;
  chunks_ = plan_by_cells(bdb, begin, end,
                          std::max(1u, workers) * kChunksPerWorker,
                          static_cast<size_t>(k_ilp_));
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

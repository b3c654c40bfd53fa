#include "align/batch_scan.hpp"

#include <stdexcept>

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
                     const core::PreparedQuery* prep, SearchResult& out) {
  core::Workspace& ws = core::thread_workspace();
  core::AlignConfig rung = cfg;
  for (Hit& h : out.hits) {
    // The scan found each winner's exact score: start at the rung that
    // holds it, where the ladder would finish with the same end cell.
    if (cfg.width == core::Width::Adaptive)
      rung.width = core::exact_score_width(cfg, h.score);
    core::Alignment a = core::pair_align(query, db[h.seq_index], rung, ws, prep);
    h.end_query = a.end_query;
    h.end_ref = a.end_ref;
    out.stats += a.stats;
  }
}

BatchScan::BatchScan(const seq::SequenceDatabase& db,
                     const core::Batch32Db& bdb, const core::AlignConfig& cfg,
                     std::span<const ScanQuery> queries,
                     const ExecContext& ctx, size_t begin, size_t end,
                     unsigned workers)
    : db_(db),
      bdb_(bdb),
      cfg_(cfg),
      queries_(queries),
      ctx_(ctx),
      isa_(simd::resolve_isa(cfg.isa)) {
  if (!core::batch_lanes_fit(bdb.lanes(), isa_))
    throw std::invalid_argument(
        "batch search: database packed for a different ISA");
  const auto chunks = plan_by_cells(bdb, begin, end,
                                    std::max(1u, workers) * kChunksPerWorker);
  const auto records = bdb.batch_records();
  std::vector<uint64_t> chunk_len;
  chunk_len.reserve(chunks.size());
  for (const auto& c : chunks) {
    uint64_t len = 0;
    for (size_t b = c.first; b < c.second; ++b) len += records[b].max_len;
    chunk_len.push_back(len);
  }
  // Longest first, so the item that starts last is a short one and no
  // worker is left finishing a long tail while the others idle. Ties keep
  // query order, then database order.
  std::vector<std::pair<uint64_t, Item>> by_cost;
  by_cost.reserve(queries.size() * chunks.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const uint64_t m = queries[qi].seq.length;
    if (m == 0) continue;
    for (size_t c = 0; c < chunks.size(); ++c)
      by_cost.push_back({m * chunk_len[c],
                         Item{static_cast<uint32_t>(qi), chunks[c].first,
                              chunks[c].second}});
  }
  std::stable_sort(by_cost.begin(), by_cost.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  items_.reserve(by_cost.size());
  for (const auto& [cost, item] : by_cost) items_.push_back(item);
}

}  // namespace swve::align::detail

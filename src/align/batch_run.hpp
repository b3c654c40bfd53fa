// Scenario 2: a centralized server accumulating many queries and scoring
// them against a shared database. The database is packed once into
// transposed 32/64-lane batches (Fig 5); each query is scored by the
// inter-sequence 8-bit kernel with exact 16/32-bit re-scoring of saturated
// lanes; queries fan out across threads. The paper found this batching
// "enhances computational efficiency by a factor of two in some cases".
//
// Like scenario 1, the scoring loop lives in the stateless `engine`
// namespace; service::AlignService's BatchRequest runs it, and callers that
// hold a packed database (benches, tests) call it directly.
#pragma once

#include <vector>

#include "align/db_search.hpp"
#include "core/batch32.hpp"

namespace swve::align {

struct BatchQueryResult {
  SearchResult result;
  core::BatchSearchStats batch_stats;
};

namespace engine {

/// Stateless scenario-2 engine: score every query against the packed
/// database; one top-k result per query, in query order (deterministic for
/// any pool size). Cancellation/deadline is honored at per-query
/// granularity: remaining queries come back with `result.truncated` set.
/// Throws std::invalid_argument when cfg.isa cannot drive bdb's lanes
/// (core::batch_lanes_fit).
std::vector<BatchQueryResult> batch_run(const seq::SequenceDatabase& db,
                                        const core::Batch32Db& bdb,
                                        const core::AlignConfig& cfg,
                                        const std::vector<seq::Sequence>& queries,
                                        size_t top_k, const ExecContext& ctx);

}  // namespace engine

}  // namespace swve::align

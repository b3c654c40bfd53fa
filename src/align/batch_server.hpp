// Scenario 2: a centralized server accumulating many queries and scoring
// them against a shared database. The database is packed once into
// transposed 32/64-lane batches (Fig 5); each query is scored by the
// inter-sequence 8-bit kernel with exact 16/32-bit re-scoring of saturated
// lanes; queries fan out across threads. The paper found this batching
// "enhances computational efficiency by a factor of two in some cases".
//
// Like scenario 1, the scoring loop lives in the stateless `engine`
// namespace so the synchronous BatchServer facade and the async
// service::AlignService run identical code.
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

class BatchServer {
 public:
  /// Packs the database for cfg's resolved ISA (core::batch_lanes_for: 64
  /// lanes with AVX-512-VBMI, else 32).
  BatchServer(const seq::SequenceDatabase& db, AlignConfig cfg);

  /// Score every query against the database; returns one top-k result per
  /// query, in query order (deterministic for any thread count).
  std::vector<BatchQueryResult> run(const std::vector<seq::Sequence>& queries,
                                    size_t top_k,
                                    parallel::ThreadPool* pool = nullptr) const;

  /// Run with an explicit execution context (pool + cancel + deadline).
  std::vector<BatchQueryResult> run(const std::vector<seq::Sequence>& queries,
                                    size_t top_k, const ExecContext& ctx) const;

  /// Re-align one hit exactly, with traceback, using the diagonal kernel.
  core::Alignment realign(const seq::Sequence& query, const Hit& hit) const;

  int lanes() const noexcept { return bdb_.lanes(); }
  const core::Batch32Db& packed_db() const noexcept { return bdb_; }

 private:
  const seq::SequenceDatabase* db_;
  AlignConfig cfg_;
  core::Batch32Db bdb_;
};

}  // namespace swve::align

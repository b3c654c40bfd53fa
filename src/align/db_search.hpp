// Scenario 1: one query streamed against a sequence database, partitioned
// across threads by residue count, with deterministic top-k merging.
//
// The actual search loops live in the stateless `engine` namespace: they
// take the database, config, and an ExecContext (pool / cancellation /
// deadline) explicitly, so both the synchronous DatabaseSearch facade and
// the async service::AlignService drive the exact same code and get
// bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "align/aligner.hpp"
#include "align/exec_context.hpp"
#include "core/batch32.hpp"
#include "core/error.hpp"
#include "parallel/thread_pool.hpp"
#include "seq/database.hpp"

namespace swve::align {

class ShardedSearch;    // align/sharded_search.hpp
struct ShardOptions;

struct Hit {
  uint32_t seq_index = 0;  ///< index into the database
  int score = 0;
  int end_query = -1;
  int end_ref = -1;

  /// Ordering for top-k: higher score first, then lower index (stable and
  /// thread-count independent).
  friend bool operator<(const Hit& a, const Hit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.seq_index < b.seq_index;
  }
};

struct SearchResult {
  std::vector<Hit> hits;  ///< top-k, best first
  core::KernelStats stats;
  /// Batch-path accounting (zero for the diagonal path): 8-bit kernel cells
  /// split into useful vs padding, and the rescore ladder's work. The ratio
  /// useful_cells8 / cells8 is the packing efficiency of this search.
  core::BatchSearchStats batch_stats;
  double seconds = 0;
  uint64_t query_length = 0;
  uint64_t db_residues = 0;
  /// True when the engine stopped early (cancellation or deadline); hits
  /// then cover only the sequences scanned before the stop and must not be
  /// treated as a complete answer.
  bool truncated = false;
  double gcups() const {
    return seconds > 0
               ? static_cast<double>(query_length) *
                     static_cast<double>(db_residues) / seconds / 1e9
               : 0.0;
  }
};

/// How DatabaseSearch scores the database.
enum class SearchMode {
  /// Stream every sequence through the intra-sequence diagonal kernel
  /// (adaptive width). Hits carry exact end positions.
  Diagonal,
  /// Score through the inter-sequence batch32 kernel (the database is
  /// packed once at construction), then re-align only the top-k hits with
  /// the diagonal kernel for end positions. Fastest for scoring whole
  /// databases; identical hits and scores.
  Batch,
};

namespace engine {

/// Stateless scenario-1 engine, diagonal-kernel path. `cfg` must already be
/// validated with traceback off. Deterministic for any pool size; honors
/// ctx cancellation/deadline at per-sequence granularity.
SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx);

/// Stateless scenario-1 engine, batch32-kernel path. `bdb` is the database
/// packed for the batch kernel (see core::Batch32Db); cancellation/deadline
/// is honored at per-batch granularity. Throws std::invalid_argument when
/// cfg.isa cannot drive bdb's lanes (core::batch_lanes_fit).
SearchResult search_batch(const seq::SequenceDatabase& db,
                          const core::Batch32Db& bdb,
                          const core::AlignConfig& cfg, seq::SeqView query,
                          size_t top_k, const ExecContext& ctx);

}  // namespace engine

/// Synchronous facade over the engines (owns the packed database in Batch
/// mode). service::AlignService is the asynchronous, instrumented front
/// door over the same engines.
class DatabaseSearch {
 public:
  /// Batch mode packs the database for cfg's resolved ISA
  /// (core::batch_lanes_for). `packing` selects how (ignored in Diagonal
  /// mode); every policy returns identical hits and scores — see
  /// core::PackingPolicy.
  DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                 SearchMode mode = SearchMode::Diagonal,
                 core::PackingPolicy packing = core::PackingPolicy::LengthSorted);

  /// Batch-mode facade over an externally-owned packed database (the
  /// mmap'd-artifact path: a core::MappedDb's batch_db()). Nothing is
  /// packed or copied here; `db` and `packed` must describe the same
  /// database and outlive the facade. Results are bit-identical to the
  /// owning constructor with the same lanes/policy.
  DatabaseSearch(const seq::SequenceDatabase& db,
                 const core::Batch32Db& packed, AlignConfig cfg);

  ~DatabaseSearch();  // out of line: ShardedSearch is incomplete here
  DatabaseSearch(DatabaseSearch&&) noexcept;
  DatabaseSearch& operator=(DatabaseSearch&&) noexcept;

  /// Search with `pool` (or single-threaded when null). Results are
  /// identical for every thread count and for both search modes.
  SearchResult search(seq::SeqView query, size_t top_k,
                      parallel::ThreadPool* pool = nullptr) const;

  /// Search with an explicit execution context (pool + cancel + deadline).
  SearchResult search(seq::SeqView query, size_t top_k,
                      const ExecContext& ctx) const;

  SearchMode mode() const noexcept { return mode_; }
  /// Batch mode's packed database (null in Diagonal mode); exposes packing
  /// efficiency and policy for metrics/benchmarks. Owned or external,
  /// depending on the constructor used.
  const core::Batch32Db* packed_db() const noexcept { return packed_; }

  /// Shard Batch mode across NUMA nodes (align::ShardedSearch): subsequent
  /// search() calls fan out over per-node pinned pools and merge bounded
  /// per-shard top-k heaps — bit-identical results, local memory traffic.
  /// Fails (ConfigError) in Diagonal mode or when opt.shards exceeds the
  /// packed batch count; the facade stays unsharded on failure.
  core::ErrorOr<void> enable_sharding(const ShardOptions& opt);
  /// Non-null after a successful enable_sharding (per-shard stats access).
  const ShardedSearch* sharded() const noexcept { return sharded_.get(); }

 private:
  const seq::SequenceDatabase* db_;
  AlignConfig cfg_;
  SearchMode mode_;
  std::unique_ptr<core::Batch32Db> bdb_;          // owning Batch mode only
  const core::Batch32Db* packed_ = nullptr;       // Batch mode (either ctor)
  std::unique_ptr<ShardedSearch> sharded_;        // Batch mode, opt-in
};

}  // namespace swve::align

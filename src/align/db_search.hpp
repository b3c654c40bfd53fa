// Scenario 1: one query streamed against a sequence database, with
// deterministic top-k merging.
//
// Two engines return the same hits: the batch scan (align::ShardedSearch)
// and the stateless diagonal loop (engine::search_diagonal). Both take the
// database, config, and an ExecContext (pool / cancellation / deadline)
// explicitly, and search_database() is the one rule between them, so the
// synchronous DatabaseSearch facade and the async service::AlignService
// run the same code and get bit-identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "align/aligner.hpp"
#include "align/exec_context.hpp"
#include "core/batch32.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/topology.hpp"
#include "perf/metrics.hpp"
#include "seq/database.hpp"

namespace swve::core {
class MappedDb;
}

namespace swve::align {

class ShardedSearch;    // align/sharded_search.hpp

/// The metrics and trace label of the sweep that computed an alignment
/// (core::pair_align picks it per pair).
constexpr perf::KernelVariant kernel_variant(core::Sweep s) noexcept {
  return s == core::Sweep::Column ? perf::KernelVariant::Column
                                  : perf::KernelVariant::Diagonal;
}

/// How a batch-scan search splits the packed database (align::ShardedSearch;
/// ServiceOptions.search mirrors these). numa, total_threads and mapped
/// apply only to two or more shards: one shard owns no pool or placement.
struct ShardOptions {
  /// 1 (default): one shard, run on the caller's pool. 0 = auto: one shard
  /// per NUMA node (align::clamp_shard_count), so a single-node host runs
  /// one shard; N >= 2 forces exactly N shards, each on its own pool.
  /// Explicitly requesting more shards than the database has batches is a
  /// typed config error (auto clamps instead).
  int shards = 1;
  /// Thread/memory placement. Off still shards (useful for the merge-path
  /// tests and for cache-partitioning on one socket) but pins nothing.
  parallel::NumaPolicy numa = parallel::NumaPolicy::Off;
  /// Worker threads across all shards; 0 = one per online CPU. Each shard
  /// gets at least one.
  unsigned total_threads = 0;
  /// When the packed db is a mapped artifact, madvise each shard's column
  /// byte range at construction (MappedDb::advise_batch_columns) so shards
  /// prefault only their own stream.
  const core::MappedDb* mapped = nullptr;
};

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
  /// Batch-scan accounting (zero for the diagonal engine): 8-bit kernel cells
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

/// Protocol v1's search-mode byte (service::SearchRequest::mode). Nothing
/// reads it: search_database() picks the engine from the config and the
/// packed lanes, and both engines return the same hits.
enum class SearchMode {
  Diagonal,
  Batch,
};

namespace engine {

/// Stateless scenario-1 engine, diagonal-kernel path. `cfg` must already be
/// validated with traceback off. Deterministic for any pool size; honors
/// ctx cancellation/deadline at per-sequence granularity.
SearchResult search_diagonal(const seq::SequenceDatabase& db,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx);

}  // namespace engine

/// The one search rule: the batch scan (`sharded`->search) when `cfg` is
/// unbanded and its resolved ISA drives the packed lanes
/// (core::batch_lanes_fit), else engine::search_diagonal (also when
/// `sharded` is null). Same hits either way; only the batch scan fills
/// batch_stats. `cfg` must be validated with traceback off.
SearchResult search_database(const seq::SequenceDatabase& db,
                             const ShardedSearch* sharded,
                             const core::AlignConfig& cfg, seq::SeqView query,
                             size_t top_k, const ExecContext& ctx);

/// Synchronous facade over search_database(); service::AlignService is the
/// asynchronous, instrumented front door over the same rule.
class DatabaseSearch {
 public:
  /// An unbanded config packs the database for its resolved ISA
  /// (core::batch_lanes_for); a banded one packs nothing and searches with
  /// the diagonal engine. `sharding` splits the batch scan, with the same
  /// hits for every shard count; std::invalid_argument when
  /// ShardedSearch::create refuses it.
  DatabaseSearch(const seq::SequenceDatabase& db, AlignConfig cfg,
                 const ShardOptions& sharding = {});

  /// Facade over an externally-owned packed database (the mmap'd-artifact
  /// path: a core::MappedDb's batch_db()). Nothing is packed or copied
  /// here; `db` and `packed` must describe the same database and outlive
  /// the facade. Results are bit-identical to the owning constructor.
  DatabaseSearch(const seq::SequenceDatabase& db,
                 const core::Batch32Db& packed, AlignConfig cfg,
                 const ShardOptions& sharding = {});

  ~DatabaseSearch();  // out of line: ShardedSearch is incomplete here
  DatabaseSearch(DatabaseSearch&&) noexcept;
  DatabaseSearch& operator=(DatabaseSearch&&) noexcept;

  /// Search with `pool` (or single-threaded when null; a batch scan with
  /// two or more shards uses their own pools). Results are identical for
  /// every thread count and for both engines.
  SearchResult search(seq::SeqView query, size_t top_k,
                      parallel::ThreadPool* pool = nullptr) const;

  /// Search with an explicit execution context (pool + cancel + deadline).
  SearchResult search(seq::SeqView query, size_t top_k,
                      const ExecContext& ctx) const;

  /// The packed database (null for a banded owning facade); exposes
  /// packing efficiency for metrics/benchmarks. Owned or
  /// external, depending on the constructor used.
  const core::Batch32Db* packed_db() const noexcept { return packed_; }

  /// The batch-scan engine (null when packed_db() is): shard layout and
  /// per-shard stats.
  const ShardedSearch* sharded() const noexcept { return sharded_.get(); }

 private:
  const seq::SequenceDatabase* db_;
  AlignConfig cfg_;
  std::unique_ptr<core::Batch32Db> bdb_;          // owning, unbanded only
  const core::Batch32Db* packed_ = nullptr;
  std::unique_ptr<ShardedSearch> sharded_;
};

}  // namespace swve::align

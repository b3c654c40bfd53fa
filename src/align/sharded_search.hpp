// Sharded scenario-1 search with NUMA-aware placement and a bit-identical
// top-k merge.
//
// The flat batch path (engine::search_batch) fans one thread pool over one
// packed database: on a multi-socket host every socket streams columns it
// does not own, and the hottest loads in the system cross the interconnect.
// ShardedSearch splits a Batch32Db into S shards *between* batches (batches
// are the packing's length bins, so packing efficiency survives the split
// untouched), gives each shard a thread-pool slice pinned to one NUMA node
// (parallel/topology.hpp) with its own workspace arena (a per-shard
// QueryStateCache partition), places each shard's column bytes on its node
// (mbind under `bind`, page-interleave under `interleave`, first-touch
// otherwise), and scans all shards concurrently into bounded per-shard
// top-k heaps. Inside a shard, the pool's workers pull cost-balanced chunks
// of the shard's range from one cursor (align/batch_scan.hpp), the same
// scan loop and scheduler the flat path runs over the whole database.
//
// Determinism: per-sequence scores are exact (the 8-bit kernel plus the
// 16/32-bit rescore ladder is deterministic, and batches are never split),
// and Hit's ordering is a strict total order (score desc, then seq_index
// asc, with seq_index unique). Top-k selection under a strict total order
// is a unique set whatever the partition shape, so merging the per-shard
// heaps at the end — SWAPHI's shard/merge shape, with NUMA nodes playing
// the coprocessor cards — returns results bit-identical to the unsharded
// path for every shard count and packing policy. The
// shard/topk_identical bench sentinel and tests/test_sharded_search.cpp
// hold that line.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "align/db_search.hpp"
#include "core/error.hpp"
#include "parallel/topology.hpp"

namespace swve::core {
class MappedDb;
}

namespace swve::align {

class QueryStateCache;

/// Construction-time knobs (ServiceOptions.search mirrors these).
struct ShardOptions {
  /// 0 = auto: one shard per NUMA node (after the runtime hint below), so a
  /// single-node host runs one shard; N >= 1 forces exactly N shards.
  /// Explicitly requesting more shards than the database has batches is a
  /// typed config error (auto clamps instead).
  int shards = 0;
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

/// Lifetime per-shard accounting snapshot (relaxed-atomic reads).
struct ShardStats {
  size_t first_batch = 0;
  size_t end_batch = 0;
  uint64_t sequences = 0;     ///< database sequences owned by the shard
  uint64_t padded_residues = 0;  ///< kernel-walked residues per query pass
  int node = -1;              ///< NUMA node the shard is pinned to (-1: none)
  unsigned threads = 0;
  bool bound = false;         ///< mbind of the shard's columns succeeded
  uint64_t searches = 0;
  uint64_t batches = 0;       ///< batch-kernel batches scanned (lifetime)
  uint64_t cells = 0;         ///< DP cells (8-bit + rescore ladder)
  uint64_t useful_cells = 0;
  uint64_t rescored = 0;
  double busy_seconds = 0;    ///< summed worker wall time inside this shard
  uint64_t llc_misses = 0;    ///< PMU deltas over shard scans (0: no PMU)
  uint64_t cycles = 0;
  size_t queue_depth = 0;     ///< jobs outstanding on the shard's pool now

  /// Shard throughput over its own busy time (not wall time): imbalance
  /// shows up as shards with equal gcups but unequal busy_seconds.
  double gcups() const noexcept {
    return busy_seconds > 0
               ? static_cast<double>(cells) / busy_seconds / 1e9
               : 0.0;
  }
};

/// Runtime hyperparameter used when ShardOptions.shards == 0 (auto): lets
/// the GA tuner (tune::apply_runtime_settings, "shards=N") co-tune shard
/// count with the compiler flags. 0 restores topology auto.
void set_shard_count_hint(int shards) noexcept;
int shard_count_hint() noexcept;

class ShardedSearch {
 public:
  /// Plan + pin + place. `db`/`packed` must outlive the instance. Fails
  /// with ConfigError{Unsupported} when opt.shards exceeds the batch count
  /// (a shard with no batches could never be scanned) or is negative.
  static core::ErrorOr<std::unique_ptr<ShardedSearch>> create(
      const seq::SequenceDatabase& db, const core::Batch32Db& packed,
      const ShardOptions& opt);

  ~ShardedSearch();
  ShardedSearch(const ShardedSearch&) = delete;
  ShardedSearch& operator=(const ShardedSearch&) = delete;

  /// Scenario-1 batch search across all shards concurrently. `cfg` must be
  /// validated with traceback off (same contract as engine::search_batch);
  /// ctx.pool is ignored (shards own their pools), ctx cancel/deadline is
  /// honored at batch granularity inside every shard, ctx.query_cache
  /// supplies the shared prepared query. Bit-identical to
  /// engine::search_batch for every shard count, and throws like it when
  /// cfg.isa cannot drive the packed lanes. Thread-safe.
  SearchResult search(const core::AlignConfig& cfg, seq::SeqView query,
                      size_t top_k, const ExecContext& ctx) const;

  size_t shard_count() const noexcept;
  ShardStats shard_stats(size_t s) const noexcept;
  parallel::NumaPolicy numa_policy() const noexcept { return numa_; }
  const parallel::Topology& topology() const noexcept { return topo_; }
  /// Contiguous batch range [first, end) owned by shard `s`.
  std::pair<size_t, size_t> shard_range(size_t s) const noexcept;

  /// Split [0, batch_count) into `shards` contiguous ranges balanced by
  /// padded cells (sum of max_len * lanes), the quantity the kernel
  /// actually walks per query residue — so length-sorted packings don't
  /// starve the short-sequence shards. The same planner (plan_by_cells in
  /// align/batch_scan.hpp) then cuts each shard into per-request work
  /// chunks for the shard's pool. Exposed for tests.
  static std::vector<std::pair<size_t, size_t>> plan_shards(
      const core::Batch32Db& packed, size_t shards);

 private:
  struct Shard;
  ShardedSearch(const seq::SequenceDatabase& db, const core::Batch32Db& packed);

  const seq::SequenceDatabase* db_;
  const core::Batch32Db* packed_;
  parallel::Topology topo_;
  parallel::NumaPolicy numa_ = parallel::NumaPolicy::Off;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace swve::align

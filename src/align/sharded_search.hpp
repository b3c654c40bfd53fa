// The one database scan of scenarios 1 and 2: every unbanded search whose
// ISA drives the packed lanes (align::search_database's rule) and every
// query batch, sharded or not, runs here, with NUMA-aware placement and a
// bit-identical top-k merge.
//
// ShardedSearch splits a Batch32Db into S shards *between* batches (a batch
// is never split, so packing efficiency survives the split untouched) and
// scans all shards concurrently into bounded per-worker, per-query top-k
// heaps. Inside a shard, the workers pull cost-balanced
// (query, chunk) items of the shard's range from one cursor
// (align/batch_scan.hpp). scan() stops there, with score-only hits;
// search() adds phase 2, the exact re-alignment of one query's winners for
// their end cells. At S = 1 (the default) the single shard owns nothing:
// it runs on the caller's pool (ExecContext::pool; inline when null). At
// S >= 2 each shard gets a thread-pool slice pinned to one NUMA node
// (parallel/topology.hpp), and its column bytes are placed on its node
// (mbind under `bind`, page-interleave under `interleave`, first-touch
// otherwise), so no socket streams columns it does not own. Every worker
// scans with its own core::thread_workspace(); a pinned worker first
// touches it after pinning, so it too lives on the shard's node.
//
// Determinism: per-sequence scores are exact (the 8-bit kernel plus the
// 16/32-bit rescore ladder is deterministic, and batches are never split),
// and Hit's ordering is a strict total order (score desc, then seq_index
// asc, with seq_index unique). Top-k selection under a strict total order
// is a unique set whatever the partition shape, so merging each query's
// per-worker heaps at the end — SWAPHI's shard/merge shape, with NUMA
// nodes playing the coprocessor cards — returns the same hits for every
// shard count and pool size. tests/test_sharded_search.cpp checks that
// against a scalar golden top-k.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "align/db_search.hpp"
#include "core/error.hpp"
#include "parallel/topology.hpp"

namespace swve::align {

namespace detail {
struct ScanQuery;
}

/// Lifetime per-shard accounting snapshot (relaxed-atomic reads).
struct ShardStats {
  size_t first_batch = 0;
  size_t end_batch = 0;
  uint64_t sequences = 0;     ///< database sequences owned by the shard
  int node = -1;              ///< NUMA node the shard is pinned to (-1: none)
  unsigned threads = 0;       ///< own pool; one shard: last search's (0: none)
  bool bound = false;         ///< mbind of the shard's columns succeeded
  uint64_t searches = 0;
  uint64_t batches = 0;       ///< batch-kernel batches scanned (lifetime)
  uint64_t cells = 0;         ///< DP cells (8-bit + rescore ladder)
  uint64_t useful_cells = 0;
  uint64_t rescored = 0;
  double busy_seconds = 0;    ///< summed worker wall time inside this shard
  uint64_t llc_misses = 0;    ///< PMU deltas over shard scans (0: no PMU,
                              ///< or no session on the scans' context)
  uint64_t cycles = 0;
  size_t queue_depth = 0;     ///< jobs on the shard's own pool now (0: none)

  /// Shard throughput over its own busy time (not wall time): imbalance
  /// shows up as shards with equal gcups but unequal busy_seconds.
  double gcups() const noexcept {
    return busy_seconds > 0
               ? static_cast<double>(cells) / busy_seconds / 1e9
               : 0.0;
  }
};

/// The shard count a search over `batches` packed batches can take when
/// `wanted` are asked for: at most one shard per batch, and no more than
/// the metrics exporters report (perf::MetricsSnapshot::kMaxShards). Auto
/// (ShardOptions.shards == 0) asks for one per NUMA node; an empty
/// database gets 0, which runs as one shard.
size_t clamp_shard_count(size_t wanted, size_t batches) noexcept;

class ShardedSearch {
 public:
  /// Plan, and for two or more shards pin + place. `db`/`packed` must
  /// outlive the instance. Fails with ConfigError{Unsupported} when
  /// opt.shards is negative, or is two or more and exceeds the batch count
  /// (a shard with no batches could never be scanned). One shard accepts a
  /// packed database with no batches.
  static core::ErrorOr<std::unique_ptr<ShardedSearch>> create(
      const seq::SequenceDatabase& db, const core::Batch32Db& packed,
      const ShardOptions& opt);

  ~ShardedSearch();
  ShardedSearch(const ShardedSearch&) = delete;
  ShardedSearch& operator=(const ShardedSearch&) = delete;

  /// Phase 1 for every query at once: one result per query, in query
  /// order, with score-only hits (end_query = end_ref = -1), the query's
  /// batch_stats and its cells in stats. `cfg` must be validated with
  /// traceback off. A single shard runs on ctx.pool (inline when null);
  /// two or more ignore ctx.pool and use their own pools. ctx
  /// cancel/deadline is honored at batch granularity inside every shard; a
  /// stop marks every result truncated and withholds its hits.
  /// ctx.query_cache supplies the shared prepared queries, and
  /// ctx.trace.pmu the shard counters (wall time only when null).
  /// Identical hits for every shard count and pool size.
  /// Throws std::invalid_argument, before any scan starts, when cfg.isa
  /// cannot drive the packed lanes (core::batch_lanes_fit). Thread-safe.
  std::vector<SearchResult> scan(const core::AlignConfig& cfg,
                                 std::span<const seq::SeqView> queries,
                                 size_t top_k, const ExecContext& ctx) const;

  /// Scenario-1 batch search: scan() of one query, then exact re-alignment
  /// of the winners for their end cells (skipped when truncated).
  SearchResult search(const core::AlignConfig& cfg, seq::SeqView query,
                      size_t top_k, const ExecContext& ctx) const;

  /// Lanes of the packed database (what core::batch_lanes_fit checks).
  int lanes() const noexcept { return packed_->lanes(); }
  size_t shard_count() const noexcept;
  ShardStats shard_stats(size_t s) const noexcept;
  parallel::NumaPolicy numa_policy() const noexcept { return numa_; }
  const parallel::Topology& topology() const noexcept { return topo_; }

 private:
  struct Shard;
  ShardedSearch(const seq::SequenceDatabase& db, const core::Batch32Db& packed);
  /// scan() over queries whose feeds are already prepared.
  std::vector<SearchResult> scan_prepared(
      const core::AlignConfig& cfg, std::span<const detail::ScanQuery> queries,
      size_t top_k, const ExecContext& ctx) const;

  const seq::SequenceDatabase* db_;
  const core::Batch32Db* packed_;
  parallel::Topology topo_;
  parallel::NumaPolicy numa_ = parallel::NumaPolicy::Off;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace swve::align

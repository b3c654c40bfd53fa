// The batch32 scan loop of ShardedSearch, for one query or many.
//
// A shard's workers score a contiguous range of packed batches one batch at
// a time through core::score_batch (the 8-bit kernel plus the 8 -> 16 ->
// 32-bit rescore ladder for saturated lanes) and hand every scored sequence
// to a per-hit sink (ShardedSearch folds them into per-worker, per-query
// top-k heaps).
//
// Scheduling is by cost, not by batch count. A length-sorted database puts
// its longest batches last, so equal batch counts per worker leave the
// worker holding the tail busy while the others idle. BatchScan instead
// cuts its range into about kChunksPerWorker chunks per worker of roughly
// equal padded cells (plan_by_cells, the same planner that cuts shards).
// Every (query, chunk) pair is one item, costed query length x the chunk's
// summed max_len, and every worker pulls items, longest first, from one
// atomic cursor, so many short queries and one long query balance alike.
// Which worker scans which item varies from run to run; the result does
// not, because scores are exact per sequence and land in heaps whose merge
// is selection under Hit's strict total order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/db_search.hpp"
#include "core/prepared_query.hpp"
#include "obs/trace.hpp"
#include "perf/metrics.hpp"

namespace swve::align::detail {

/// Keep the k best hits offered. Selection, not ordering: under Hit's
/// strict total order any insertion order yields the same k survivors, so
/// per-worker heaps merge to the same answer as one heap over the scan.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) {}
  void offer(const Hit& h) {
    if (h.score <= 0 || k_ == 0) return;
    if (hits_.size() < k_) {
      hits_.push_back(h);
      std::push_heap(hits_.begin(), hits_.end());  // max-heap on operator<,
      return;                                      // i.e. worst hit at front
    }
    // Full: most offers lose to the worst kept hit and cost one compare.
    if (!(h < hits_.front())) return;
    std::pop_heap(hits_.begin(), hits_.end());
    hits_.back() = h;
    std::push_heap(hits_.begin(), hits_.end());
  }
  std::vector<Hit> sorted() && {
    std::sort(hits_.begin(), hits_.end());
    return std::move(hits_);
  }

 private:
  size_t k_;
  std::vector<Hit> hits_;
};

/// Split batches [begin, end) of `packed` into at most `parts` contiguous,
/// non-empty ranges of roughly equal padded cells (max_len * lanes per
/// batch: the work the kernel does per query residue whatever a batch
/// holds). Returns fewer ranges when [begin, end) has fewer than `parts`
/// batches, none when it is empty or parts == 0.
std::vector<std::pair<size_t, size_t>> plan_by_cells(
    const core::Batch32Db& packed, size_t begin, size_t end, size_t parts);

/// Phase 2 of a batch search: exact re-alignment of the winners in
/// out.hits for their end positions, adding that work to out.stats. An
/// Adaptive config starts each winner at the rung that holds its known
/// score (core::exact_score_width).
void realign_winners(const seq::SequenceDatabase& db,
                     const core::AlignConfig& cfg, seq::SeqView query,
                     const core::PreparedQuery* prep, SearchResult& out);

/// Chunks planned per worker. Enough that the last chunk to start is short
/// next to one worker's share, few enough that the cursor costs nothing
/// measurable.
inline constexpr size_t kChunksPerWorker = 16;

/// One query of a scan: its residues and the request's prepared feed
/// (core::score_batch's `prep`; null when the query is empty).
struct ScanQuery {
  seq::SeqView seq;
  const core::PreparedQuery* prep = nullptr;
};

/// One request's scan of batches [begin, end) for `queries` by `workers`
/// jobs. `queries` must outlive the scan. Throws std::invalid_argument
/// when `bdb` was packed for lanes that cfg.isa cannot drive
/// (core::batch_lanes_fit).
class BatchScan {
 public:
  BatchScan(const seq::SequenceDatabase& db, const core::Batch32Db& bdb,
            const core::AlignConfig& cfg, std::span<const ScanQuery> queries,
            const ExecContext& ctx, size_t begin, size_t end,
            unsigned workers);
  BatchScan(const BatchScan&) = delete;
  BatchScan& operator=(const BatchScan&) = delete;

  /// (query, chunk) items: at most workers * kChunksPerWorker chunks for
  /// every non-empty query; an empty query gets none.
  size_t item_count() const noexcept { return items_.size(); }
  /// True once any worker stopped early on ctx cancellation or deadline.
  bool truncated() const noexcept {
    return truncated_.load(std::memory_order_relaxed);
  }

  /// What one worker scanned.
  struct Tally {
    std::vector<core::BatchSearchStats> stats;  ///< per query
    uint64_t batches = 0;

    core::BatchSearchStats total() const noexcept {
      core::BatchSearchStats all{};
      for (const core::BatchSearchStats& s : stats) all += s;
      return all;
    }
  };

  /// One worker's share: pull items until none are left or ctx stops,
  /// calling sink(query, seq_index, score) once for every sequence scored.
  /// Opens one `chunk.search_batch` span over the whole share (none when
  /// the cursor was already dry), annotated with the kernel plan and
  /// `shard`.
  template <class Sink>
  Tally run(uint64_t shard, core::Workspace& ws, Sink&& sink);

 private:
  struct Item {
    uint32_t query;
    size_t begin, end;  // batches
  };
  bool next_item(Item& item) noexcept {
    const size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (c >= items_.size()) return false;
    item = items_[c];
    return true;
  }
  /// Scan one item batch by batch; false when ctx stopped the scan.
  template <class Sink>
  bool scan_item(const Item& item, core::Workspace& ws, obs::Span& span,
                 Tally& t, Sink& sink);

  const seq::SequenceDatabase& db_;
  const core::Batch32Db& bdb_;
  const core::AlignConfig& cfg_;
  std::span<const ScanQuery> queries_;
  const ExecContext& ctx_;
  simd::Isa isa_;
  std::vector<Item> items_;  // longest first
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> truncated_{false};
};

template <class Sink>
BatchScan::Tally BatchScan::run(uint64_t shard, core::Workspace& ws,
                                Sink&& sink) {
  Tally t;
  Item item;
  if (!next_item(item)) return t;
  t.stats.resize(queries_.size());
  obs::Span span(ctx_.trace, "chunk.search_batch");
  span.set_kernel(perf::KernelVariant::Batch32);
  span.set_index(shard);
  span.set_isa(isa_);
  span.set_width_bits(8);
  span.set_lanes(static_cast<uint32_t>(bdb_.lanes()));
  do {
    if (!scan_item(item, ws, span, t, sink)) break;
  } while (next_item(item));
  const core::BatchSearchStats all = t.total();
  span.add_cells(all.cells8 + all.rescored_cells);
  span.set_useful_cells(all.useful_cells8 + all.rescored_cells);
  return t;
}

template <class Sink>
bool BatchScan::scan_item(const Item& item, core::Workspace& ws,
                          obs::Span& span, Tally& t, Sink& sink) {
  const ScanQuery& q = queries_[item.query];
  core::BatchSearchStats& stats = t.stats[item.query];
  int scores[64];
  for (size_t b = item.begin; b < item.end; ++b) {
    if (ctx_.should_stop()) {  // per-batch cancellation/deadline check
      truncated_.store(true, std::memory_order_relaxed);
      span.set_trunc(ctx_.cancelled() ? obs::TruncCause::Cancelled
                                      : obs::TruncCause::Deadline);
      return false;
    }
    const core::Batch32Db::Batch batch = bdb_.batch(b);
    core::score_batch(q.seq, batch, bdb_.lanes(), db_, cfg_, isa_, ws, q.prep,
                      scores, stats);
    for (uint32_t k = 0; k < batch.count; ++k)
      sink(item.query, batch.seq_index[k], scores[k]);
    ++t.batches;
  }
  return true;
}

}  // namespace swve::align::detail

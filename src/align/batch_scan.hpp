// The batch32 scan shared by engine::search_batch and ShardedSearch.
//
// Both paths score a contiguous range of packed batches the same way, one
// batch at a time through core::score_batch (the 8-bit kernel plus the
// 8 -> 16 -> 32-bit rescore ladder for saturated lanes). They differ only in
// where a scored sequence goes (the flat path writes a score vector by
// sequence index, shards fold into per-worker top-k heaps), so the loop
// lives here once and takes a per-hit sink.
//
// Scheduling is by cost, not by batch count. A length-sorted database puts
// its longest batches last, so equal batch counts per worker leave the
// worker holding the tail busy while the others idle. BatchScan instead
// cuts its range into about kChunksPerWorker chunks per worker of roughly
// equal padded cells (plan_by_cells, the same planner that cuts shards),
// and every worker pulls chunks, longest first, from one atomic cursor.
// Which worker scans which chunk varies from run to run; the result does
// not, because scores are exact per sequence and land by sequence index (or
// in heaps whose merge is selection under Hit's strict total order).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
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
    if (h.score <= 0) return;
    hits_.push_back(h);
    std::push_heap(hits_.begin(), hits_.end());  // max-heap on operator<,
    if (hits_.size() > k_) {                     // i.e. worst hit at front
      std::pop_heap(hits_.begin(), hits_.end());
      hits_.pop_back();
    }
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
/// out.hits for their end positions, then the scan's cells (out.batch_stats)
/// folded into out.stats.
void realign_winners(const seq::SequenceDatabase& db,
                     const core::AlignConfig& cfg, seq::SeqView query,
                     const core::PreparedQuery* prep, const ExecContext& ctx,
                     SearchResult& out);

/// Chunks planned per worker. Enough that the last chunk to start is short
/// next to one worker's share, few enough that the cursor costs nothing
/// measurable.
inline constexpr size_t kChunksPerWorker = 16;

/// One request's scan of batches [begin, end) by `workers` jobs. Throws
/// std::invalid_argument when `bdb` was packed for lanes that cfg.isa
/// cannot drive (core::batch_lanes_fit).
class BatchScan {
 public:
  BatchScan(const seq::SequenceDatabase& db, const core::Batch32Db& bdb,
            const core::AlignConfig& cfg, seq::SeqView query,
            const core::PreparedQuery* prep, const ExecContext& ctx,
            size_t begin, size_t end, unsigned workers);
  BatchScan(const BatchScan&) = delete;
  BatchScan& operator=(const BatchScan&) = delete;

  /// Chunks the scan was cut into (at most workers * kChunksPerWorker).
  size_t chunk_count() const noexcept { return chunks_.size(); }
  /// True once any worker stopped early on ctx cancellation or deadline.
  bool truncated() const noexcept {
    return truncated_.load(std::memory_order_relaxed);
  }

  /// What one worker scanned.
  struct Tally {
    core::BatchSearchStats stats;
    uint64_t batches = 0;
  };

  /// One worker's share: pull chunks until none are left or ctx stops,
  /// calling sink(seq_index, score) once for every sequence scored. Opens
  /// one span named `span_name` over the whole share (none when the cursor
  /// was already dry), annotated with the kernel plan and `span_index`.
  template <class Sink>
  Tally run(const char* span_name, uint64_t span_index, core::Workspace& ws,
            Sink&& sink);

 private:
  bool next_chunk(std::pair<size_t, size_t>& chunk) noexcept {
    const size_t c = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_.size()) return false;
    chunk = chunks_[c];
    return true;
  }
  /// Scan one chunk batch by batch; false when ctx stopped the scan.
  template <class Sink>
  bool scan_chunk(std::pair<size_t, size_t> chunk, core::Workspace& ws,
                  obs::Span& span, Tally& t, Sink& sink);

  const seq::SequenceDatabase& db_;
  const core::Batch32Db& bdb_;
  const core::AlignConfig& cfg_;
  seq::SeqView query_;
  const core::PreparedQuery* prep_;
  const ExecContext& ctx_;
  simd::Isa isa_;
  std::vector<std::pair<size_t, size_t>> chunks_;  // longest first
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> truncated_{false};
};

template <class Sink>
BatchScan::Tally BatchScan::run(const char* span_name, uint64_t span_index,
                                core::Workspace& ws, Sink&& sink) {
  Tally t;
  std::pair<size_t, size_t> chunk;
  if (!next_chunk(chunk)) return t;
  obs::Span span(ctx_.trace, span_name);
  span.set_kernel(perf::KernelVariant::Batch32);
  span.set_index(span_index);
  span.set_isa(isa_);
  span.set_width_bits(8);
  span.set_lanes(static_cast<uint32_t>(bdb_.lanes()));
  do {
    if (!scan_chunk(chunk, ws, span, t, sink)) break;
  } while (next_chunk(chunk));
  span.add_cells(t.stats.cells8 + t.stats.rescored_cells);
  span.set_useful_cells(t.stats.useful_cells8 + t.stats.rescored_cells);
  return t;
}

template <class Sink>
bool BatchScan::scan_chunk(std::pair<size_t, size_t> chunk,
                           core::Workspace& ws, obs::Span& span, Tally& t,
                           Sink& sink) {
  int scores[64];
  for (size_t b = chunk.first; b < chunk.second; ++b) {
    if (ctx_.should_stop()) {  // per-batch cancellation/deadline check
      truncated_.store(true, std::memory_order_relaxed);
      span.set_trunc(ctx_.cancelled() ? obs::TruncCause::Cancelled
                                      : obs::TruncCause::Deadline);
      return false;
    }
    const core::Batch32Db::Batch batch = bdb_.batch(b);
    core::score_batch(query_, batch, bdb_.lanes(), db_, cfg_, isa_, ws, prep_,
                      scores, t.stats);
    for (uint32_t k = 0; k < batch.count; ++k)
      sink(batch.seq_index[k], scores[k]);
    ++t.batches;
  }
  return true;
}

}  // namespace swve::align::detail

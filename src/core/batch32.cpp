#include "core/batch32.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/batch32_kernel.hpp"
#include "core/dispatch.hpp"

namespace swve::core {

const char* packing_policy_name(PackingPolicy p) noexcept {
  switch (p) {
    case PackingPolicy::DbOrder: return "db-order";
    case PackingPolicy::LengthSorted: return "length-sorted";
    case PackingPolicy::LengthBinned: return "length-binned";
  }
  return "?";
}

namespace {

/// Sequence order the batches are cut from, per policy.
std::vector<uint32_t> packing_order(const seq::SequenceDatabase& db,
                                    PackingPolicy policy) {
  switch (policy) {
    case PackingPolicy::LengthSorted:
      return db.by_length();  // ascending length: minimal padding
    case PackingPolicy::DbOrder: {
      std::vector<uint32_t> order(db.size());
      for (size_t s = 0; s < db.size(); ++s)
        order[s] = static_cast<uint32_t>(s);
      return order;
    }
    case PackingPolicy::LengthBinned: {
      // Geometric bins: bin b holds lengths in [2^b, 2^(b+1)), so every
      // batch mixes lengths within at most 2x. A counting pass sizes the
      // bins, then a stable scatter preserves database order inside each.
      auto bin_of = [](size_t len) {
        return len == 0 ? 0 : static_cast<int>(std::bit_width(len)) - 1;
      };
      int max_bin = 0;
      for (size_t s = 0; s < db.size(); ++s)
        max_bin = std::max(max_bin, bin_of(db[s].length()));
      std::vector<size_t> bin_start(static_cast<size_t>(max_bin) + 2, 0);
      for (size_t s = 0; s < db.size(); ++s)
        ++bin_start[static_cast<size_t>(bin_of(db[s].length())) + 1];
      for (size_t b = 1; b < bin_start.size(); ++b)
        bin_start[b] += bin_start[b - 1];
      std::vector<uint32_t> order(db.size());
      for (size_t s = 0; s < db.size(); ++s)
        order[bin_start[static_cast<size_t>(bin_of(db[s].length()))]++] =
            static_cast<uint32_t>(s);
      return order;
    }
  }
  return db.by_length();
}

}  // namespace

Batch32Db::Batch32Db(const seq::SequenceDatabase& db, int lanes,
                     PackingPolicy policy)
    : lanes_(lanes), policy_(policy) {
  if (lanes != 32 && lanes != 64)
    throw std::invalid_argument("Batch32Db: lanes must be 32 or 64");
  total_seqs_ = db.size();
  const std::vector<uint32_t> order = packing_order(db, policy);

  for (size_t start = 0; start < order.size(); start += static_cast<size_t>(lanes)) {
    const size_t count = std::min(static_cast<size_t>(lanes), order.size() - start);
    uint32_t max_len = 0;
    for (size_t k = 0; k < count; ++k)
      max_len = std::max(max_len,
                         static_cast<uint32_t>(db[order[start + k]].length()));
    if (max_len == 0) continue;  // batch of empty sequences: nothing to score

    BatchRecord meta;
    meta.column_offset = columns_.size();
    meta.index_offset = seq_index_.size();
    meta.max_len = max_len;
    meta.count = static_cast<uint32_t>(count);
    meta.real_residues = 0;

    for (size_t k = 0; k < count; ++k) {
      seq_index_.push_back(order[start + k]);
      seq_len_.push_back(static_cast<uint32_t>(db[order[start + k]].length()));
    }

    // Transpose: column j holds residue j of every lane (pad past the end).
    const size_t base = columns_.size();
    columns_.resize(base + static_cast<size_t>(max_len) * static_cast<size_t>(lanes),
                    kBatchPadCode);
    for (size_t k = 0; k < count; ++k) {
      const seq::Sequence& s = db[order[start + k]];
      const uint8_t* codes = s.data();
      for (size_t j = 0; j < s.length(); ++j)
        columns_[base + j * static_cast<size_t>(lanes) + k] = codes[j];
      meta.real_residues += s.length();
    }
    real_residues_ += meta.real_residues;
    padded_residues_ +=
        static_cast<uint64_t>(max_len) * static_cast<uint64_t>(lanes);
    batches_.push_back(meta);
  }

  columns_p_ = columns_.data();
  seq_index_p_ = seq_index_.data();
  seq_len_p_ = seq_len_.data();
  batches_p_ = batches_.data();
  batch_count_ = batches_.size();
  column_bytes_ = columns_.size();
  index_entries_ = seq_index_.size();
}

Batch32Db::Batch32Db(const PackedView& view)
    : lanes_(view.lanes),
      policy_(view.policy),
      view_(true),
      total_seqs_(view.total_seqs),
      real_residues_(view.real_residues),
      padded_residues_(view.padded_residues),
      columns_p_(view.columns),
      seq_index_p_(view.seq_index),
      seq_len_p_(view.seq_len),
      batches_p_(view.batches),
      batch_count_(view.batch_count) {
  if (lanes_ != 32 && lanes_ != 64)
    throw std::invalid_argument("Batch32Db: lanes must be 32 or 64");
  for (size_t b = 0; b < batch_count_; ++b) {
    const BatchRecord& r = batches_p_[b];
    column_bytes_ =
        std::max(column_bytes_,
                 static_cast<size_t>(r.column_offset) +
                     static_cast<size_t>(r.max_len) * static_cast<size_t>(lanes_));
    index_entries_ = std::max(
        index_entries_, static_cast<size_t>(r.index_offset) + r.count);
  }
}

Batch32Db::Batch Batch32Db::batch(size_t b) const noexcept {
  const BatchRecord& meta = batches_p_[b];
  return Batch{columns_p_ + meta.column_offset, meta.max_len, meta.count,
               seq_index_p_ + meta.index_offset,
               seq_len_p_ + meta.index_offset, meta.real_residues};
}

std::span<const uint8_t> Batch32Db::column_bytes() const noexcept {
  return {columns_p_, column_bytes_};
}
std::span<const uint8_t> Batch32Db::column_range(
    size_t first_batch, size_t end_batch) const noexcept {
  if (first_batch >= end_batch || end_batch > batch_count_) return {};
  const size_t begin = batches_p_[first_batch].column_offset;
  const size_t end = end_batch < batch_count_
                         ? static_cast<size_t>(batches_p_[end_batch].column_offset)
                         : column_bytes_;
  if (begin >= end || end > column_bytes_) return {};
  return {columns_p_ + begin, end - begin};
}
std::span<const uint32_t> Batch32Db::seq_index_data() const noexcept {
  return {seq_index_p_, index_entries_};
}
std::span<const uint32_t> Batch32Db::seq_len_data() const noexcept {
  return {seq_len_p_, index_entries_};
}
std::span<const BatchRecord> Batch32Db::batch_records() const noexcept {
  return {batches_p_, batch_count_};
}

double Batch32Db::packing_efficiency() const noexcept {
  return padded_residues_ == 0
             ? 0.0
             : static_cast<double>(real_residues_) /
                   static_cast<double>(padded_residues_);
}

double Batch32Db::padding_overhead() const noexcept {
  return real_residues_ == 0
             ? 0.0
             : static_cast<double>(padded_residues_) /
                       static_cast<double>(real_residues_) -
                   1.0;
}

Batch8Result batch32_u8_scalar(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               int lanes, const AlignConfig& cfg, Workspace& ws) {
  if (lanes == 64) return batch32_kernel<EmuBatchEngine<64>>(q, columns, cols, cfg, ws);
  return batch32_kernel<EmuBatchEngine<32>>(q, columns, cols, cfg, ws);
}

Batch8Result batch32_align_u8(seq::SeqView q, const Batch32Db::Batch& batch, int lanes,
                              const AlignConfig& cfg, Workspace& ws, simd::Isa isa) {
  cfg.validate();
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (lanes == 64 && isa == simd::Isa::Avx512 && simd::cpu_features().avx512vbmi)
    return batch32_u8_avx512(q, batch.columns, batch.max_len, cfg, ws);
#endif
#if defined(SWVE_HAVE_AVX2_BUILD)
  if (lanes == 32 && (isa == simd::Isa::Avx2 || isa == simd::Isa::Avx512) &&
      simd::cpu_features().avx2)
    return batch32_u8_avx2(q, batch.columns, batch.max_len, cfg, ws);
#endif
  return batch32_u8_scalar(q, batch.columns, batch.max_len, lanes, cfg, ws);
}

void batch32_align_u8_group(seq::SeqView q, const BatchCols* batches, int count,
                            int lanes, const AlignConfig& cfg, Workspace& ws,
                            simd::Isa isa, int /*k_interleave*/, Batch8Result* out) {
  for (int i = 0; i < count; ++i) {
    Batch32Db::Batch batch{};
    batch.columns = batches[i].columns;
    batch.max_len = batches[i].ncols;
    out[i] = batch32_align_u8(q, batch, lanes, cfg, ws, isa);
  }
}

int batch_lanes_for(simd::Isa isa) noexcept {
#if defined(SWVE_HAVE_AVX512_BUILD)
  if (isa == simd::Isa::Avx512 && simd::cpu_features().avx512vbmi) return 64;
#endif
  (void)isa;
  return 32;
}

bool batch_lanes_fit(int lanes, simd::Isa isa) noexcept {
  return lanes == 32 || lanes == batch_lanes_for(isa);
}

void score_batch(seq::SeqView q, const Batch32Db::Batch& batch, int lanes,
                 const seq::SequenceDatabase& db, const AlignConfig& cfg,
                 simd::Isa isa, Workspace& ws, const PreparedQuery* prep,
                 int* scores, BatchSearchStats& stats) {
  const Batch8Result r8 = batch32_align_u8(q, batch, lanes, cfg, ws, isa);
  stats.cells8 += static_cast<uint64_t>(batch.max_len) * q.length *
                  static_cast<uint64_t>(lanes);
  stats.useful_cells8 += batch.real_residues * q.length;
  for (uint32_t k = 0; k < batch.count; ++k) {
    if (!(r8.saturated_mask & (uint64_t{1} << k))) {
      scores[k] = r8.max_score[k];
      continue;
    }
    // Exact re-score with the diagonal kernel at 16 bits, then 32.
    const seq::Sequence& s = db[batch.seq_index[k]];
    AlignConfig wide = cfg;
    wide.width = Width::W16;
    wide.isa = isa;
    Alignment a = diag_align(q, s, wide, ws, prep);
    if (a.saturated) {
      wide.width = Width::W32;
      a = diag_align(q, s, wide, ws, prep);
    }
    scores[k] = a.score;
    ++stats.rescored;
    stats.rescored_cells += a.stats.cells;
  }
}

std::vector<int> batch_scores(seq::SeqView q, const Batch32Db& bdb,
                              const seq::SequenceDatabase& db, const AlignConfig& cfg,
                              Workspace& ws, BatchSearchStats* stats,
                              const PreparedQuery* prep) {
  cfg.validate();
  if (cfg.traceback)
    throw std::invalid_argument("batch_scores: traceback is not supported; "
                                "re-align candidates with Aligner instead");
  if (cfg.band >= 0)
    throw std::invalid_argument("batch_scores: banding is not supported by the "
                                "inter-sequence kernel");
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  if (!batch_lanes_fit(bdb.lanes(), isa))
    throw std::invalid_argument("batch_scores: database packed for a different ISA");

  std::vector<int> scores(db.size(), 0);
  BatchSearchStats local{};
  int lane_scores[64];
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    const Batch32Db::Batch batch = bdb.batch(b);
    score_batch(q, batch, bdb.lanes(), db, cfg, isa, ws, prep, lane_scores, local);
    for (uint32_t k = 0; k < batch.count; ++k)
      scores[batch.seq_index[k]] = lane_scores[k];
  }
  if (stats) *stats = local;
  return scores;
}

}  // namespace swve::core

// Inter-sequence batch kernel (Fig 5 of the paper).
//
// The database is reorganized offline into batches of `lanes` transposed
// sequences: byte k of column j is residue j of the batch's k-th sequence,
// so one vector load yields "the same position of 32 different sequences"
// and every lane runs its own private DP matrix (vectorization method (b) of
// Fig 1 — no intra-matrix dependencies at all). Substitution scores come
// from an in-register 32-entry lookup of the query residue's matrix row:
// the row is exactly one 256-bit load (rows are padded to 32 bytes), and
// the lookup is vpermb under AVX-512-VBMI or a double-pshufb+blend under
// AVX2 ("extract scores with AVX shuffling instructions").
//
// The kernel is 8-bit and score-only: it is the high-throughput scoring
// front end of scenario 2 (batch of queries vs database). Lanes that
// saturate are re-scored exactly by the diagonal kernel's 16/32-bit ladder.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "core/workspace.hpp"
#include "seq/database.hpp"

namespace swve::core {

class PreparedQuery;  // core/prepared_query.hpp

/// How Batch32Db orders sequences across batches. Every policy keeps the
/// seq_index indirection, so scores always land at original database
/// indices and results are bit-identical across policies — only the DP work
/// spent on padding differs.
enum class PackingPolicy : uint8_t {
  /// Database order. Every batch pays max_len over a mixed-length group, so
  /// most of the 8-bit kernel's work can land on padding (the layout the
  /// batch kernel naively inherits from the input). Kept for comparison
  /// benchmarks and for callers that require packed order == input order.
  DbOrder,
  /// Ascending length order: for a fixed lane count this minimizes the sum
  /// of per-batch max_len, i.e. it is the padding-optimal packing (the
  /// SWAPHI / SSW approach). The default.
  LengthSorted,
  /// Geometric length bins (each bin spans lengths within 2x), database
  /// order preserved inside a bin. Padding within ~2x of optimal while
  /// keeping batch members close in database order — friendlier to callers
  /// that correlate nearby indices (rescore locality, sharding).
  LengthBinned,
};
const char* packing_policy_name(PackingPolicy p) noexcept;

/// One batch's placement inside the packed buffers. The layout is fixed and
/// padding-free (32 bytes) because this struct is also the on-disk batch
/// record of the swve db artifact (core/db_format.hpp): changing it means
/// bumping the format version.
struct BatchRecord {
  uint64_t column_offset;  ///< into the column stream, in bytes
  uint64_t index_offset;   ///< into seq_index/seq_len, in entries
  uint32_t max_len;
  uint32_t count;
  uint64_t real_residues;
};
static_assert(sizeof(BatchRecord) == 32, "BatchRecord is an on-disk layout");

/// Non-owning description of an already-packed database — the shape of the
/// batch sections inside an mmap'd swve db artifact. Every pointer must
/// outlive any Batch32Db view built on top of it.
struct PackedView {
  int lanes = 32;
  PackingPolicy policy = PackingPolicy::LengthSorted;
  size_t total_seqs = 0;
  uint64_t real_residues = 0;
  uint64_t padded_residues = 0;
  const uint8_t* columns = nullptr;    ///< concatenated transposed columns
  const uint32_t* seq_index = nullptr;
  const uint32_t* seq_len = nullptr;
  const BatchRecord* batches = nullptr;
  size_t batch_count = 0;
};

/// Database packed for the batch kernel. Sequences are length-sorted (or
/// binned, per PackingPolicy) before batching so per-batch padding (to the
/// batch max length) stays small.
class Batch32Db {
 public:
  /// `lanes` is the kernel width in sequences: 32 (AVX2 / scalar) or 64
  /// (AVX-512 VBMI). The final ragged batch is padded with empty lanes.
  Batch32Db(const seq::SequenceDatabase& db, int lanes,
            PackingPolicy policy = PackingPolicy::LengthSorted);

  /// View mode: serve batches straight out of externally-owned storage (an
  /// mmap'd artifact). No copies; search results are bit-identical to an
  /// owned Batch32Db packed with the same lanes/policy.
  explicit Batch32Db(const PackedView& view);

  struct Batch {
    const uint8_t* columns;  ///< max_len columns of `lanes` bytes each
    uint32_t max_len;        ///< longest sequence in the batch
    uint32_t count;          ///< valid lanes (rest are padding)
    const uint32_t* seq_index;  ///< count entries: original database indices
    const uint32_t* seq_len;    ///< count entries
    uint64_t real_residues;  ///< sum of seq_len (useful-cell accounting)
  };

  int lanes() const noexcept { return lanes_; }
  PackingPolicy policy() const noexcept { return policy_; }
  size_t batch_count() const noexcept { return batch_count_; }
  Batch batch(size_t b) const noexcept;
  size_t sequence_count() const noexcept { return total_seqs_; }
  /// False in view mode (storage belongs to the mapped artifact).
  bool owns_storage() const noexcept { return !view_; }
  /// Raw packed storage, exposed for the artifact writer. Valid in both
  /// owned and view modes.
  std::span<const uint8_t> column_bytes() const noexcept;
  /// Column bytes owned by batches [first_batch, end_batch) — the packing
  /// keeps column storage in batch order, so a contiguous batch range maps
  /// to one contiguous byte range. This is the unit of shard placement
  /// (mbind / madvise of exactly one shard's stream); empty span on an
  /// empty or out-of-range request.
  std::span<const uint8_t> column_range(size_t first_batch,
                                        size_t end_batch) const noexcept;
  std::span<const uint32_t> seq_index_data() const noexcept;
  std::span<const uint32_t> seq_len_data() const noexcept;
  std::span<const BatchRecord> batch_records() const noexcept;
  /// Residues of actual sequence data packed into the columns.
  uint64_t real_residues() const noexcept { return real_residues_; }
  /// Residues the kernel will actually walk: sum over batches of
  /// max_len * lanes (padding included).
  uint64_t padded_residues() const noexcept { return padded_residues_; }
  /// Packing efficiency: real residues / padded residues, in (0, 1].
  /// Multiplying by a query length turns it into useful cells / DP cells.
  double packing_efficiency() const noexcept;
  /// Padding overhead: padded cells / real cells - 1.
  double padding_overhead() const noexcept;

 private:
  int lanes_;
  PackingPolicy policy_;
  bool view_ = false;
  size_t total_seqs_ = 0;
  uint64_t real_residues_ = 0;
  uint64_t padded_residues_ = 0;
  // Owned storage (empty in view mode).
  std::vector<uint8_t> columns_;
  std::vector<uint32_t> seq_index_;
  std::vector<uint32_t> seq_len_;
  std::vector<BatchRecord> batches_;
  // Access always goes through these; the owned ctor points them at the
  // vectors above, the view ctor at the caller's storage.
  const uint8_t* columns_p_ = nullptr;
  const uint32_t* seq_index_p_ = nullptr;
  const uint32_t* seq_len_p_ = nullptr;
  const BatchRecord* batches_p_ = nullptr;
  size_t batch_count_ = 0;
  size_t column_bytes_ = 0;   // total bytes behind columns_p_
  size_t index_entries_ = 0;  // entries behind seq_index_p_/seq_len_p_
};

/// Pad residue code used for lanes past a sequence's end and for empty
/// lanes: the top padded matrix row/column, which scores the matrix minimum
/// against everything (and never equals a real query code in Fixed mode).
inline constexpr uint8_t kBatchPadCode = seq::kMatrixStride - 1;

/// Raw per-batch 8-bit result.
struct Batch8Result {
  uint8_t max_score[64];    ///< per-lane running maximum (unbiased H domain)
  uint64_t saturated_mask;  ///< lanes whose max hit the saturation bound
};

/// Run the 8-bit batch kernel for one query against one batch.
/// `isa` must be resolved; falls back internally if the ISA lacks the
/// required byte-shuffle support. Affine/Linear and Matrix/Fixed honored;
/// traceback is not supported (by design, see header comment).
Batch8Result batch32_align_u8(seq::SeqView q, const Batch32Db::Batch& batch, int lanes,
                              const AlignConfig& cfg, Workspace& ws, simd::Isa isa);

/// Lanes per batch the kernel drives natively at a resolved `isa`: 64 under
/// AVX-512 VBMI, else 32.
int batch_lanes_for(simd::Isa isa) noexcept;

/// True when a database packed `lanes` wide can be scanned at resolved
/// `isa`: the lanes are 32 or batch_lanes_for(isa). Every batch search entry
/// point rejects other pairings (64 lanes on a non-VBMI ISA), which would
/// run the emulated 64-lane kernel. 32 lanes always fit; below AVX2 they
/// run on the emulated engine.
bool batch_lanes_fit(int lanes, simd::Isa isa) noexcept;

/// Score one query against the whole packed database: runs the 8-bit batch
/// kernel and transparently re-scores saturated lanes with the diagonal
/// kernel's 16/32-bit ladder. Returns scores indexed by original database
/// sequence index, plus statistics.
struct BatchSearchStats {
  uint64_t cells8 = 0;        ///< DP cells done by the 8-bit batch kernel
                              ///< (padding included: max_len * lanes * m)
  uint64_t useful_cells8 = 0; ///< cells8 that landed on real residues
  uint64_t rescored = 0;      ///< sequences re-scored at 16/32 bits
  uint64_t rescored_cells = 0;

  /// Useful fraction of the 8-bit kernel's work, in (0, 1]; 0 if none ran.
  double packing_efficiency() const noexcept {
    return cells8 > 0
               ? static_cast<double>(useful_cells8) / static_cast<double>(cells8)
               : 0.0;
  }

  BatchSearchStats& operator+=(const BatchSearchStats& o) noexcept {
    cells8 += o.cells8;
    useful_cells8 += o.useful_cells8;
    rescored += o.rescored;
    rescored_cells += o.rescored_cells;
    return *this;
  }
};
/// `prep`, when non-null, must be a PreparedQuery built from exactly `q`;
/// the 16/32-bit rescore ladder then skips rebuilding its query feeds.
std::vector<int> batch_scores(seq::SeqView q, const Batch32Db& bdb,
                              const seq::SequenceDatabase& db, const AlignConfig& cfg,
                              Workspace& ws, BatchSearchStats* stats = nullptr,
                              const PreparedQuery* prep = nullptr);

/// Exact scores of one packed batch, in lane order: scores[k] belongs to
/// batch.seq_index[k]. Runs the 8-bit kernel, re-scores saturated lanes at
/// 16 and then 32 bits, and adds the work to `stats`. `isa` must be
/// resolved. This is the per-batch body of batch_scores and of the align
/// layer's BatchScan; `prep` is as for batch_scores.
void score_batch(seq::SeqView q, const Batch32Db::Batch& batch, int lanes,
                 const seq::SequenceDatabase& db, const AlignConfig& cfg,
                 simd::Isa isa, Workspace& ws, const PreparedQuery* prep,
                 int* scores, BatchSearchStats& stats);

// Per-ISA kernel entry points (internal; exposed for tests/benches).
Batch8Result batch32_u8_scalar(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               int lanes, const AlignConfig& cfg, Workspace& ws);
#if defined(SWVE_HAVE_AVX2_BUILD)
Batch8Result batch32_u8_avx2(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                             const AlignConfig& cfg, Workspace& ws);  // 32 lanes
#endif
#if defined(SWVE_HAVE_AVX512_BUILD)
Batch8Result batch32_u8_avx512(seq::SeqView q, const uint8_t* columns, uint32_t cols,
                               const AlignConfig& cfg, Workspace& ws);  // 64 lanes
#endif

// These four names exist only so perfbench/src/search.cpp, their one
// caller outside the tests, still compiles: it was written against the
// removed multi-batch interleave. The batch kernel has one loop, so the
// depth is always 1 and the group call scores its batches one at a time.
inline constexpr int kMaxBatchInterleave = 1;
inline constexpr auto resolved_ilp = [](simd::Isa) noexcept { return 1; };
struct BatchCols {
  const uint8_t* columns = nullptr;  ///< ncols blocks of `lanes` bytes
  uint32_t ncols = 0;                ///< the batch's max_len
};
/// out[i] = batch32_align_u8 over batches[i]; `k_interleave` is ignored.
void batch32_align_u8_group(seq::SeqView q, const BatchCols* batches, int count,
                            int lanes, const AlignConfig& cfg, Workspace& ws,
                            simd::Isa isa, int k_interleave, Batch8Result* out);

}  // namespace swve::core

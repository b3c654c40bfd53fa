// Reusable per-thread scratch memory for the alignment kernels.
//
// "SW as a subroutine" (scenario 3) calls align() millions of times on small
// sequences; every kernel therefore takes a Workspace& and allocates nothing
// once the workspace has warmed up to the largest (m, n) seen. The engines
// and the service take theirs from thread_workspace(): one per thread, kept
// until the thread exits, with no lock and no lease.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace swve::core {

/// Elements of padding kept on each side of the diagonal DP buffers so that
/// unaligned vector loads at index i-1 and ragged-edge reads stay in bounds.
/// Sized for the widest engine (64 lanes of AVX-512 u8).
inline constexpr int kPad = 64;

/// 64-byte-aligned, grow-only byte buffer.
class AlignedBuf {
 public:
  AlignedBuf() = default;
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  AlignedBuf(AlignedBuf&& o) noexcept { *this = std::move(o); }
  AlignedBuf& operator=(AlignedBuf&& o) noexcept {
    if (this != &o) {
      release();
      ptr_ = std::exchange(o.ptr_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~AlignedBuf() { release(); }

  /// Ensure at least `bytes` capacity; contents are NOT preserved on growth.
  void* ensure(size_t bytes) {
    if (bytes > size_) {
      release();
      size_t rounded = (bytes + 63) & ~size_t{63};
      ptr_ = std::aligned_alloc(64, rounded);
      if (!ptr_) throw std::bad_alloc();
      size_ = rounded;
    }
    return ptr_;
  }
  /// ensure() + memset 0.
  void* ensure_zeroed(size_t bytes) {
    void* p = ensure(bytes);
    std::memset(p, 0, bytes);
    return p;
  }
  void* data() noexcept { return ptr_; }
  size_t capacity() const noexcept { return size_; }

 private:
  void release() noexcept {
    std::free(ptr_);
    ptr_ = nullptr;
    size_ = 0;
  }
  void* ptr_ = nullptr;
  size_t size_ = 0;
};

/// Scratch buffers for one in-flight alignment. Not thread-safe: use one
/// Workspace per thread.
struct Workspace {
  // Diagonal-linearized DP state (Fig 2): three H diagonals, two E, two F,
  // each (m + 2*kPad) elements of the kernel's element width.
  AlignedBuf h[3];
  AlignedBuf e[2];
  AlignedBuf f[2];

  // Deferred-maximum tracking (§III-D): per-query-row running maximum and
  // the anti-diagonal index at which it was last improved.
  AlignedBuf rowmax;        // m elements (kernel width)
  AlignedBuf best_diag;     // m int32

  // Gather feed (Fig 4): 32*q[i] and the reversed reference, both int32 so
  // index arithmetic is one vector add.
  AlignedBuf qmul32;        // m + kPad int32
  AlignedBuf dbrev32;       // n + kPad int32
  // Fill-delivery staging: one diagonal of substitution scores.
  AlignedBuf diag_scores;   // (m + 2*kPad) elements

  // Fixed-score compare feed: encoded residues widened to the kernel width.
  AlignedBuf qenc;          // (m + kPad) elements
  AlignedBuf dbrev_enc;     // (n + kPad) elements

  // Column sweep: biased scores of every query row against each reference
  // code present, one group of vectors per code.
  AlignedBuf column_prof;   // up to 256 codes * 512 bytes

  // Traceback: per-cell direction bytes (diagonal-major for the diagonal
  // kernels, column-major for the column sweep) plus the per-diagonal
  // offsets into that buffer.
  AlignedBuf tb_dirs;       // m*n bytes (guarded by max_traceback_cells)
  AlignedBuf tb_offsets;    // (m+n) uint64

  // Batch32 kernel (Fig 5): per-query-row H and F vectors, one vector of
  // `lanes` bytes per row, and the current column block's score profile,
  // one vector per letter and block column (prof[letter][k]).
  AlignedBuf batch_h;     // m * lanes bytes
  AlignedBuf batch_f;     // m * lanes bytes
  AlignedBuf batch_prof;  // 32 * 4 * lanes bytes (8 KiB at 64 lanes)

  // Baseline kernels (striped / scan / diag-basic): column state and
  // per-diagonal score scratch.
  AlignedBuf baseline[4];
};

/// The calling thread's Workspace, built on first use and kept (at the size
/// of its largest request) until the thread exits. A pinned pool worker
/// touches it only after pinning, so first-touch places its pages on the
/// worker's node. Its contents are scratch: any call that takes it may
/// overwrite them, so keep nothing in it across such a call.
inline Workspace& thread_workspace() noexcept {
  thread_local Workspace ws;
  return ws;
}

}  // namespace swve::core

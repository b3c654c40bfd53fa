// The paper's diagonal kernel, written once as a template over a SIMD
// engine and instantiated per ISA (scalar/AVX2/AVX-512) x width (8/16/32) x
// gap model x score mode x traceback.
//
// Shape of the computation (DESIGN.md §3):
//   * anti-diagonal wavefront d = i + j; DP buffers are indexed by the query
//     row i and triple/double buffered over d, so every dependency —
//     H(i,j-1), H(i-1,j), H(i-1,j-1), E(i-1,j), F(i,j-1) — is an unaligned
//     contiguous load at offset i or i-1 of the previous diagonals
//     (diagonal-based memory linearization, Fig 2);
//   * the reference is reversed once so the diagonal's substitution-matrix
//     indices 32*q[i] + r[d-i] are two forward contiguous loads and one
//     vector add (Fig 4); scores arrive through vpgatherdd (Gather), a
//     scalar-staged linear buffer (Fill) or an in-register vpermi2b lookup
//     (Shuffle), picked per ISA by a fixed rule (core::delivery_for);
//   * full vectors cover the diagonal body; the ragged tail is ONE
//     zero-masked vector (the paper's Fig 3 zero-padding), with invalid
//     lanes blended to 0 — exactly the boundary value the next diagonals
//     expect; tiny diagonals run scalar ("standard CPU instructions");
//   * the maximum is deferred: a per-row running max plus the diagonal index
//     of its last strict improvement; one O(m) scalar pass at the end finds
//     the global best and end cell (§III-D). Strict-improvement updates give
//     the same (min i, then min j) tie-break as the golden scalar model;
//   * 8/16-bit engines run in the unsigned biased domain with saturating
//     arithmetic; if the observed maximum reaches cap - bias - max_score the
//     result is flagged saturated. When a wider rung follows, the kernel
//     stops after the first anti-diagonal that reaches it, and the next rung
//     widens the live DP state in place and continues from the diagonal
//     after it (DiagHandoff): the adaptive ladder computes each cell once.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/params.hpp"
#include "core/prepared_query.hpp"
#include "core/result.hpp"
#include "core/traceback.hpp"
#include "core/workspace.hpp"

namespace swve::core {

/// Where a saturated rung stopped, for the next rung of the ladder (twice
/// its element width) to continue from. Every anti-diagonal before
/// `next_diag` is exact: the check after the one before it passed, so every
/// input was below the saturation limit and no add clipped. The live state
/// (H of the last two diagonals, E and F of the last one, and rowmax) sits
/// in the workspace as unbiased scores of the stopped rung's width; bestd
/// and the traceback bytes are the same at every width.
struct DiagHandoff {
  int next_diag = 0;     ///< first anti-diagonal still to compute
  uint64_t tb_next = 0;  ///< traceback offset of next_diag
};

struct DiagRequest {
  const uint8_t* q = nullptr;
  int m = 0;
  const uint8_t* r = nullptr;
  int n = 0;
  const AlignConfig* cfg = nullptr;
  Workspace* ws = nullptr;
  /// Optional cached query feeds (must be built from exactly `q`/`m`);
  /// when set the kernel reads qmul32/qenc from here instead of rebuilding
  /// them into the workspace. Results are bit-identical either way.
  const PreparedQuery* prep = nullptr;
  /// Wider rungs may continue this run (the adaptive ladder). An 8- or
  /// 16-bit kernel then sizes its DP state for 32-bit elements and stops
  /// after the first anti-diagonal whose maximum reaches the saturation
  /// limit, returning `saturated` and DiagOutput::handoff. Otherwise a
  /// narrow kernel computes the whole matrix and reports its lower-bound
  /// score.
  bool may_widen = false;
  /// Continue the run of the rung half this kernel's width from its
  /// hand-off: widen the state in place and sweep from resume->next_diag.
  /// Null, or a hand-off at diagonal 0: a fresh run.
  const DiagHandoff* resume = nullptr;
};

struct DiagOutput {
  int score = 0;
  int end_query = -1;
  int end_ref = -1;
  bool saturated = false;
  KernelStats stats;  ///< this call's cells and diagonals only
  /// Set when a run that may widen stopped saturated.
  DiagHandoff handoff;
  // With cfg->traceback, direction flags are left in ws->tb_dirs /
  // ws->tb_offsets (diagonal-major; see DiagTracebackView).
};

/// Compile-time score mode of one kernel instantiation.
enum class KMode : uint8_t { Gather, Fill, Shuffle, Fixed };

// Every ISA translation unit compiles this header with its own -m flags, so
// nothing here may be a symbol the linker could merge across them: the
// helpers that do not depend on the engine have internal linkage (static),
// and everything else is instantiated per engine.
namespace detail {
static inline int64_t clamp0_i64(int64_t x) { return x < 0 ? 0 : x; }
/// Diagonals at most this long run fully scalar (Fig 3's "for small
/// segments we revert to standard CPU instructions").
inline constexpr int kScalarDiagonal = 4;

/// Row range of anti-diagonal d for an m x n matrix with optional band
/// (|i - j| <= band). May be empty (lo > hi) under a band.
struct DiagRange {
  int lo, hi;
};
static inline DiagRange diag_range(int d, int m, int n, int band) {
  int lo = d - n + 1 < 0 ? 0 : d - n + 1;
  int hi = d < m - 1 ? d : m - 1;
  if (band >= 0) {
    const int blo = (d - band + 1) >> 1;  // ceil((d-band)/2), >= 0 region
    const int bhi = (d + band) >> 1;      // floor((d+band)/2)
    if (blo > lo) lo = blo;
    if (bhi < hi) hi = bhi;
  }
  return {lo, hi};
}

/// Zero-extends `count` elements of `From` at `buf` to `To` in place. It
/// runs back to front: wide element k covers only bytes that narrow
/// elements k and above held, and those have been read by then.
template <class From, class To>
static void widen_in_place(void* buf, size_t count) {
  static_assert(sizeof(To) > sizeof(From));
  auto* b = static_cast<unsigned char*>(buf);
  constexpr size_t kBlock = 32;
  size_t hi = count;
  for (; hi >= kBlock; hi -= kBlock) {
    From in[kBlock];
    To out[kBlock];
    std::memcpy(in, b + (hi - kBlock) * sizeof(From), sizeof in);
    for (size_t k = 0; k < kBlock; ++k) out[k] = static_cast<To>(in[k]);
    std::memcpy(b + (hi - kBlock) * sizeof(To), out, sizeof out);
  }
  while (hi-- > 0) {
    From v;
    std::memcpy(&v, b + hi * sizeof(From), sizeof v);
    const To w = static_cast<To>(v);
    std::memcpy(b + hi * sizeof(To), &w, sizeof w);
  }
}

/// The DP state one anti-diagonal hands the next, and where the sweep
/// starts. H, E and F point kPad elements into their buffers.
template <class elem>
struct DiagState {
  elem* H[3] = {nullptr, nullptr, nullptr};
  elem* E[2] = {nullptr, nullptr};  // Affine only
  elem* F[2] = {nullptr, nullptr};
  elem* rowmax = nullptr;
  int32_t* bestd = nullptr;
  int first_diag = 0;
  uint64_t tb_next = 0;  // traceback offset of first_diag
};

/// State setup: a fresh run sizes the buffers for `state_bytes` per element
/// and zeroes what the first diagonals read; a continuation widens the
/// hand-off's state in place (its buffers were sized for this width).
template <class elem, GapModel GM>
static DiagState<elem> diag_state(const DiagRequest& rq, size_t state_bytes) {
  const int m = rq.m;
  Workspace& ws = *rq.ws;
  const size_t slots = static_cast<size_t>(m) + 2 * kPad;
  DiagState<elem> st;
  const DiagHandoff* rs = rq.resume;
  if (rs != nullptr && rs->next_diag > 0) {
    using narrow = std::conditional_t<sizeof(elem) == 4, uint16_t, uint8_t>;
    auto widened = [&](AlignedBuf& b, size_t count) {
      if (sizeof(elem) == 1 || b.capacity() < count * sizeof(elem))
        throw std::logic_error("diag_align: no hand-off state for this rung");
      if constexpr (sizeof(elem) > 1) widen_in_place<narrow, elem>(b.data(), count);
      return static_cast<elem*>(b.data());
    };
    for (int t = 0; t < 3; ++t) st.H[t] = widened(ws.h[t], slots) + kPad;
    if constexpr (GM == GapModel::Affine) {
      for (int t = 0; t < 2; ++t) {
        st.E[t] = widened(ws.e[t], slots) + kPad;
        st.F[t] = widened(ws.f[t], slots) + kPad;
      }
    }
    st.rowmax = widened(ws.rowmax, static_cast<size_t>(m));
    st.first_diag = rs->next_diag;
    st.tb_next = rs->tb_next;
  } else {
    // The sweep reads, from the previous two diagonals, only cells it wrote
    // this run or the boundary sentinels it stores after each diagonal; the
    // first two diagonals instead read slots -1 and 0 of the initial
    // buffers, so the full DP zeroes just those. A band leaves diagonals
    // empty (no sentinels written), so banded runs start from all-zero
    // buffers.
    auto dp_buffer = [&](AlignedBuf& b) {
      elem* p = static_cast<elem*>(b.ensure(slots * state_bytes));
      if (rq.cfg->band >= 0)
        std::memset(p, 0, slots * sizeof(elem));
      else
        p[kPad - 1] = p[kPad] = 0;
      return p + kPad;
    };
    for (int t = 0; t < 3; ++t) st.H[t] = dp_buffer(ws.h[t]);
    if constexpr (GM == GapModel::Affine) {
      for (int t = 0; t < 2; ++t) {
        st.E[t] = dp_buffer(ws.e[t]);
        st.F[t] = dp_buffer(ws.f[t]);
      }
    }
    // rowmax/bestd carry kPad slack so the masked tail vector may touch
    // lanes past m; tail lanes hold h == 0, so they never improve and leave
    // that slack as they found it. Only rows [0, m) are ever read back, and
    // bestd[i] only once rowmax[i] > 0, i.e. after row i improved and wrote
    // it.
    st.rowmax = static_cast<elem*>(
        ws.rowmax.ensure((static_cast<size_t>(m) + kPad) * state_bytes));
    std::memset(st.rowmax, 0, static_cast<size_t>(m) * sizeof(elem));
  }
  st.bestd = static_cast<int32_t*>(
      ws.best_diag.ensure((static_cast<size_t>(m) + kPad) * 4));
  return st;
}
}  // namespace detail

template <class E, GapModel GM, KMode SM, bool TB>
DiagOutput diag_align_impl(const DiagRequest& rq) {
  using elem = typename E::elem;
  using vec = typename E::vec;
  constexpr int V = E::lanes;
  constexpr int64_t kCap = E::cap;

  const int m = rq.m;
  const int n = rq.n;
  DiagOutput out;
  if (m == 0 || n == 0) return out;

  const AlignConfig& cfg = *rq.cfg;
  const uint8_t* q = rq.q;
  const uint8_t* r = rq.r;
  Workspace& ws = *rq.ws;

  const int bias = E::is_signed ? 0 : cfg.bias();
  const int smax = cfg.max_subst_score();
  const int64_t sat_limit = E::is_signed ? kCap : kCap - bias - smax;
  const int64_t open64 = GM == GapModel::Affine ? cfg.gap_open : cfg.gap_extend;
  const int64_t ext64 = cfg.gap_extend;
  const int64_t open_c = open64 > kCap ? kCap : open64;  // clamped into elem
  const int64_t ext_c = ext64 > kCap ? kCap : ext64;

  // A wider rung may continue this run: stop at the first saturated
  // anti-diagonal and leave the state sized for the widest rung.
  const bool hands_off = !E::is_signed && rq.may_widen;
  if (hands_off && sat_limit <= 0) {  // this width cannot hold any cell
    out.score = static_cast<int>(sat_limit);
    out.saturated = true;
    return out;
  }

  // ---- state setup ----------------------------------------------------
  const detail::DiagState<elem> st = detail::diag_state<elem, GM>(
      rq, hands_off ? sizeof(int32_t) : sizeof(elem));
  elem* const rowmax = st.rowmax;
  int32_t* const bestd = st.bestd;
  const int d0 = st.first_diag;

  const int32_t* mat32 = nullptr;
  const int32_t* qmul = nullptr;
  int32_t* dbrev = nullptr;
  const elem* qencE = nullptr;
  elem* dbrevE = nullptr;
  [[maybe_unused]] elem* sbuf = nullptr;
  // Cached query feeds, if the caller supplied matching ones. The per-call
  // build below produces exactly these bytes (padding included), so using
  // them is a pure skip of O(m) work.
  [[maybe_unused]] const PreparedQuery* prep =
      rq.prep != nullptr && rq.prep->query_length() == m ? rq.prep : nullptr;
  if constexpr (SM != KMode::Fixed) mat32 = cfg.matrix->data32();
  if constexpr (SM == KMode::Gather || SM == KMode::Fill) {
    if (prep != nullptr) {
      qmul = prep->qmul32();
    } else {
      // Pads are zeroed: masked-tail gathers then index row 0 / column 0,
      // which is always inside the table.
      int32_t* qm = static_cast<int32_t*>(
          ws.qmul32.ensure((static_cast<size_t>(m) + kPad) * 4));
      for (int i = 0; i < m; ++i)
        qm[i] = static_cast<int32_t>(q[i]) * seq::kMatrixStride;
      std::memset(qm + m, 0, kPad * 4);
      qmul = qm;
    }
    dbrev = static_cast<int32_t*>(
        ws.dbrev32.ensure((static_cast<size_t>(n) + kPad) * 4));
    for (int t = 0; t < n; ++t) dbrev[t] = r[n - 1 - t];
    std::memset(dbrev + n, 0, kPad * 4);
    if constexpr (SM == KMode::Fill)
      sbuf = static_cast<elem*>(ws.diag_scores.ensure_zeroed(
                 (static_cast<size_t>(m) + 2 * kPad) * sizeof(elem))) +
             kPad;
  }
  if constexpr (SM == KMode::Fixed || SM == KMode::Shuffle) {
    // Encoded residues widened to the element type (compare feed for
    // Fixed, lookup indices for Shuffle). Pads zeroed: code 0 is a valid
    // index.
    if (prep != nullptr) {
      qencE = prep->template qenc<elem>();
    } else {
      elem* qe = static_cast<elem*>(
          ws.qenc.ensure((static_cast<size_t>(m) + kPad) * sizeof(elem)));
      for (int i = 0; i < m; ++i) qe[i] = q[i];
      std::memset(qe + m, 0, kPad * sizeof(elem));
      qencE = qe;
    }
    dbrevE = static_cast<elem*>(
        ws.dbrev_enc.ensure((static_cast<size_t>(n) + kPad) * sizeof(elem)));
    for (int t = 0; t < n; ++t) dbrevE[t] = r[n - 1 - t];
    std::memset(dbrevE + n, 0, kPad * sizeof(elem));
  }
  // Shuffle delivery: stage the biased byte table into registers once.
  [[maybe_unused]] auto stab = [&] {
    if constexpr (SM == KMode::Shuffle)
      return E::load_shuffle_table(cfg.matrix->rows_biased_u8());
    else
      return 0;
  }();

  uint8_t* tbdirs = nullptr;
  uint64_t* tboff = nullptr;
  if constexpr (TB) {
    const uint64_t cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(n);
    if (cells > cfg.max_traceback_cells)
      throw std::length_error("diag_align: traceback matrix exceeds cell cap");
    // +kPad slack: the masked tail stores a full vector of direction bytes.
    // The per-diagonal offsets are filled in by the sweep.
    tbdirs = static_cast<uint8_t*>(ws.tb_dirs.ensure(cells + kPad));
    tboff = static_cast<uint64_t*>(
        ws.tb_offsets.ensure(static_cast<size_t>(m + n) * 8));
  }

  // ---- constants ------------------------------------------------------
  const vec vzero = E::zero();
  const vec vbias = E::set1(bias);
  const vec vopen = E::set1(open_c);
  const vec vext = E::set1(ext_c);
  const vec viota = E::iota();
  [[maybe_unused]] vec vmatch_b{}, vmis_b{};
  if constexpr (SM == KMode::Fixed) {
    auto clamp_elem = [&](int64_t v) {
      if (!E::is_signed) {
        if (v < 0) v = 0;
        if (v > kCap) v = kCap;
      }
      return v;
    };
    vmatch_b = E::set1(clamp_elem(cfg.match + bias));
    vmis_b = E::set1(clamp_elem(cfg.mismatch + bias));
  }
  [[maybe_unused]] const vec v1 = E::set1(kTbDiag);
  [[maybe_unused]] const vec v2 = E::set1(kTbE);
  [[maybe_unused]] const vec v3 = E::set1(kTbF);
  [[maybe_unused]] const vec v4 = E::set1(kTbEExt);
  [[maybe_unused]] const vec v8 = E::set1(kTbFExt);
  // Hand-off check: the running maximum of every vector cell and of every
  // scalar cell, tested once per anti-diagonal against sat_limit.
  const vec vsat_below = E::set1(hands_off ? sat_limit - 1 : 0);
  vec vhmax = vzero;
  int64_t shmax = 0;

  // Buffer roles at diagonal d0: every diagonal, empty ones included,
  // rotates H by one and swaps E and F.
  const int r3 = d0 % 3;
  elem* Hc = st.H[(3 - r3) % 3];
  elem* Hp = st.H[(4 - r3) % 3];
  elem* Hp2 = st.H[(5 - r3) % 3];
  elem* Ec = st.E[d0 & 1];
  elem* Ep = st.E[(d0 + 1) & 1];
  elem* Fc = st.F[d0 & 1];
  elem* Fp = st.F[(d0 + 1) & 1];

  uint64_t vec_cells = 0, scalar_cells = 0;

  // One DP step for V lanes at base row i; `valid` < V marks the ragged
  // tail (Fig 3): lanes >= valid are computed but blended to zero before
  // every store, which is exactly the "never reached" boundary value.
  auto vector_step = [&](int i, int d, const int32_t* dbr, const elem* dbrE,
                         uint8_t* tbrow, int valid) {
    vec sb;
    if constexpr (SM == KMode::Gather)
      sb = E::gather_scores(qmul + i, dbr + i, mat32, bias);
    else if constexpr (SM == KMode::Fill)
      sb = E::loadu(sbuf + i);
    else if constexpr (SM == KMode::Shuffle)
      sb = E::shuffle_scores(stab, qencE + i, dbrE + i);
    else
      sb = E::blend(E::cmpeq(E::loadu(qencE + i), E::loadu(dbrE + i)), vmis_b,
                    vmatch_b);
    const vec hd = E::loadu(Hp2 + i - 1);
    const vec hs = E::add_score(hd, sb, vbias);
    vec e, f;
    [[maybe_unused]] vec e_open{}, f_open{};
    if constexpr (GM == GapModel::Affine) {
      e_open = E::sub_floor(E::loadu(Hp + i - 1), vopen);
      const vec e_ext = E::sub_floor(E::loadu(Ep + i - 1), vext);
      e = E::max(e_open, e_ext);
      f_open = E::sub_floor(E::loadu(Hp + i), vopen);
      const vec f_ext = E::sub_floor(E::loadu(Fp + i), vext);
      f = E::max(f_open, f_ext);
    } else {
      e = E::sub_floor(E::loadu(Hp + i - 1), vext);
      f = E::sub_floor(E::loadu(Hp + i), vext);
    }
    vec h = E::max(hs, E::max(e, f));

    if (valid < V) {
      const auto vm = E::cmpgt(E::set1(valid), viota);  // lane < valid
      h = E::blend(vm, vzero, h);
      e = E::blend(vm, vzero, e);
      f = E::blend(vm, vzero, f);
    }
    E::storeu(Hc + i, h);
    if constexpr (GM == GapModel::Affine) {
      E::storeu(Ec + i, e);
      E::storeu(Fc + i, f);
    }
    if constexpr (!E::is_signed) vhmax = E::max(vhmax, h);

    if constexpr (TB) {
      // Priority on ties: stop > diag > E > F — apply lowest first. Since
      // h = max(hs, e, f), a cell that is not 0, hs or e is F.
      vec dir = E::blend(E::cmpeq(h, e), v3, v2);
      dir = E::blend(E::cmpeq(h, hs), dir, v1);
      dir = E::blend(E::cmpeq(h, vzero), dir, vzero);
      if constexpr (GM == GapModel::Affine) {
        // Gap runs prefer "open" on ties: extend bit only if != open term.
        dir = E::set_bits_ne(dir, e, e_open, v4);
        dir = E::set_bits_ne(dir, f, f_open, v8);
      }
      E::store_dir_u8(tbrow + i, dir);  // tail over-run lands in slack
    }

    // Deferred maximum (§III-D): per-row running max; the improving lanes
    // also record the diagonal index. Branch-free: whether a vector
    // improves is data-dependent, and the stores are cheaper than the
    // mispredictions. Masked tail lanes hold h == 0 and never improve.
    const vec rm = E::loadu(rowmax + i);
    E::store_bestd(bestd + i, E::cmpgt(h, rm), d);
    E::storeu(rowmax + i, E::max(rm, h));
  };

  // The identical recurrence, one cell, scalar (tiny diagonals).
  auto scalar_cell = [&](int i, int d, uint8_t* tbrow) {
    const int j = d - i;
    int64_t s;
    if constexpr (SM == KMode::Fixed)
      s = q[i] == r[j] ? cfg.match : cfg.mismatch;
    else
      s = mat32[static_cast<int32_t>(q[i]) * seq::kMatrixStride + r[j]];
    int64_t hs = static_cast<int64_t>(Hp2[i - 1]) + s + bias;
    if (!E::is_signed && hs > kCap) hs = kCap;  // mimic saturating add
    hs -= bias;
    if (hs < 0) hs = 0;
    int64_t e, f;
    [[maybe_unused]] int64_t e_open = 0, f_open = 0;
    if constexpr (GM == GapModel::Affine) {
      e_open = detail::clamp0_i64(static_cast<int64_t>(Hp[i - 1]) - open_c);
      const int64_t e_ext =
          detail::clamp0_i64(static_cast<int64_t>(Ep[i - 1]) - ext_c);
      e = e_open > e_ext ? e_open : e_ext;
      f_open = detail::clamp0_i64(static_cast<int64_t>(Hp[i]) - open_c);
      const int64_t f_ext =
          detail::clamp0_i64(static_cast<int64_t>(Fp[i]) - ext_c);
      f = f_open > f_ext ? f_open : f_ext;
    } else {
      e = detail::clamp0_i64(static_cast<int64_t>(Hp[i - 1]) - ext_c);
      f = detail::clamp0_i64(static_cast<int64_t>(Hp[i]) - ext_c);
    }
    int64_t h = hs;
    if (e > h) h = e;
    if (f > h) h = f;
    Hc[i] = static_cast<elem>(h);
    if constexpr (GM == GapModel::Affine) {
      Ec[i] = static_cast<elem>(e);
      Fc[i] = static_cast<elem>(f);
    }
    if constexpr (TB) {
      uint8_t flags;
      if (h == 0)
        flags = kTbStop;
      else if (h == hs)
        flags = kTbDiag;
      else if (h == e)
        flags = kTbE;
      else
        flags = kTbF;
      if constexpr (GM == GapModel::Affine) {
        if (e != e_open) flags |= kTbEExt;
        if (f != f_open) flags |= kTbFExt;
      }
      tbrow[i] = flags;
    }
    if (h > static_cast<int64_t>(rowmax[i])) {
      rowmax[i] = static_cast<elem>(h);
      bestd[i] = d;
    }
    if (h > shmax) shmax = h;
  };

  auto stats = [&](int end_diag) {
    out.stats.cells = vec_cells + scalar_cells;
    out.stats.vector_cells = vec_cells;
    out.stats.scalar_cells = scalar_cells;
    out.stats.diagonals = static_cast<uint64_t>(end_diag - d0);
  };

  // ---- anti-diagonal sweep from d0 ------------------------------------
  [[maybe_unused]] uint64_t tb_next = st.tb_next;  // offset of diagonal d
  for (int d = d0; d < m + n - 1; ++d) {
    const auto [lo, hi] = detail::diag_range(d, m, n, cfg.band);
    if constexpr (TB) tboff[d] = tb_next;
    if (hi < lo) {  // empty banded diagonal: just rotate the buffers
      elem* te = Hp2;
      Hp2 = Hp;
      Hp = Hc;
      Hc = te;
      if constexpr (GM == GapModel::Affine) {
        std::swap(Ec, Ep);
        std::swap(Fc, Fp);
      }
      continue;
    }
    const int len = hi - lo + 1;
    [[maybe_unused]] const int32_t* dbr =
        dbrev != nullptr ? dbrev + (n - 1 - d) : nullptr;
    [[maybe_unused]] const elem* dbrE =
        dbrevE != nullptr ? dbrevE + (n - 1 - d) : nullptr;
    [[maybe_unused]] uint8_t* tbrow = nullptr;
    if constexpr (TB) {
      tbrow = tbdirs + tb_next - lo;
      tb_next += static_cast<uint64_t>(len);
    }

    if (len <= detail::kScalarDiagonal) {
      for (int i = lo; i <= hi; ++i) scalar_cell(i, d, tbrow);
      scalar_cells += static_cast<uint64_t>(len);
    } else {
      if constexpr (SM == KMode::Fill) {
        const int32_t* dbri = dbr;
        for (int i = lo; i <= hi; ++i)
          sbuf[i] = static_cast<elem>(mat32[qmul[i] + dbri[i]] + bias);
      }
      int i = lo;
      for (; i + V <= hi + 1; i += V) {
        vector_step(i, d, dbr, dbrE, tbrow, V);
        vec_cells += V;
      }
      if (i <= hi) {  // ragged tail: one zero-masked vector (Fig 3)
        vector_step(i, d, dbr, dbrE, tbrow, hi - i + 1);
        scalar_cells += static_cast<uint64_t>(hi - i + 1);
      }
    }

    // Boundary sentinels: cells just outside this diagonal's range must
    // read as 0 from the next diagonals (out-of-ref columns for the full
    // DP, out-of-band cells under a band). Overwrites are provably either
    // dead slots or already zero; indices stay inside the kPad margins.
    // In a full DP a masked tail vector has already stored those zeros at
    // hi + 1, and lo - 1 needs none: slot -1 is zeroed at setup and never
    // rewritten, and once d >= n no later cell reads lo - 1. So only
    // scalar diagonals, diagonals without a tail vector and banded runs
    // store them.
    if (cfg.band >= 0 || len <= detail::kScalarDiagonal || len % V == 0) {
      Hc[lo - 1] = 0;
      Hc[hi + 1] = 0;
      if constexpr (GM == GapModel::Affine) {
        Ec[lo - 1] = 0;
        Ec[hi + 1] = 0;
        Fc[lo - 1] = 0;
        Fc[hi + 1] = 0;
      }
    }

    // A cell of this diagonal reached the limit, so the next one could
    // clip: hand this exact state to the wider rung.
    if (hands_off &&
        (shmax >= sat_limit || E::any(E::cmpgt(vhmax, vsat_below)))) {
      out.score = static_cast<int>(sat_limit);
      out.saturated = true;
      out.handoff = {d + 1, tb_next};
      stats(d + 1);
      return out;
    }

    elem* t = Hp2;
    Hp2 = Hp;
    Hp = Hc;
    Hc = t;
    if constexpr (GM == GapModel::Affine) {
      std::swap(Ec, Ep);
      std::swap(Fc, Fp);
    }
  }

  // ---- deferred global maximum (§III-D) --------------------------------
  int64_t best = 0;
  int bi = -1;
  for (int i = 0; i < m; ++i) {
    if (static_cast<int64_t>(rowmax[i]) > best) {
      best = rowmax[i];
      bi = i;
    }
  }
  out.score = static_cast<int>(best);
  if (bi >= 0) {
    out.end_query = bi;
    out.end_ref = bestd[bi] - bi;
  }
  out.saturated = !E::is_signed && best >= sat_limit;
  stats(m + n - 1);
  return out;
}

/// The compile-time score mode cfg selects. A Matrix cfg's delivery must
/// be the path core::delivery_for resolved (never Auto, and Shuffle only
/// where it runs; see core::diag_align).
static inline KMode kernel_mode(const AlignConfig& c) {
  if (c.scheme == ScoreScheme::Fixed) return KMode::Fixed;
  switch (c.delivery) {
    case ScoreDelivery::Fill:
      return KMode::Fill;
    case ScoreDelivery::Shuffle:
      return KMode::Shuffle;
    default:
      return KMode::Gather;
  }
}

/// Runtime (gap model, traceback) -> template instantiation switch for one
/// score mode.
template <class E, KMode SM>
DiagOutput diag_run_mode(const DiagRequest& rq) {
  const bool tb = rq.cfg->traceback;
  if (rq.cfg->gap_model == GapModel::Affine)
    return tb ? diag_align_impl<E, GapModel::Affine, SM, true>(rq)
              : diag_align_impl<E, GapModel::Affine, SM, false>(rq);
  return tb ? diag_align_impl<E, GapModel::Linear, SM, true>(rq)
            : diag_align_impl<E, GapModel::Linear, SM, false>(rq);
}

/// The Gather, Fill and Fixed kernels of one engine; used by each ISA
/// translation unit. The Shuffle kernels are instantiated apart
/// (diag_run_mode<E, KMode::Shuffle>), in the one unit built with VBMI.
template <class E>
DiagOutput diag_run(const DiagRequest& rq) {
  switch (kernel_mode(*rq.cfg)) {
    case KMode::Gather:
      return diag_run_mode<E, KMode::Gather>(rq);
    case KMode::Fill:
      return diag_run_mode<E, KMode::Fill>(rq);
    case KMode::Fixed:
      return diag_run_mode<E, KMode::Fixed>(rq);
    default:
      throw std::invalid_argument(
          "diag_run: Shuffle delivery on an engine without it");
  }
}

}  // namespace swve::core

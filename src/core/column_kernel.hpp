// The column sweep: Smith-Waterman for a query of at most kMaxRows residues
// against a reference of any length, one template over an 8-bit and a 16-bit
// engine (ops listed in simd/engines_emu.hpp). column_avx512 instantiates it
// on AVX-512 VBMI, where pair_align runs it, and the tests on the emulated
// engines. docs/kernel.md, "Column sweep", has the derivation. In short:
//   * the query rows are striped (Farrar) over S = ceil(m/L) vectors of L
//     lanes: vector v, lane l holds row l*S + v (slot v*L + l). Each column
//     keeps H, F and the row maxima in registers and loads one profile
//     vector group (every slot's biased score against r[j]);
//   * E is an in-lane pass over the S vectors, a max-plus carry scan over
//     the last one's lanes that stops once no lane can change, and an apply;
//   * rows >= m score 0 against every code, so their cells never exceed a
//     real cell of their column or the ones before it: they never trip the
//     saturation check and their maxima are never read;
//   * the maximum is deferred (§III-D): per slot, a maximum and the column
//     of its last strict improvement as an offset into a block of fewer than
//     2^8 (2^16) columns, flushed to int32 at the block's end;
//   * an adaptive run stops after the first column that reaches the 8-bit
//     limit, moves H, F and the row maxima to the 16-bit slots and goes on
//     at the next column: every cell is computed once.
// Column j's direction bytes are m bytes at tb_dirs + j*m
// (ColumnTracebackView). A unit built with ISA flags includes this header,
// so every function here has internal linkage: the linker must never pick
// that unit's copy for a caller built without them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/dispatch.hpp"
#include "core/traceback.hpp"

namespace swve::core {

namespace column_detail {

constexpr int kMaxRows = 256;
static_assert(kColumnSweepMaxQuery <= kMaxRows);
/// Carry scan steps: the carry vector has at most 64 lanes.
constexpr int kMaxSteps = 6;

/// What the sweep carries between blocks and across the hand-off, per slot
/// of the running width: H, F and the row maxima (256 bytes at 8 bits, 512
/// at 16), and each slot's best column per width (-1 at 16 bits where a
/// slot did not improve there).
struct alignas(64) SweepState {
  unsigned char h[2 * kMaxRows];
  unsigned char f[2 * kMaxRows];
  unsigned char rowmax[2 * kMaxRows];
  int32_t best_col[2][kMaxRows];
};

struct ColumnJob {
  const uint8_t* r = nullptr;
  int m = 0;
  const void* prof = nullptr;  ///< [code][S * lanes] elements, slot order
  uint8_t* tb = nullptr;       ///< column-major directions, or null
  int64_t open = 0;            ///< penalty of a gap's first residue
  int64_t ext = 0;
  int bias = 0;
  /// Stop after the first column with a cell at or above sat_limit.
  bool hands_off = false;
  int64_t sat_limit = 0;
  SweepState* st = nullptr;
};

template <class E>
static typename E::mask low_lanes(int count) {
  if (count <= 0) return 0;
  if (count >= E::lanes) return static_cast<typename E::mask>(~uint64_t{0});
  return static_cast<typename E::mask>((uint64_t{1} << count) - 1);
}

/// Stripes of a query of m rows at E's width.
template <class E>
static int stripes(int m) {
  return (m + E::lanes - 1) / E::lanes;
}

/// How many rows stripe v of s holds: rows v, v+s, ... below m.
static inline int stripe_rows(int m, int s, int v) {
  const int rows = divide_by_stripes(m, s);
  return rows + (v < m - rows * s ? 1 : 0);
}

/// t[S-1][slot] = f(row, S) for the row each slot holds at S stripes of E
/// (slot v*L + l holds row l*S + v).
template <class E, class F>
static constexpr auto slot_table(F f) {
  constexpr int L = E::lanes;
  std::array<std::array<typename E::elem, kMaxRows>, kMaxRows / L> t{};
  for (int s = 1; s <= kMaxRows / L; ++s)
    for (int i = 0; i < s * L; ++i)
      t[s - 1][i] = static_cast<typename E::elem>(f(i % L * s + i / L, s));
  return t;
}
/// Each slot's row: the index that gathers the striped query codes.
template <class E>
constexpr auto kSlotRows = slot_table<E>([](int row, int) { return row; });
/// Each 16-bit slot's 8-bit slot at the hand-off: the 8-bit rung has
/// S8 = ceil(S16/2) stripes then, and row i sits in (i mod S8)*L8 + i/S8.
template <class E8, class E16>
constexpr auto kWidenFrom = slot_table<E16>([](int row, int s16) {
  static_assert(E8::lanes == 2 * E16::lanes);
  const int s8 = (s16 + 1) / 2;
  return row % s8 * E8::lanes + row / s8;
});

/// Columns [j0, j1) of one block, j1 - j0 <= E::cap, at S stripes. Returns
/// the column after the last one computed: j1, or the column after a
/// saturated one when job.hands_off, which sets `stopped`. GM is Affine
/// only when open > extend (column_sweep runs open == extend as the Linear
/// model it equals). Kept out of line: it runs once per block, and the CI
/// inner-loop check finds its loop by this name.
template <class E, int S, GapModel GM, bool TB>
[[gnu::noinline]] static int sweep_block(const ColumnJob& job, int j0, int j1, bool& stopped) {
  using elem = typename E::elem;
  using vec = typename E::vec;
  using mask = typename E::mask;
  constexpr int L = E::lanes;
  SweepState& st = *job.st;
  elem* const sh = reinterpret_cast<elem*>(st.h);
  elem* const sf = reinterpret_cast<elem*>(st.f);
  elem* const srm = reinterpret_cast<elem*>(st.rowmax);
  const elem* const prof = static_cast<const elem*>(job.prof);
  const uint8_t* const r = job.r;
  uint8_t* const tb = job.tb;
  const int m = job.m;
  const bool hands_off = job.hands_off;

  // H, F and the row maxima, and each slot's best column as an offset into
  // this block (E::cap: not improved in it).
  vec H[S], F[S], RM[S], BJ[S];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    H[v] = E::loadu(sh + v * L);
    F[v] = E::loadu(sf + v * L);
    RM[v] = E::loadu(srm + v * L);
    BJ[v] = E::set1(E::cap);
  }

  const vec vzero = E::zero();
  const vec vbias = E::set1(job.bias);
  const vec vopen = E::set1(std::min<int64_t>(job.open, E::cap));
  const vec vext = E::set1(std::min<int64_t>(job.ext, E::cap));
  const vec gopen = GM == GapModel::Affine ? vopen : vext;
  const vec idx1 = E::shift_index(1);
  // Row l*S + v lies v+1 rows above row l*S - 1, the carry's row.
  [[maybe_unused]] vec apen[S];
#pragma GCC unroll 8
  for (int v = 0; v + 1 < S; ++v)
    apen[v] = E::set1(std::min<int64_t>((v + 1) * job.ext, E::cap));
  // Carry scan step t shifts by 2^t lanes (2^t*S rows); ceil(log2 lanes)
  // steps cover the lanes that hold a row < m.
  const int used = (m + S - 1) / S;
  int steps = 0;
  vec idx[kMaxSteps], pen[kMaxSteps];
  for (; (1 << steps) < used; ++steps) {
    idx[steps] = E::shift_index(1 << steps);
    pen[steps] = E::set1(std::min<int64_t>((int64_t{S} << steps) * job.ext, E::cap));
  }
  // Vector v holds rows v, v+S, ...: ceil((m-v)/S) of them, stored at the
  // column's offset v*(m/S) + min(v, m%S).
  [[maybe_unused]] mask tbm[S];
  [[maybe_unused]] int tbo[S];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    tbm[v] = low_lanes<E>(stripe_rows(m, S, v));
    tbo[v] = v * (m / S) + std::min(v, m % S);
  }
  [[maybe_unused]] const vec v1 = E::set1(kTbDiag);
  [[maybe_unused]] const vec v2 = E::set1(kTbE);
  [[maybe_unused]] const vec v3 = E::set1(kTbF);
  [[maybe_unused]] const vec v4 = E::set1(kTbEExt);
  [[maybe_unused]] const vec v8 = E::set1(kTbFExt);
  const vec vsat_below = E::set1(hands_off ? job.sat_limit - 1 : 0);

  int j = j0;
  while (j < j1) {
    const elem* p = prof + static_cast<size_t>(r[j]) * (S * L);
    vec hs[S], f[S], t[S];
    [[maybe_unused]] vec f_open[S];
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      const vec hd = v > 0 ? H[v - 1] : E::shift_up(vzero, H[S - 1], idx1);
      hs[v] = E::add_score(hd, E::loadu(p + v * L), vbias);
      if constexpr (GM == GapModel::Affine) {
        f_open[v] = E::sub_floor(H[v], vopen);
        f[v] = E::max(f_open[v], E::sub_floor(F[v], vext));
      } else {
        f[v] = E::sub_floor(H[v], vext);
      }
      t[v] = E::max(hs[v], f[v]);
    }
    // E(i) = max(T(i-1) - open, E(i-1) - extend), floored at 0. In-lane
    // pass: each lane's scan of e_init(i) = T(i-1) - open over its own S
    // rows.
    vec e[S], e_init[S];
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      e_init[v] = E::sub_floor(v > 0 ? t[v - 1] : E::shift_up(vzero, t[S - 1], idx1), gopen);
      e[v] = v > 0 ? E::max(e_init[v], E::sub_floor(e[v - 1], vext)) : e_init[v];
    }
    // Carry: the max-plus scan of the last rows' E over the lanes, each
    // lane S rows (S*extend) above the one below it. Early stop: after
    // steps 0..s-1 each lane holds its maximum over the lanes less than 2^s
    // below it. If no lane exceeds pen[s], every candidate of step s floors
    // at 0 and changes nothing, and each later step, with its penalty at
    // least pen[s], sees the same lanes: the carry is already exact.
    vec c = e[S - 1];
    for (int s = 0; s < steps; ++s) {
      if (!E::any(E::cmpgt(c, pen[s]))) break;
      c = E::max(c, E::sub_floor(E::shift_up(vzero, c, idx[s]), pen[s]));
    }
    e[S - 1] = c;
    if constexpr (S > 1) {
      // Apply: row l*S + v also takes the full E of row l*S - 1, the carry
      // of lane l-1, extended v+1 rows.
      const vec cin = E::shift_up(vzero, c, idx1);
#pragma GCC unroll 8
      for (int v = 0; v + 1 < S; ++v) e[v] = E::max(e[v], E::sub_floor(cin, apen[v]));
    }
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      H[v] = E::max(t[v], e[v]);
      if constexpr (GM == GapModel::Affine) F[v] = f[v];
    }

    if constexpr (TB) {
      uint8_t* col = tb + static_cast<uint64_t>(j) * static_cast<uint64_t>(m);
#pragma GCC unroll 8
      for (int v = 0; v < S; ++v) {
        // Priority on ties: stop > diag > E > F, as the diagonal kernel.
        vec dir = E::blend(E::cmpeq(H[v], e[v]), v3, v2);
        dir = E::blend(E::cmpeq(H[v], hs[v]), dir, v1);
        dir = E::blend(E::cmpeq(H[v], vzero), dir, vzero);
        if constexpr (GM == GapModel::Affine) {
          // E extends when it is not H(i-1, j) - open. With open > extend
          // that is exactly when it is not e_init: an E(i-1) above T(i-1)
          // and open makes both E(i-1) - extend.
          dir = E::set_bits_ne(dir, e[v], e_init[v], v4);
          dir = E::set_bits_ne(dir, f[v], f_open[v], v8);
        }
        E::store_dir_u8_masked(col + tbo[v], tbm[v], dir);
      }
    }

    // Deferred maximum: slots that strictly improve record this column.
    const vec vj = E::set1(j - j0);
#pragma GCC unroll 8
    for (int v = 0; v < S; ++v) {
      BJ[v] = E::blend(E::cmpgt(H[v], RM[v]), BJ[v], vj);
      RM[v] = E::max(RM[v], H[v]);
    }
    ++j;

    if (hands_off) {
      vec mx = H[0];
#pragma GCC unroll 8
      for (int v = 1; v < S; ++v) mx = E::max(mx, H[v]);
      if (E::any(E::cmpgt(mx, vsat_below))) {
        stopped = true;
        break;
      }
    }
  }

  alignas(64) elem off[S * L];
#pragma GCC unroll 8
  for (int v = 0; v < S; ++v) {
    E::storeu(sh + v * L, H[v]);
    E::storeu(sf + v * L, F[v]);
    E::storeu(srm + v * L, RM[v]);
    E::storeu(off + v * L, BJ[v]);
  }
  // Slots in the lanes that hold rows < m and improved in this block take
  // j0 + offset.
  int32_t* const best_col = st.best_col[sizeof(elem) - 1];
  for (int v = 0; v < S; ++v) E::store_best_cols(best_col, off, v * L, v * L + used, j0);
  return j;
}

/// The sweep_block instance for `s` stripes (S counts up to the most E's
/// width takes).
template <class E, int S = 1>
static int sweep_columns(const ColumnJob& job, int s, GapModel gm, bool tb, int j0,
                         int j1, bool& stopped) {
  if constexpr (S < kMaxRows / E::lanes) {
    if (s > S) return sweep_columns<E, S + 1>(job, s, gm, tb, j0, j1, stopped);
  }
  if (gm == GapModel::Affine)
    return tb ? sweep_block<E, S, GapModel::Affine, true>(job, j0, j1, stopped)
              : sweep_block<E, S, GapModel::Affine, false>(job, j0, j1, stopped);
  return tb ? sweep_block<E, S, GapModel::Linear, true>(job, j0, j1, stopped)
            : sweep_block<E, S, GapModel::Linear, false>(job, j0, j1, stopped);
}

/// Sweeps columns [j, n) block by block at E's width. Returns the column
/// after the last one computed; `stopped` is set when a hand-off stopped
/// the sweep at a saturated column.
template <class E>
static int run_width(const ColumnJob& job, GapModel gm, bool tb, int j, int n,
                     bool& stopped) {
  const int s = stripes<E>(job.m);
  stopped = false;
  while (j < n && !stopped)
    j = sweep_columns<E>(job, s, gm, tb, j, std::min<int64_t>(n, j + E::cap), stopped);
  return j;
}

/// Moves H, F and the row maxima from the 8-bit slots to the 16-bit ones,
/// zero-extended (kWidenFrom); slots of rows >= m read 0.
template <class E8, class E16>
static void restripe_to_16(SweepState& st, int m) {
  using elem16 = typename E16::elem;
  constexpr int L16 = E16::lanes;
  const int s16 = stripes<E16>(m);
  const elem16* const from = kWidenFrom<E8, E16>[s16 - 1].data();
  for (unsigned char* b : {st.h, st.f, st.rowmax}) {
    alignas(64) uint8_t narrow[kMaxRows];
    std::memcpy(narrow, b, kMaxRows);
    for (int v = 0; v < s16; ++v)
      E16::storeu(reinterpret_cast<elem16*>(b) + v * L16,
                  E16::blend(low_lanes<E16>(stripe_rows(m, s16, v)), E16::zero(),
                             E16::lookup256(narrow, E16::loadu(from + v * L16))));
  }
}

/// The slot of the first row holding the largest row maximum, or -1 when
/// every row maximum is 0; `best` gets that maximum and `row` the row.
/// Among equal slots the smallest row wins: the lowest lane holding one,
/// then the lowest vector in it.
template <class E>
static int best_slot(const SweepState& st, int m, int64_t& best, int& row) {
  using elem = typename E::elem;
  using vec = typename E::vec;
  constexpr int L = E::lanes;
  const elem* const rm = reinterpret_cast<const elem*>(st.rowmax);
  const int S = stripes<E>(m);
  vec v[kMaxRows / L];
  vec mx = E::zero();
  for (int k = 0; k < S; ++k) {
    v[k] = E::blend(low_lanes<E>(stripe_rows(m, S, k)), E::zero(), E::loadu(rm + k * L));
    mx = E::max(mx, v[k]);
  }
  alignas(64) elem lanes[L];
  E::storeu(lanes, mx);
  elem top = 0;
  for (int k = 0; k < L; ++k) top = std::max(top, lanes[k]);
  best = top;
  if (best == 0) return -1;
  const vec vbest = E::set1(best);
  uint64_t hit[kMaxRows / L], any = 0;
  for (int k = 0; k < S; ++k) any |= hit[k] = E::cmpeq(v[k], vbest);
  const int lane = __builtin_ctzll(any);
  for (int k = 0;; ++k) {
    if (hit[k] >> lane & 1) {
      row = lane * S + k;
      return k * L + lane;
    }
  }
}

/// Biased scores of each slot's query row against every code up to
/// `max_code`, rows >= m zero: prof[c * S * lanes + slot]. The striped query
/// codes are gathered once from `qpad` (the query, zero-padded to kMaxRows
/// bytes); matrix scores are then one lookup32 per vector from the matrix's
/// column-major biased table (query codes index column c); Fixed scores are
/// match/mismatch selects. Kept out of line so the CI inner-loop check
/// finds its loop by name.
template <class E>
[[gnu::noinline]] static const typename E::elem* build_profile(const uint8_t* qpad, int m,
                                                               const AlignConfig& cfg,
                                                               int max_code, Workspace& ws) {
  using elem = typename E::elem;
  using vec = typename E::vec;
  constexpr int L = E::lanes;
  const int S = stripes<E>(m);
  const size_t stride = static_cast<size_t>(S) * L;
  elem* prof = static_cast<elem*>(
      ws.column_prof.ensure((static_cast<size_t>(max_code) + 1) * stride * sizeof(elem)));
  const elem* const rows = kSlotRows<E>[S - 1].data();
  vec qk[kMaxRows / L];
  typename E::mask in[kMaxRows / L];
  for (int k = 0; k < S; ++k) {
    qk[k] = E::lookup256(qpad, E::loadu(rows + k * L));
    in[k] = low_lanes<E>(stripe_rows(m, S, k));
  }
  if (cfg.scheme == ScoreScheme::Matrix) {
    const uint8_t* const cols = cfg.matrix->cols_biased_u8();
    for (int c = 0; c <= max_code; ++c) {
      elem* const out = prof + static_cast<size_t>(c) * stride;
      const vec col = E::load_table32(cols + 32 * c);
#pragma GCC unroll 4
      for (int k = 0; k < S; ++k) E::storeu(out + k * L, E::lookup32(in[k], col, qk[k]));
    }
    return prof;
  }
  auto clamp = [](int64_t v) { return std::clamp<int64_t>(v, 0, E::cap); };
  const vec vmatch = E::set1(clamp(static_cast<int64_t>(cfg.match) + cfg.bias()));
  const vec vmis = E::set1(clamp(static_cast<int64_t>(cfg.mismatch) + cfg.bias()));
  for (int c = 0; c <= max_code; ++c) {
    elem* const out = prof + static_cast<size_t>(c) * stride;
    const vec code = E::set1(c);
    for (int k = 0; k < S; ++k)
      E::storeu(out + k * L, E::blend(in[k], E::zero(),
                                      E::blend(E::cmpeq(qk[k], code), vmis, vmatch)));
  }
  return prof;
}

}  // namespace column_detail

/// The column sweep of one pair on the engines E8 (8-bit cells, 64 lanes)
/// and E16 (16-bit, 32 lanes), traceback walk included, for a pair
/// column_sweep_runs admits; `r_max_code` is the largest code in r. Leaves
/// Alignment::isa_used to the caller.
template <class E8, class E16>
static Alignment column_sweep(seq::SeqView q, seq::SeqView r, uint8_t r_max_code,
                              const AlignConfig& cfg, Workspace& ws) {
  using namespace column_detail;
  const int m = static_cast<int>(q.length);
  const int n = static_cast<int>(r.length);
  if (m < 1 || m > kMaxRows || cfg.width == Width::W32 || cfg.band >= 0)
    throw std::logic_error("column sweep: unsupported shape");
  Alignment a;
  a.sweep = Sweep::Column;

  ColumnJob job;
  job.r = r.data;
  job.m = m;
  job.bias = cfg.bias();
  job.ext = cfg.gap_extend;
  job.open = cfg.gap_model == GapModel::Affine ? cfg.gap_open : cfg.gap_extend;
  // Affine gaps with open == extend are linear ones: E(i-1) <= H(i-1) makes
  // every E and F the open term, so no extend bit is ever set either.
  const GapModel gm = job.open == job.ext ? GapModel::Linear : cfg.gap_model;
  if (cfg.traceback) {
    const uint64_t cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(n);
    if (cells > cfg.max_traceback_cells)
      throw std::length_error("pair_align: traceback matrix exceeds cell cap");
    job.tb = static_cast<uint8_t*>(ws.tb_dirs.ensure(cells + kPad));
  }
  // The slots of either width start at 0: 64 bytes per stripe, and the
  // 16-bit stripes cover the 8-bit ones.
  SweepState st;
  const size_t used = static_cast<size_t>(stripes<E16>(m)) * E16::lanes * 2;
  std::memset(st.h, 0, used);
  std::memset(st.f, 0, used);
  std::memset(st.rowmax, 0, used);
  job.st = &st;
  alignas(64) uint8_t qpad[kMaxRows];
  for (int i = 0; i < kMaxRows; ++i) qpad[i] = i < m ? q.data[i] : 0;

  const int smax = cfg.max_subst_score();
  const bool adaptive = cfg.width == Width::Adaptive;
  Width w = adaptive ? Width::W8 : cfg.width;
  a.width_used = w;
  if (n == 0) return a;  // no cells: unsaturated at the first rung
  int j = 0;
  int64_t sat_limit = 0;
  if (w == Width::W8) {
    sat_limit = E8::cap - job.bias - smax;
    if (adaptive && sat_limit <= 0) {  // 8 bits cannot hold any cell
      a.saturated_8 = true;
      w = Width::W16;
    } else {
      job.prof = build_profile<E8>(qpad, m, cfg, r_max_code, ws);
      job.hands_off = adaptive;
      job.sat_limit = sat_limit;
      bool stopped = false;
      j = run_width<E8>(job, gm, cfg.traceback, 0, n, stopped);
      if (stopped) {
        a.saturated_8 = true;
        w = Width::W16;
        restripe_to_16<E8, E16>(st, m);
      }
    }
  }
  a.stats.cells = static_cast<uint64_t>(m) * static_cast<uint64_t>(j);
  const int j16 = w == Width::W16 ? j : n;  // the first 16-bit column
  if (w == Width::W16) {
    sat_limit = E16::cap - job.bias - smax;
    std::fill_n(st.best_col[1], stripes<E16>(m) * E16::lanes, -1);
    job.prof = build_profile<E16>(qpad, m, cfg, r_max_code, ws);
    job.hands_off = false;
    bool stopped = false;
    j = run_width<E16>(job, gm, cfg.traceback, j16, n, stopped);
    a.stats.cells += static_cast<uint64_t>(m) * static_cast<uint64_t>(j - j16);
  }
  a.stats.vector_cells = a.stats.cells;
  a.stats.column_cells = a.stats.cells;
  a.stats.diagonals = static_cast<uint64_t>(n);
  a.width_used = w;

  // ---- deferred global maximum (§III-D) --------------------------------
  int64_t best = 0;
  int bi = -1;
  const int slot = w == Width::W8 ? best_slot<E8>(st, m, best, bi)
                                  : best_slot<E16>(st, m, best, bi);
  a.score = static_cast<int>(best);
  a.saturated = best >= sat_limit;
  if (slot < 0) return a;
  // The row's best column: from its 16-bit slot where it improved at 16
  // bits, else from its 8-bit one.
  const int s8 = stripes<E8>(m);
  const int s16 = stripes<E16>(m);
  int32_t col = w == Width::W16 ? st.best_col[1][slot] : st.best_col[0][slot];
  if (col < 0) {
    const int lane = divide_by_stripes(bi, s8);
    col = st.best_col[0][(bi - lane * s8) * E8::lanes + lane];
  }
  a.end_query = bi;
  a.end_ref = col;

  if (cfg.traceback && !a.saturated) {
    const ColumnTracebackView view(static_cast<const uint8_t*>(ws.tb_dirs.data()), m, s8,
                                   j16, s16);
    TracebackResult t = walk_traceback(view, a.end_query, a.end_ref);
    a.begin_query = t.begin_query;
    a.begin_ref = t.begin_ref;
    a.cigar = std::move(t.cigar);
  }
  return a;
}

}  // namespace swve::core

// Portable emulated vector engine.
//
// Implements the same engine concept as the AVX2/AVX-512 engines with plain
// scalar loops over a fixed-size array, so the diagonal kernel template can
// run (and be differentially tested) on any CPU. GCC auto-vectorizes most of
// these loops, which makes this the library's honest "scalar" baseline ISA.
//
// Engine concept (shared by engines_emu/engines_avx2/engines_avx512):
//   elem                 lane element type (uint8_t / uint16_t / int32_t)
//   vec, mask            vector and comparison-mask types
//   lanes                lane count
//   is_signed            true for the 32-bit engine (no bias, no saturation)
//   cap                  saturation ceiling of the element domain
//   zero/set1/loadu/storeu
//   add_score(h,s,bias)  max(0, h + (s - bias)), saturating at `cap`
//   sub_floor(x,p)       max(0, x - p)
//   max/cmpeq/cmpgt/blend
//   set_bits_ne(d,a,b,x) d | x in the lanes where a != b (x clear in d)
//   any                  true if any mask lane is set
//   gather_scores        substitution-matrix lookup, biased into elem domain
//   store_dir_u8         truncating per-lane byte store (traceback flags)
// and, for the column sweep (core/column_kernel.hpp) at 8 and 16 bits:
//   store_dir_u8_masked, store_best_cols (the deferred maximum's flush)
//   shift_index/shift_up lanes moved up, the bottom ones filled from below
//   lookup256 (t[idx], t 256 bytes), load_table32/lookup32 (32 bytes)
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>

namespace swve::simd {

template <class T, int N>
struct EmuEngine {
  static_assert(N >= 1 && N <= 64, "mask fits in uint64_t");
  using elem = T;
  struct vec {
    std::array<T, N> v;
  };
  using mask = uint64_t;
  static constexpr int lanes = N;
  static constexpr bool is_signed = std::numeric_limits<T>::is_signed;
  static constexpr int64_t cap = std::numeric_limits<T>::max();

  static vec zero() {
    vec r;
    r.v.fill(T{0});
    return r;
  }
  static vec set1(int64_t x) {
    vec r;
    r.v.fill(static_cast<T>(x));
    return r;
  }
  static vec iota() {  // lane indices 0..N-1 (tail masking)
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = static_cast<T>(k);
    return r;
  }
  static vec loadu(const elem* p) {
    vec r;
    std::memcpy(r.v.data(), p, sizeof(T) * N);
    return r;
  }
  static void storeu(elem* p, vec a) { std::memcpy(p, a.v.data(), sizeof(T) * N); }

  static vec add_score(vec h, vec sb, vec bias) {
    vec r;
    for (int k = 0; k < N; ++k) {
      int64_t t = static_cast<int64_t>(h.v[k]) + static_cast<int64_t>(sb.v[k]);
      if (!is_signed && t > cap) t = cap;  // saturating add (the overflow signal)
      t -= static_cast<int64_t>(bias.v[k]);
      if (t < 0) t = 0;  // the local-alignment zero floor
      r.v[k] = static_cast<T>(t);
    }
    return r;
  }
  static vec sub_floor(vec x, vec p) {
    vec r;
    for (int k = 0; k < N; ++k) {
      int64_t t = static_cast<int64_t>(x.v[k]) - static_cast<int64_t>(p.v[k]);
      r.v[k] = static_cast<T>(t < 0 ? 0 : t);
    }
    return r;
  }
  static vec max(vec a, vec b) {
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = a.v[k] > b.v[k] ? a.v[k] : b.v[k];
    return r;
  }
  static mask cmpeq(vec a, vec b) {
    mask m = 0;
    for (int k = 0; k < N; ++k)
      if (a.v[k] == b.v[k]) m |= (uint64_t{1} << k);
    return m;
  }
  static mask cmpgt(vec a, vec b) {
    mask m = 0;
    for (int k = 0; k < N; ++k)
      if (a.v[k] > b.v[k]) m |= (uint64_t{1} << k);
    return m;
  }
  static vec blend(mask m, vec a, vec b) {  // m ? b : a
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = (m >> k) & 1 ? b.v[k] : a.v[k];
    return r;
  }
  static vec set_bits_ne(vec dir, vec a, vec b, vec bits) {
    vec r;
    for (int k = 0; k < N; ++k)
      r.v[k] = a.v[k] != b.v[k] ? static_cast<T>(dir.v[k] | bits.v[k]) : dir.v[k];
    return r;
  }
  static bool any(mask m) { return m != 0; }

  /// Biased substitution-score lookup: mat[qmul[k] + dbr[k]] + bias,
  /// clamped into the (unsigned) element domain. `bias` is 0 for the signed
  /// engine, where plain scores are returned.
  static vec gather_scores(const int32_t* qmul, const int32_t* dbr, const int32_t* mat,
                           int bias) {
    vec r;
    for (int k = 0; k < N; ++k) {
      int64_t s = static_cast<int64_t>(mat[qmul[k] + dbr[k]]) + bias;
      if (!is_signed) {
        if (s < 0) s = 0;
        if (s > cap) s = cap;
      }
      r.v[k] = static_cast<T>(s);
    }
    return r;
  }

  static void store_dir_u8(uint8_t* p, vec a) {
    for (int k = 0; k < N; ++k) p[k] = static_cast<uint8_t>(a.v[k]);
  }

  /// bd[k] = d for every set mask lane (deferred-max bookkeeping).
  static void store_bestd(int32_t* bd, mask m, int d) {
    for (int k = 0; k < N; ++k)
      if ((m >> k) & 1) bd[k] = d;
  }

  /// best[k] = base + off[k] for k in [from, to) where off[k] != cap; from
  /// is a multiple of 16, and an ISA may store up to the next one after to.
  static void store_best_cols(int32_t* best, const elem* off, int from, int to, int base) {
    for (int k = from; k < to; ++k)
      if (off[k] != cap) best[k] = base + off[k];
  }
  static void store_dir_u8_masked(uint8_t* p, mask m, vec a) {
    for (int k = 0; k < N; ++k)
      if ((m >> k) & 1) p[k] = static_cast<uint8_t>(a.v[k]);
  }
  /// A two-table permute of (below, v): shift_index(s) holds k + N - s, so
  /// the lanes of v move s places up, the bottom s from the top of below.
  static vec shift_index(int s) {
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = static_cast<T>(k + N - s);
    return r;
  }
  static vec shift_up(vec below, vec v, vec idx) {
    vec r;
    for (int k = 0, j; k < N; ++k)
      r.v[k] = (j = idx.v[k] % (2 * N)) < N ? below.v[j] : v.v[j - N];
    return r;
  }
  static vec lookup256(const uint8_t* t, vec idx) {
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = t[static_cast<uint8_t>(idx.v[k])];
    return r;
  }
  /// The 32 bytes at p in lanes 0-31, 0 above; lookup32 reads lane idx mod
  /// N of it, 0 where the mask is clear.
  static vec load_table32(const uint8_t* p) {
    vec r = zero();
    for (int k = 0; k < 32 && k < N; ++k) r.v[k] = p[k];
    return r;
  }
  static vec lookup32(mask m, vec t, vec idx) {
    vec r;
    for (int k = 0; k < N; ++k) r.v[k] = (m >> k) & 1 ? t.v[idx.v[k] % N] : T{0};
    return r;
  }
};

// Lane counts are half their AVX2 equivalents: wide enough to exercise the
// ragged-segment logic of the kernel, narrow enough that GCC reliably
// auto-vectorizes the loops for the portable build.
using EmuU8 = EmuEngine<uint8_t, 16>;
using EmuU16 = EmuEngine<uint16_t, 8>;
using EmuI32 = EmuEngine<int32_t, 4>;

}  // namespace swve::simd

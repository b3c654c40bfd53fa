// The pair generators of the column-sweep differential tests, shared by
// test_pair_align.cpp (core::pair_align against diag_align) and
// test_column_emu.cpp (the sweep on the emulated engines against
// diag_align). Each calls check(q, r, cfg, what) once per pair and config.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "matrix/score_matrix.hpp"
#include "seq/synthetic.hpp"

namespace swve::core::pair_cases {

inline uint8_t max_code(seq::SeqView s) {
  uint8_t mx = 0;
  for (size_t i = 0; i < s.length; ++i) mx = std::max(mx, s[i]);
  return mx;
}

/// A reference of length n holding a copy of (a prefix of) q with about
/// `subst_pct` percent substitutions, flanked by random residues.
inline seq::Sequence related(const seq::Sequence& q, uint32_t n, uint64_t seed,
                             int subst_pct, int alphabet_codes = 20) {
  std::mt19937_64 rng(seed);
  const seq::Sequence base = seq::generate_sequence(seed, n, q.alphabet().kind());
  std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
  const size_t copy = std::min<size_t>(q.length(), n);
  const size_t at = (n - copy) / 2;
  for (size_t k = 0; k < copy; ++k) {
    uint8_t c = q.codes()[k];
    if (static_cast<int>(rng() % 100) < subst_pct)
      c = static_cast<uint8_t>(rng() % alphabet_codes);
    codes[at + k] = c;
  }
  return seq::Sequence("rel", std::move(codes), q.alphabet());
}

inline std::string label(const char* name, size_t m, size_t n, const AlignConfig& cfg) {
  return std::string(name) + " m=" + std::to_string(m) + " n=" + std::to_string(n) +
         " w=" + std::to_string(static_cast<int>(cfg.width)) +
         " gm=" + std::to_string(static_cast<int>(cfg.gap_model)) +
         " open=" + std::to_string(cfg.gap_open) + " ext=" +
         std::to_string(cfg.gap_extend) + " tb=" + std::to_string(cfg.traceback);
}

/// Query lengths around every stripe boundary of both widths, random and
/// related references of lengths around the lane counts and long ones.
template <class Check>
void length_grid(Check&& check) {
  const std::vector<uint32_t> ms = {1,   2,   31,  32,  33,  63,  64,  65,  127,
                                    128, 129, 191, 192, 193, 255, 256, 257};
  const std::vector<uint32_t> ns = {1, 2, 5, 64, 65, 127, 128, 129, 257, 300, 1000, 4096};
  uint64_t seed = 100;
  for (uint32_t m : ms) {
    const seq::Sequence q = seq::generate_sequence(seed++, m);
    for (uint32_t n : ns) {
      const seq::Sequence rnd = seq::generate_sequence(seed++, n);
      const seq::Sequence rel = related(q, n, seed++, 8);
      for (GapModel gm : {GapModel::Affine, GapModel::Linear}) {
        for (bool tb : {false, true}) {
          AlignConfig cfg;
          cfg.gap_model = gm;
          if (gm == GapModel::Linear) cfg.gap_extend = 4;
          cfg.traceback = tb;
          check(q, rnd, cfg, label("random", m, n, cfg));
          check(q, rel, cfg, label("related", m, n, cfg));
        }
      }
    }
  }
}

/// Every built-in matrix at every width, and Fixed scoring.
template <class Check>
void every_matrix_and_fixed(Check&& check) {
  uint64_t seed = 500;
  for (const std::string& name : matrix::ScoreMatrix::builtin_names()) {
    AlignConfig cfg;
    cfg.matrix = matrix::ScoreMatrix::find(name);
    for (uint32_t m : {40u, 100u, 128u}) {
      const seq::Sequence q = seq::generate_sequence(seed++, m);
      const seq::Sequence r = related(q, 120, seed++, 15);
      for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
        for (bool tb : {false, true}) {
          cfg.width = w;
          cfg.traceback = tb;
          check(q, r, cfg, label(name.c_str(), m, 120, cfg));
        }
      }
    }
  }
  AlignConfig fixed;
  fixed.scheme = ScoreScheme::Fixed;
  for (auto [match, mismatch] : {std::pair{2, -3}, {5, -4}, {1, 0}, {3, 3}}) {
    fixed.match = match;
    fixed.mismatch = mismatch;
    const seq::Sequence q = seq::generate_sequence(seed++, 90);
    const seq::Sequence r = related(q, 128, seed++, 10);
    for (GapModel gm : {GapModel::Affine, GapModel::Linear}) {
      fixed.gap_model = gm;
      fixed.traceback = true;
      check(q, r, fixed, label("fixed", 90, 128, fixed));
    }
  }
}

template <class Check>
void dna(Check&& check) {
  AlignConfig cfg;
  cfg.matrix = &matrix::ScoreMatrix::dna_iupac();
  cfg.gap_open = 8;
  cfg.gap_extend = 2;
  uint64_t seed = 900;
  for (uint32_t m : {20u, 64u, 120u}) {
    const seq::Sequence q = seq::generate_sequence(seed++, m, seq::AlphabetKind::Dna);
    const seq::Sequence r = related(q, 128, seed++, 10, 4);
    for (bool tb : {false, true}) {
      cfg.traceback = tb;
      check(q, r, cfg, label("dna", m, 128, cfg));
    }
  }
}

/// The 8-bit limit first reached in column 0, in a middle column and in the
/// last column, and a limit below 0 (8 bits hold no cell): an adaptive sweep
/// continues at 16 bits in place.
template <class Check>
void saturating(Check&& check) {
  AlignConfig cfg;
  cfg.traceback = true;
  uint64_t seed = 1300;
  {  // column 0: one match alone reaches the 8-bit limit
    AlignConfig c = cfg;
    c.scheme = ScoreScheme::Fixed;
    c.match = 127;
    c.mismatch = -1;
    const seq::Sequence q = seq::generate_sequence(seed++, 80);
    const seq::Sequence r = related(q, 120, seed++, 5);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check(q, r, c, label("col0", 80, 120, c));
    }
    // The limit below 0: 8 bits hold no cell, the sweep starts at 16.
    c.match = 300;
    c.mismatch = -3;
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check(q, r, c, label("no8", 80, 120, c));
    }
  }
  {  // a middle column: a long identical stretch under BLOSUM62
    const seq::Sequence q = seq::generate_sequence(seed++, 128);
    const seq::Sequence r = related(q, 128, seed++, 2);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      for (bool tb : {false, true}) {
        AlignConfig c = cfg;
        c.width = w;
        c.traceback = tb;
        check(q, r, c, label("middle", 128, 128, c));
      }
    }
  }
  {  // the last column: +2 per identical residue reaches 250 at column 124
    AlignConfig c = cfg;
    c.scheme = ScoreScheme::Fixed;
    c.match = 2;
    c.mismatch = -3;
    const seq::Sequence q = seq::generate_sequence(seed++, 125);
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      c.width = w;
      check(q, q, c, label("last", 125, 125, c));
    }
  }
}

template <class Check>
void extreme_gaps(Check&& check) {
  uint64_t seed = 1700;
  const seq::Sequence q = seq::generate_sequence(seed++, 70);
  const seq::Sequence r = related(q, 120, seed++, 20);
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  for (Gaps g : {Gaps{GapModel::Affine, 0, 0}, Gaps{GapModel::Linear, 0, 0},
                 Gaps{GapModel::Affine, 300, 280}, Gaps{GapModel::Affine, 300, 1},
                 Gaps{GapModel::Linear, 0, 300}}) {
    for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
      AlignConfig cfg;
      cfg.gap_model = g.gm;
      cfg.gap_open = g.open;
      cfg.gap_extend = g.ext;
      cfg.width = w;
      cfg.traceback = true;
      check(q, r, cfg, label("gaps", 70, 120, cfg));
    }
  }
}

// The reference is the query with L residues cut from its middle or 20
// residues before its end (and the roles swapped), so the best alignment
// crosses a vertical (and a horizontal) gap of L rows, in the first lanes
// or only in later ones. The query rows are striped over S vectors (S 1-4
// at 8 bits, 1-8 at 16), and the gap scan's carry steps shift by S*2^s
// rows; L runs across every such shift of both widths, and one either
// side, so the scan's early stop is exercised before, at and after each of
// its steps, and the gaps cross lane blocks.
template <class Check>
void vertical_gaps(Check&& check) {
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  const Gaps gaps[] = {{GapModel::Affine, 11, 1}, {GapModel::Affine, 5, 2},
                       {GapModel::Linear, 0, 3}, {GapModel::Affine, 6, 0}};
  uint64_t seed = 2000;
  for (int m : {63, 64, 65, 127, 128, 129, 193, static_cast<int>(kColumnSweepMaxQuery)}) {
    const seq::Sequence q = seq::generate_sequence(seed++, static_cast<uint32_t>(m));
    std::set<int> cuts;
    for (int s : {(m + 63) / 64, (m + 31) / 32})
      for (int step = s; step < m; step *= 2)
        for (int d : {-1, 0, 1}) cuts.insert(step + d);
    for (int gap : cuts) {
      for (int at : {(m - gap) / 2, m - gap - 20}) {
        if (gap < 1 || gap >= m || at < 0) continue;
        std::vector<uint8_t> cut(q.codes().begin(), q.codes().end());
        cut.erase(cut.begin() + at, cut.begin() + at + gap);
        const seq::Sequence r("cut", std::move(cut), q.alphabet());
        const std::string where = " gap=" + std::to_string(gap) + " at=" + std::to_string(at);
        for (const Gaps& g : gaps) {
          for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
            for (bool tb : {false, true}) {
              AlignConfig cfg;
              cfg.gap_model = g.gm;
              cfg.gap_open = g.open;
              cfg.gap_extend = g.ext;
              cfg.width = w;
              cfg.traceback = tb;
              check(q, r, cfg, label("vertical", q.length(), r.length(), cfg) + where);
              check(r, q, cfg, label("horizontal", r.length(), q.length(), cfg) + where);
              if (::testing::Test::HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

// Long references holding several copies of the query, each with a long
// block deleted (a vertical gap) or a long random block inserted (a
// horizontal one): the gap scan's early stop rarely fires in the columns
// that cross them, and the best alignment may end in any copy.
template <class Check>
void long_references(Check&& check) {
  struct Gaps {
    GapModel gm;
    int open, ext;
  };
  const Gaps gaps[] = {{GapModel::Affine, 11, 1}, {GapModel::Affine, 4, 1},
                       {GapModel::Linear, 0, 2}};
  std::mt19937_64 rng(2050);
  for (uint32_t m : {64u, 128u, 200u, static_cast<uint32_t>(kColumnSweepMaxQuery)}) {
    const seq::Sequence q = seq::generate_sequence(rng(), m);
    for (uint32_t n : {1000u, 4096u}) {
      const seq::Sequence base = seq::generate_sequence(rng(), n);
      std::vector<uint8_t> codes(base.codes().begin(), base.codes().end());
      for (size_t pos = rng() % 100; pos < n; pos += m + 100 + rng() % 300) {
        std::vector<uint8_t> copy(q.codes().begin(), q.codes().end());
        const size_t len = m / 8 + rng() % (m / 2);
        const size_t at = rng() % (m - len);
        if (rng() % 2 == 0) {
          copy.erase(copy.begin() + at, copy.begin() + at + len);
        } else {
          for (size_t k = 0; k < len; ++k)
            copy.insert(copy.begin() + at, static_cast<uint8_t>(rng() % 20));
        }
        for (auto& c : copy)
          if (rng() % 100 < 5) c = static_cast<uint8_t>(rng() % 20);
        for (size_t k = 0; k < copy.size() && pos + k < n; ++k) codes[pos + k] = copy[k];
      }
      const seq::Sequence r("long", std::move(codes), q.alphabet());
      for (const Gaps& g : gaps) {
        for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
          for (bool tb : {false, true}) {
            AlignConfig cfg;
            cfg.gap_model = g.gm;
            cfg.gap_open = g.open;
            cfg.gap_extend = g.ext;
            cfg.width = w;
            cfg.traceback = tb;
            check(q, r, cfg, label("long", m, n, cfg));
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

template <class Check>
void empty_reference(Check&& check) {
  const seq::Sequence q = seq::generate_sequence(2700, 40);
  const seq::Sequence empty("e", std::vector<uint8_t>{}, seq::Alphabet::protein());
  for (Width w : {Width::Adaptive, Width::W8, Width::W16}) {
    AlignConfig cfg;
    cfg.width = w;
    check(q, empty, cfg, "empty ref");
  }
}

/// `count` random shapes and configs from `seed`: queries of 1-300 and
/// references of 1-600 residues, so the rule's whole domain plus its edges.
template <class Check>
void random_pairs(Check&& check, uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  auto names = matrix::ScoreMatrix::builtin_names();
  for (int it = 0; it < count; ++it) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng() % 300);
    const uint32_t n = 1 + static_cast<uint32_t>(rng() % 600);
    const seq::Sequence q = seq::generate_sequence(rng(), m);
    const seq::Sequence r = rng() % 3 == 0 ? related(q, n, rng(), 8)
                                           : seq::generate_sequence(rng(), n);
    AlignConfig cfg;
    if (rng() % 4 == 0) {
      cfg.scheme = ScoreScheme::Fixed;
      cfg.match = 1 + static_cast<int>(rng() % 8);
      cfg.mismatch = -static_cast<int>(rng() % 8);
    } else {
      cfg.matrix = matrix::ScoreMatrix::find(names[rng() % names.size()]);
    }
    if (rng() % 3 == 0) {
      cfg.gap_model = GapModel::Linear;
      cfg.gap_extend = static_cast<int>(rng() % 6);
    } else {
      cfg.gap_extend = static_cast<int>(rng() % 4);
      cfg.gap_open = cfg.gap_extend + static_cast<int>(rng() % 14);
    }
    const Width widths[] = {Width::Adaptive, Width::W8, Width::W16};
    cfg.width = widths[rng() % 3];
    cfg.traceback = rng() % 2 == 0;
    check(q, r, cfg, label("random", m, n, cfg) + " it=" + std::to_string(it));
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace swve::core::pair_cases

// Precomputed per-query feed arrays for the diagonal kernel family.
//
// Every diag_align call rebuilds two O(m) arrays into the workspace before
// the DP sweep: the gather-index feed qmul32 (32 * q[i], Fig 4) and the
// width-widened encoded query qenc (compare feed for Fixed scoring, lookup
// indices for Shuffle delivery). A database search streams thousands of
// targets against ONE query, and a service sees the same query on
// back-to-back requests — so this state can be built once and shared
// read-only across threads. A kernel handed a PreparedQuery skips the
// rebuild; results are bit-identical either way (the arrays hold exactly
// the bytes the in-workspace build would produce, padding included).
//
// The arrays depend only on the query residues — not on the matrix, gap
// model, or ISA — so one PreparedQuery serves every config. (Cache layers
// above may still key more conservatively; see align::QueryStateCache.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/workspace.hpp"
#include "seq/alphabet.hpp"
#include "seq/sequence.hpp"

namespace swve::core {

class PreparedQuery {
 public:
  explicit PreparedQuery(seq::SeqView query) : m_(static_cast<int>(query.length)) {
    const size_t padded = query.length + static_cast<size_t>(kPad);
    qmul32_.assign(padded, 0);  // zeroed pads: masked-tail gathers hit row 0
    qenc8_.assign(padded, 0);   // zeroed pads: code 0 is a valid LUT index
    qenc16_.assign(padded, 0);
    qenc32_.assign(padded, 0);
    for (size_t i = 0; i < query.length; ++i) {
      const uint8_t c = query.data[i];
      qmul32_[i] = static_cast<int32_t>(c) * seq::kMatrixStride;
      qenc8_[i] = c;
      qenc16_[i] = c;
      qenc32_[i] = c;
      max_code_ = std::max(max_code_, c);
    }
  }

  int query_length() const noexcept { return m_; }
  /// Largest residue code in the query (0 when empty).
  uint8_t max_code() const noexcept { return max_code_; }
  /// Gather/Fill feed: 32 * q[i], kPad zeroed entries past the end.
  const int32_t* qmul32() const noexcept { return qmul32_.data(); }

  /// Encoded query widened to the kernel element type (uint8_t / uint16_t /
  /// int32_t are the only elem types the engines instantiate).
  template <typename Elem>
  const Elem* qenc() const noexcept {
    if constexpr (sizeof(Elem) == 1)
      return reinterpret_cast<const Elem*>(qenc8_.data());
    else if constexpr (sizeof(Elem) == 2)
      return reinterpret_cast<const Elem*>(qenc16_.data());
    else
      return reinterpret_cast<const Elem*>(qenc32_.data());
  }

  /// Bytes held by this object (cache accounting).
  size_t memory_bytes() const noexcept {
    return qmul32_.size() * 4 + qenc8_.size() + qenc16_.size() * 2 +
           qenc32_.size() * 4;
  }

 private:
  int m_;
  uint8_t max_code_ = 0;
  std::vector<int32_t> qmul32_;
  std::vector<uint8_t> qenc8_;
  std::vector<uint16_t> qenc16_;
  std::vector<int32_t> qenc32_;
};

}  // namespace swve::core

// Sequence database container used by the search drivers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/sequence.hpp"
#include "seq/synthetic.hpp"

namespace swve::seq {

/// An immutable collection of target sequences plus the aggregate statistics
/// the benchmarks and the partitioner need (total residues for GCUPS math,
/// max length for workspace pre-sizing).
class SequenceDatabase {
 public:
  SequenceDatabase() = default;
  explicit SequenceDatabase(std::vector<Sequence> seqs);

  /// Adopt sequences whose aggregate statistics and length ordering are
  /// already known (the mmap'd-artifact path: totals come from the header
  /// and the order from the length-index section, so construction does no
  /// residue-proportional work). `by_length` must be a permutation of
  /// [0, seqs.size()) in ascending length order; it is trusted, not checked.
  SequenceDatabase(std::vector<Sequence> seqs, uint64_t total_residues,
                   size_t max_length, std::vector<uint32_t> by_length);

  static SequenceDatabase from_fasta_file(const std::string& path,
                                          const Alphabet& alphabet);
  static SequenceDatabase synthetic(const SyntheticConfig& cfg);

  size_t size() const noexcept { return seqs_.size(); }
  bool empty() const noexcept { return seqs_.empty(); }
  const Sequence& operator[](size_t i) const noexcept { return seqs_[i]; }
  const std::vector<Sequence>& sequences() const noexcept { return seqs_; }

  uint64_t total_residues() const noexcept { return total_residues_; }
  size_t max_length() const noexcept { return max_length_; }

  /// Indices of sequences ordered by ascending length: the order
  /// core::Batch32Db cuts its batches from, persisted as the .swdb
  /// artifact's LengthIndex section.
  const std::vector<uint32_t>& by_length() const noexcept { return by_length_; }

 private:
  std::vector<Sequence> seqs_;
  std::vector<uint32_t> by_length_;
  uint64_t total_residues_ = 0;
  size_t max_length_ = 0;
};

}  // namespace swve::seq

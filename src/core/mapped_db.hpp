// Read-only mmap loader for swve db artifacts.
//
// MappedDb::open maps a file written by tools/swve_db_build and serves both
// the SequenceDatabase (non-owning Sequence views into the mapped code
// bytes) and the Batch32Db (view mode over the mapped batch sections)
// without copying or re-packing anything. Startup work is proportional to
// sequence COUNT (building the view vectors), not to residues — the
// gigabytes of column data are faulted in lazily by the kernel, shared
// across processes via the page cache, and evictable, so databases larger
// than RAM stream.
#pragma once

#include <memory>
#include <string>

#include "core/batch32.hpp"
#include "core/db_format.hpp"
#include "core/error.hpp"
#include "seq/database.hpp"

namespace swve::core {

/// Where the served database bytes live. Built = packed in-process from
/// FASTA/synthetic input (the legacy path); Mmap = read-only file mapping
/// of an artifact.
enum class DbSource : uint8_t { Built = 0, Mmap = 1 };
const char* db_source_name(DbSource s) noexcept;

struct MappedDbOptions {
  /// Also checksum the big payload sections (SeqCodes, BatchColumns) at
  /// open — O(file size), touches every page. Off by default because it
  /// defeats the O(1)-startup point; --verify and tests turn it on.
  bool verify_all = false;
};

/// An opened artifact. Immutable and internally synchronized-by-constness:
/// concurrent readers need no locking.
class MappedDb {
 public:
  static ErrorOr<std::unique_ptr<MappedDb>> open(
      const std::string& path, const MappedDbOptions& opts = MappedDbOptions{});

  ~MappedDb();
  MappedDb(const MappedDb&) = delete;
  MappedDb& operator=(const MappedDb&) = delete;

  const seq::SequenceDatabase& db() const noexcept { return db_; }
  const Batch32Db& batch_db() const noexcept { return *bdb_; }
  const SwdbHeader& header() const noexcept { return header_; }
  /// The artifact's stored db_epoch — equal by construction to
  /// net::database_epoch of the same content loaded from FASTA.
  uint64_t epoch() const noexcept { return header_.db_epoch; }
  DbSource source() const noexcept { return source_; }
  size_t mapped_bytes() const noexcept { return size_; }
  /// Wall time of open(): map + validate + view construction.
  double load_seconds() const noexcept { return load_seconds_; }
  /// Bytes of the mapping currently resident in RAM (mincore walk);
  /// 0 if the query fails. A residency gauge, not a hard guarantee.
  size_t resident_bytes() const noexcept;
  /// Shard slicing helper: MADV_WILLNEED only the file-mapped column bytes
  /// of batches [first_batch, end_batch), rounded out to whole pages — a
  /// sharded server prefaults each shard's own stream instead of faulting
  /// every page on first scan. Advisory; no-op on bad ranges.
  void advise_batch_columns(size_t first_batch, size_t end_batch) const noexcept;
  const std::string& path() const noexcept { return path_; }

 private:
  MappedDb() = default;

  SwdbHeader header_;
  seq::SequenceDatabase db_;
  std::unique_ptr<Batch32Db> bdb_;
  std::string path_;
  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  DbSource source_ = DbSource::Mmap;
  double load_seconds_ = 0.0;
};

}  // namespace swve::core

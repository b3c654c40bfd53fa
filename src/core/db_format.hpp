// The "swve db" on-disk artifact format (version 1).
//
// A swve db file is the Batch32Db packing made persistent: the database is
// encoded, length-ordered, and transposed into batch columns ONCE by
// tools/swve_db_build, and every server/bench process thereafter just mmaps
// the file (core/mapped_db.hpp) — startup cost is independent of database
// size, the page cache shares one physical copy across processes, and
// databases larger than RAM stream through the kernel.
//
// Layout (all integers little-endian, offsets absolute):
//
//   ┌──────────────────────────────┐ 0
//   │ SwdbHeader (128 B)           │  magic "SWDB", version, epoch, counts
//   ├──────────────────────────────┤ 128
//   │ SwdbSection[section_count]   │  id, offset, bytes, FNV-1a checksum
//   ├──────────────────────────────┤ 64-byte aligned
//   │ section payloads...          │  each aligned to kSwdbAlign
//   └──────────────────────────────┘ file_bytes
//
// Sections (ids are stable; new sections append new ids):
//   SeqLengths    uint32[seq_count]        per-sequence residue counts
//   SeqOffsets    uint64[seq_count + 1]    byte offsets into SeqCodes
//   SeqCodes      uint8[total_residues]    encoded residues, concatenated
//   IdOffsets     uint64[seq_count + 1]    byte offsets into IdBytes
//   IdBytes       char[]                   sequence ids, concatenated
//   LengthIndex   uint32[seq_count]        ascending-length permutation
//   BatchRecords  BatchRecord[batch_count] batch placement metadata
//   BatchSeqIndex uint32[]                 lane -> original database index
//   BatchSeqLens  uint32[]                 lane -> sequence length
//   BatchColumns  uint8[]                  transposed columns, 64-B aligned
//                                          for direct kernel consumption
//
// Versioning policy: the header layout, section ids, BatchRecord layout,
// and the fingerprint algorithm are all part of the format version. Any
// change to them bumps kSwdbVersion; readers reject versions they do not
// know (no silent reinterpretation). Adding a NEW section id is the only
// backward-compatible evolution (old readers must ignore unknown ids).
#pragma once

#include <cstdint>
#include <string>

#include "core/batch32.hpp"
#include "core/error.hpp"
#include "seq/database.hpp"

namespace swve::core {

/// "SWDB" read as a little-endian uint32_t.
inline constexpr uint32_t kSwdbMagic = 0x42445753u;
/// Written as 0x01020304 by the builder; a reader on an opposite-endian
/// machine sees 0x04030201 and rejects the file instead of mis-decoding.
inline constexpr uint32_t kSwdbEndianTag = 0x01020304u;
inline constexpr uint32_t kSwdbVersion = 1;
/// The header's `packing` byte. Every artifact is length-sorted (the one
/// core::Batch32Db layout); the byte stays so that v1 artifacts written
/// with the retired db-order (0) or length-binned (2) layouts are refused,
/// not reinterpreted.
inline constexpr uint8_t kSwdbLengthSorted = 1;
/// Alignment of every section payload (and in particular BatchColumns, so
/// the batch kernels can load columns with aligned vector loads).
inline constexpr uint32_t kSwdbAlign = 64;

enum class SwdbSectionId : uint32_t {
  SeqLengths = 1,
  SeqOffsets = 2,
  SeqCodes = 3,
  IdOffsets = 4,
  IdBytes = 5,
  LengthIndex = 6,
  BatchRecords = 7,
  BatchSeqIndex = 8,
  BatchSeqLens = 9,
  BatchColumns = 10,
};
inline constexpr uint32_t kSwdbSectionCount = 10;

/// Fixed 128-byte file header. Trivially copyable on purpose: it is read
/// with memcpy out of the map, never cast in place.
struct SwdbHeader {
  uint32_t magic = kSwdbMagic;
  uint32_t endian_tag = kSwdbEndianTag;
  uint32_t version = kSwdbVersion;
  uint32_t header_bytes = 0;    ///< header + section table, in bytes
  uint32_t section_count = 0;
  uint8_t alphabet = 0;         ///< seq::AlphabetKind
  uint8_t packing = kSwdbLengthSorted;  ///< the only value readers accept
  uint8_t lanes = 0;            ///< batch kernel width: 32 or 64
  uint8_t flags = 0;            ///< reserved, must be 0 in v1
  uint64_t db_epoch = 0;        ///< database_fingerprint of the content
  uint64_t seq_count = 0;
  uint64_t total_residues = 0;
  uint64_t max_length = 0;
  uint64_t real_residues = 0;   ///< Batch32Db accounting
  uint64_t padded_residues = 0;
  uint64_t batch_count = 0;
  uint64_t file_bytes = 0;      ///< total file size; truncation detector
  uint64_t header_checksum = 0; ///< FNV-1a over header + section table with
                                ///< this field zeroed
  uint8_t reserved[32] = {};
};
static_assert(sizeof(SwdbHeader) == 128, "SwdbHeader is an on-disk layout");

/// 32-byte section-table entry.
struct SwdbSection {
  uint32_t id = 0;        ///< SwdbSectionId
  uint32_t reserved = 0;
  uint64_t offset = 0;    ///< absolute file offset, kSwdbAlign-aligned
  uint64_t bytes = 0;     ///< payload length
  uint64_t checksum = 0;  ///< FNV-1a 64 over the payload
};
static_assert(sizeof(SwdbSection) == 32, "SwdbSection is an on-disk layout");

/// FNV-1a 64 over a byte range, seedable for incremental use.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;
uint64_t fnv1a_64(const void* data, size_t n,
                  uint64_t seed = kFnvOffsetBasis) noexcept;

/// Canonical content fingerprint of a database: seq count, then per
/// sequence the alphabet kind and length-prefixed code bytes, FNV-1a
/// folded. This is THE db_epoch — net::database_epoch delegates here, so an
/// artifact's stored epoch equals what a FASTA-startup server would compute
/// and wire cache keys agree across both startup paths.
uint64_t database_fingerprint(const seq::SequenceDatabase& db);

/// Cheap sniff: does the file start with the SWDB magic? Lets callers that
/// accept both FASTA and artifacts (--db) route without parsing.
bool file_has_swdb_magic(const std::string& path) noexcept;

struct SwdbBuildStats {
  uint64_t file_bytes = 0;
  uint64_t batch_count = 0;
  uint64_t db_epoch = 0;
};

/// Serialize `db` plus its packing `bdb` to `path`. `bdb` must have been
/// built from exactly `db` (sequence_count is cross-checked); the database
/// must be non-empty and single-alphabet. Failures (I/O, inconsistent
/// inputs) come back as Code::InvalidArtifact.
ErrorOr<SwdbBuildStats> write_swdb(const seq::SequenceDatabase& db,
                                   const Batch32Db& bdb,
                                   const std::string& path);

}  // namespace swve::core

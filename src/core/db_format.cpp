#include "core/db_format.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

namespace swve::core {

uint64_t fnv1a_64(const void* data, size_t n, uint64_t seed) noexcept {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t database_fingerprint(const seq::SequenceDatabase& db) {
  // Byte-for-byte the net::database_epoch algorithm (which delegates here):
  // u64 count, then per sequence u8 alphabet kind + length-prefixed codes.
  uint64_t h = kFnvOffsetBasis;
  const uint64_t count = db.size();
  h = fnv1a_64(&count, sizeof count, h);
  for (const seq::Sequence& s : db.sequences()) {
    const uint8_t kind = static_cast<uint8_t>(s.alphabet().kind());
    h = fnv1a_64(&kind, sizeof kind, h);
    const uint64_t n = s.length();
    h = fnv1a_64(&n, sizeof n, h);
    h = fnv1a_64(s.data(), s.length(), h);
  }
  return h;
}

bool file_has_swdb_magic(const std::string& path) noexcept {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint32_t magic = 0;
  const bool got = std::fread(&magic, sizeof magic, 1, f) == 1;
  std::fclose(f);
  return got && magic == kSwdbMagic;
}

namespace {

ConfigError artifact_error(std::string msg) {
  return ConfigError{ConfigError::Code::InvalidArtifact, std::move(msg)};
}

/// Streams section payloads to the file, tracking the running offset and
/// folding each payload into its section's FNV-1a checksum as it goes (the
/// big sections are written straight from the packed buffers, never staged).
struct SectionWriter {
  std::FILE* f = nullptr;
  uint64_t pos = 0;
  bool io_error = false;
  std::vector<SwdbSection> sections;

  void raw(const void* data, size_t n) {
    if (n != 0 && std::fwrite(data, 1, n, f) != n) io_error = true;
    pos += n;
  }
  void pad_to(uint64_t align) {
    static constexpr uint8_t zeros[kSwdbAlign] = {};
    while (pos % align != 0) {
      const size_t n =
          static_cast<size_t>(std::min<uint64_t>(align - pos % align, sizeof zeros));
      raw(zeros, n);
    }
  }
  /// emit() is handed a put(data, n) sink; everything put becomes the
  /// section's payload.
  template <typename Fn>
  void section(SwdbSectionId id, Fn&& emit) {
    pad_to(kSwdbAlign);
    SwdbSection s;
    s.id = static_cast<uint32_t>(id);
    s.offset = pos;
    uint64_t checksum = kFnvOffsetBasis;
    emit([&](const void* d, size_t n) {
      raw(d, n);
      checksum = fnv1a_64(d, n, checksum);
    });
    s.bytes = pos - s.offset;
    s.checksum = checksum;
    sections.push_back(s);
  }
};

}  // namespace

ErrorOr<SwdbBuildStats> write_swdb(const seq::SequenceDatabase& db,
                                   const Batch32Db& bdb,
                                   const std::string& path) {
  if (db.empty())
    return artifact_error("write_swdb: refusing to write an empty database");
  if (bdb.sequence_count() != db.size())
    return artifact_error("write_swdb: Batch32Db was not packed from this database");
  const seq::Alphabet* alphabet = &db[0].alphabet();
  for (const seq::Sequence& s : db.sequences())
    if (&s.alphabet() != alphabet)
      return artifact_error("write_swdb: mixed alphabets in one database");

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    return artifact_error("write_swdb: cannot open '" + path + "' for writing");

  constexpr uint32_t kHeaderBytes =
      sizeof(SwdbHeader) + kSwdbSectionCount * sizeof(SwdbSection);

  SectionWriter w;
  w.f = f;
  // Placeholder header + section table; rewritten once offsets are known.
  {
    static constexpr uint8_t zeros[kSwdbAlign] = {};
    for (uint32_t off = 0; off < kHeaderBytes; off += kSwdbAlign)
      w.raw(zeros, std::min<uint32_t>(kSwdbAlign, kHeaderBytes - off));
  }

  const size_t n = db.size();
  std::vector<uint32_t> lens(n);
  std::vector<uint64_t> seq_offsets(n + 1, 0);
  std::vector<uint64_t> id_offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    lens[i] = static_cast<uint32_t>(db[i].length());
    seq_offsets[i + 1] = seq_offsets[i] + db[i].length();
    id_offsets[i + 1] = id_offsets[i] + db[i].id().size();
  }

  w.section(SwdbSectionId::SeqLengths, [&](auto put) {
    put(lens.data(), lens.size() * sizeof(uint32_t));
  });
  w.section(SwdbSectionId::SeqOffsets, [&](auto put) {
    put(seq_offsets.data(), seq_offsets.size() * sizeof(uint64_t));
  });
  w.section(SwdbSectionId::SeqCodes, [&](auto put) {
    for (const seq::Sequence& s : db.sequences()) put(s.data(), s.length());
  });
  w.section(SwdbSectionId::IdOffsets, [&](auto put) {
    put(id_offsets.data(), id_offsets.size() * sizeof(uint64_t));
  });
  w.section(SwdbSectionId::IdBytes, [&](auto put) {
    for (const seq::Sequence& s : db.sequences())
      put(s.id().data(), s.id().size());
  });
  w.section(SwdbSectionId::LengthIndex, [&](auto put) {
    put(db.by_length().data(), db.by_length().size() * sizeof(uint32_t));
  });
  w.section(SwdbSectionId::BatchRecords, [&](auto put) {
    const auto recs = bdb.batch_records();
    put(recs.data(), recs.size_bytes());
  });
  w.section(SwdbSectionId::BatchSeqIndex, [&](auto put) {
    const auto idx = bdb.seq_index_data();
    put(idx.data(), idx.size_bytes());
  });
  w.section(SwdbSectionId::BatchSeqLens, [&](auto put) {
    const auto sl = bdb.seq_len_data();
    put(sl.data(), sl.size_bytes());
  });
  w.section(SwdbSectionId::BatchColumns, [&](auto put) {
    const auto cols = bdb.column_bytes();
    put(cols.data(), cols.size_bytes());
  });
  // Pad the tail so file_bytes is a multiple of kSwdbAlign too. Every v1
  // artifact ends this way; dropping the pad would change its size.
  w.pad_to(kSwdbAlign);

  SwdbHeader h;
  h.header_bytes = kHeaderBytes;
  h.section_count = kSwdbSectionCount;
  h.alphabet = static_cast<uint8_t>(alphabet->kind());
  h.lanes = static_cast<uint8_t>(bdb.lanes());
  h.db_epoch = database_fingerprint(db);
  h.seq_count = n;
  h.total_residues = db.total_residues();
  h.max_length = db.max_length();
  h.real_residues = bdb.real_residues();
  h.padded_residues = bdb.padded_residues();
  h.batch_count = bdb.batch_count();
  h.file_bytes = w.pos;
  h.header_checksum = 0;
  uint64_t hcs = fnv1a_64(&h, sizeof h);
  hcs = fnv1a_64(w.sections.data(), w.sections.size() * sizeof(SwdbSection), hcs);
  h.header_checksum = hcs;

  bool ok = !w.io_error;
  ok = ok && std::fseek(f, 0, SEEK_SET) == 0;
  ok = ok && std::fwrite(&h, sizeof h, 1, f) == 1;
  ok = ok && std::fwrite(w.sections.data(), sizeof(SwdbSection),
                         w.sections.size(), f) == w.sections.size();
  ok = ok && std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(path.c_str());
    return artifact_error("write_swdb: I/O error writing '" + path + "'");
  }

  SwdbBuildStats stats;
  stats.file_bytes = h.file_bytes;
  stats.batch_count = h.batch_count;
  stats.db_epoch = h.db_epoch;
  return stats;
}

}  // namespace swve::core

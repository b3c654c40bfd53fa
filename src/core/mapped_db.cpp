#include "core/mapped_db.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "seq/alphabet.hpp"

namespace swve::core {

const char* db_source_name(DbSource s) noexcept {
  switch (s) {
    case DbSource::Built: return "built";
    case DbSource::Mmap: return "mmap";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

ConfigError bad(std::string msg) {
  return ConfigError{ConfigError::Code::InvalidArtifact, std::move(msg)};
}

struct Mapping {
  const uint8_t* base = nullptr;
  size_t size = 0;
};

ErrorOr<Mapping> map_file_ro(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    return bad("'" + path + "': cannot open: " + std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int e = errno;
    ::close(fd);
    return bad("'" + path + "': fstat failed: " + std::strerror(e));
  }
  const auto size = static_cast<size_t>(st.st_size);
  if (size < sizeof(SwdbHeader)) {
    ::close(fd);
    return bad("'" + path + "': shorter than the SWDB header (truncated?)");
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (p == MAP_FAILED)
    return bad("'" + path + "': mmap failed: " + std::strerror(errno));
  return Mapping{static_cast<const uint8_t*>(p), size};
}

/// Every pointer a MappedDb needs, resolved and bounds-checked against one
/// image. Validation cost is O(sequence count + batch count) — metadata
/// only; the residue and column payloads are checksummed only under
/// verify_all (O(file), touches every page, defeats lazy faulting).
struct ParsedImage {
  SwdbHeader header;
  const uint32_t* seq_lens = nullptr;
  const uint64_t* seq_offsets = nullptr;   // seq_count + 1 entries
  const uint8_t* seq_codes = nullptr;
  const uint64_t* id_offsets = nullptr;    // seq_count + 1 entries
  const char* id_bytes = nullptr;
  const uint32_t* length_index = nullptr;
  const BatchRecord* batch_records = nullptr;
  const uint32_t* batch_seq_index = nullptr;
  const uint32_t* batch_seq_lens = nullptr;
  uint64_t batch_index_entries = 0;
  const uint8_t* batch_columns = nullptr;
  uint64_t batch_columns_bytes = 0;
};

ErrorOr<ParsedImage> parse_image(const uint8_t* base, size_t size,
                                 bool verify_all, const std::string& what) {
  ParsedImage img;
  if (size < sizeof(SwdbHeader))
    return bad(what + ": truncated header");
  std::memcpy(&img.header, base, sizeof(SwdbHeader));
  const SwdbHeader& h = img.header;

  if (h.magic != kSwdbMagic)
    return bad(what + ": bad magic (not a swve db artifact)");
  if (h.endian_tag != kSwdbEndianTag)
    return bad(what + ": endianness mismatch (artifact written on an "
                      "opposite-endian machine)");
  if (h.version != kSwdbVersion)
    return bad(what + ": unsupported format version " +
               std::to_string(h.version) + " (this reader understands v" +
               std::to_string(kSwdbVersion) + ")");
  if (h.flags != 0)
    return bad(what + ": unknown header flags (written by a newer tool?)");
  if (h.section_count < kSwdbSectionCount ||
      h.header_bytes !=
          sizeof(SwdbHeader) + h.section_count * sizeof(SwdbSection) ||
      h.header_bytes > size)
    return bad(what + ": section table out of bounds");
  if (h.file_bytes != size)
    return bad(what + ": file size mismatch (header says " +
               std::to_string(h.file_bytes) + " bytes, mapped " +
               std::to_string(size) + " — truncated?)");
  if (h.lanes != 32 && h.lanes != 64)
    return bad(what + ": invalid lane count " + std::to_string(h.lanes));
  if (h.packing != kSwdbLengthSorted)
    return bad(what + ": batch layout " + std::to_string(h.packing) +
               " is not length-sorted (" + std::to_string(kSwdbLengthSorted) +
               "); rebuild the artifact with swve_db_build");
  if (h.alphabet > static_cast<uint8_t>(seq::AlphabetKind::Dna))
    return bad(what + ": unknown alphabet id");
  // Counts can't exceed the file size (every sequence/batch costs metadata
  // bytes); rejecting here also keeps the size math below overflow-free.
  if (h.seq_count > size || h.batch_count > size || h.seq_count == 0)
    return bad(what + ": implausible sequence/batch counts");

  {
    SwdbHeader hz = h;
    hz.header_checksum = 0;
    uint64_t hcs = fnv1a_64(&hz, sizeof hz);
    hcs = fnv1a_64(base + sizeof(SwdbHeader),
                   h.header_bytes - sizeof(SwdbHeader), hcs);
    if (hcs != h.header_checksum)
      return bad(what + ": header/section-table checksum mismatch");
  }

  std::vector<SwdbSection> secs(h.section_count);
  std::memcpy(secs.data(), base + sizeof(SwdbHeader),
              h.section_count * sizeof(SwdbSection));
  auto find = [&](SwdbSectionId id) -> const SwdbSection* {
    for (const SwdbSection& s : secs)
      if (s.id == static_cast<uint32_t>(id)) return &s;
    return nullptr;
  };
  for (const SwdbSection& s : secs) {
    if (s.offset % kSwdbAlign != 0 || s.offset > size ||
        s.bytes > size - s.offset)
      return bad(what + ": section " + std::to_string(s.id) +
                 " out of bounds");
  }

  // Resolve the required sections with exact size expectations.
  const uint64_t n = h.seq_count;
  struct Want {
    SwdbSectionId id;
    uint64_t bytes;      // expected payload size; UINT64_MAX = any
    const char* name;
  };
  const Want wants[] = {
      {SwdbSectionId::SeqLengths, n * 4, "SeqLengths"},
      {SwdbSectionId::SeqOffsets, (n + 1) * 8, "SeqOffsets"},
      {SwdbSectionId::SeqCodes, h.total_residues, "SeqCodes"},
      {SwdbSectionId::IdOffsets, (n + 1) * 8, "IdOffsets"},
      {SwdbSectionId::IdBytes, UINT64_MAX, "IdBytes"},
      {SwdbSectionId::LengthIndex, n * 4, "LengthIndex"},
      {SwdbSectionId::BatchRecords, h.batch_count * sizeof(BatchRecord),
       "BatchRecords"},
      {SwdbSectionId::BatchSeqIndex, UINT64_MAX, "BatchSeqIndex"},
      {SwdbSectionId::BatchSeqLens, UINT64_MAX, "BatchSeqLens"},
      {SwdbSectionId::BatchColumns, UINT64_MAX, "BatchColumns"},
  };
  const SwdbSection* found[kSwdbSectionCount] = {};
  for (size_t i = 0; i < kSwdbSectionCount; ++i) {
    const SwdbSection* s = find(wants[i].id);
    if (s == nullptr)
      return bad(what + ": missing section " + std::string(wants[i].name));
    if (wants[i].bytes != UINT64_MAX && s->bytes != wants[i].bytes)
      return bad(what + ": section " + std::string(wants[i].name) +
                 " size mismatch");
    // Metadata sections are always checksummed; the two big payloads only
    // under verify_all (they are protected by file_bytes + the metadata
    // that addresses into them, and a full checksum walk would fault in
    // the whole artifact).
    const bool big = wants[i].id == SwdbSectionId::SeqCodes ||
                     wants[i].id == SwdbSectionId::BatchColumns;
    if ((!big || verify_all) &&
        fnv1a_64(base + s->offset, s->bytes) != s->checksum)
      return bad(what + ": section " + std::string(wants[i].name) +
                 " checksum mismatch");
    found[i] = s;
  }
  auto ptr = [&](size_t i) { return base + found[i]->offset; };

  img.seq_lens = reinterpret_cast<const uint32_t*>(ptr(0));
  img.seq_offsets = reinterpret_cast<const uint64_t*>(ptr(1));
  img.seq_codes = ptr(2);
  img.id_offsets = reinterpret_cast<const uint64_t*>(ptr(3));
  img.id_bytes = reinterpret_cast<const char*>(ptr(4));
  img.length_index = reinterpret_cast<const uint32_t*>(ptr(5));
  img.batch_records = reinterpret_cast<const BatchRecord*>(ptr(6));
  img.batch_seq_index = reinterpret_cast<const uint32_t*>(ptr(7));
  img.batch_seq_lens = reinterpret_cast<const uint32_t*>(ptr(8));
  img.batch_columns = ptr(9);
  img.batch_columns_bytes = found[9]->bytes;
  if (found[7]->bytes != found[8]->bytes || found[7]->bytes % 4 != 0)
    return bad(what + ": batch index/length sections disagree");
  img.batch_index_entries = found[7]->bytes / 4;

  // Cross-field consistency: offsets monotone and in bounds, lengths agree.
  if (img.seq_offsets[0] != 0 || img.seq_offsets[n] != h.total_residues ||
      img.id_offsets[0] != 0 || img.id_offsets[n] != found[4]->bytes)
    return bad(what + ": sequence/id offset tables corrupt");
  for (uint64_t i = 0; i < n; ++i) {
    if (img.seq_offsets[i + 1] < img.seq_offsets[i] ||
        img.seq_offsets[i + 1] - img.seq_offsets[i] != img.seq_lens[i] ||
        img.seq_lens[i] > h.max_length ||
        img.id_offsets[i + 1] < img.id_offsets[i] ||
        img.length_index[i] >= n)
      return bad(what + ": sequence metadata corrupt at index " +
                 std::to_string(i));
  }
  for (uint64_t b = 0; b < h.batch_count; ++b) {
    const BatchRecord& r = img.batch_records[b];
    if (r.count == 0 || r.count > h.lanes || r.max_len == 0 ||
        r.index_offset > img.batch_index_entries ||
        r.count > img.batch_index_entries - r.index_offset ||
        r.column_offset > img.batch_columns_bytes ||
        static_cast<uint64_t>(r.max_len) * h.lanes >
            img.batch_columns_bytes - r.column_offset)
      return bad(what + ": batch record corrupt at index " +
                 std::to_string(b));
  }
  for (uint64_t i = 0; i < img.batch_index_entries; ++i)
    if (img.batch_seq_index[i] >= n)
      return bad(what + ": batch seq_index out of range");

  if (verify_all) {
    const int alpha_size =
        seq::Alphabet::get(static_cast<seq::AlphabetKind>(h.alphabet)).size();
    for (uint64_t i = 0; i < h.total_residues; ++i)
      if (img.seq_codes[i] >= alpha_size)
        return bad(what + ": residue code out of alphabet range");
  }
  return img;
}

}  // namespace

ErrorOr<std::unique_ptr<MappedDb>> MappedDb::open(const std::string& path,
                                                  const MappedDbOptions& opts) {
  const auto t0 = Clock::now();

  auto fm = map_file_ro(path);
  if (!fm) return fm.error();
  const uint8_t* fbase = fm->base;
  const size_t fsize = fm->size;

  auto parsed = parse_image(fbase, fsize, opts.verify_all, "'" + path + "'");
  if (!parsed) {
    ::munmap(const_cast<uint8_t*>(fbase), fsize);
    return parsed.error();
  }

  std::unique_ptr<MappedDb> m(new MappedDb());
  m->path_ = path;
  m->base_ = fbase;
  m->size_ = fsize;
  m->source_ = DbSource::Mmap;

  const ParsedImage& img = *parsed;
  const SwdbHeader& h = img.header;
  m->header_ = h;
  const seq::Alphabet& alpha =
      seq::Alphabet::get(static_cast<seq::AlphabetKind>(h.alphabet));
  std::vector<seq::Sequence> seqs;
  seqs.reserve(h.seq_count);
  for (uint64_t i = 0; i < h.seq_count; ++i) {
    std::string id(img.id_bytes + img.id_offsets[i],
                   img.id_offsets[i + 1] - img.id_offsets[i]);
    seqs.push_back(seq::Sequence::view_of(
        std::move(id), img.seq_codes + img.seq_offsets[i], img.seq_lens[i],
        alpha));
  }
  std::vector<uint32_t> by_length(img.length_index,
                                  img.length_index + h.seq_count);
  m->db_ = seq::SequenceDatabase(std::move(seqs), h.total_residues,
                                 h.max_length, std::move(by_length));

  PackedView pv;
  pv.lanes = h.lanes;
  pv.total_seqs = h.seq_count;
  pv.real_residues = h.real_residues;
  pv.padded_residues = h.padded_residues;
  pv.columns = img.batch_columns;
  pv.seq_index = img.batch_seq_index;
  pv.seq_len = img.batch_seq_lens;
  pv.batches = img.batch_records;
  pv.batch_count = h.batch_count;
  m->bdb_ = std::make_unique<Batch32Db>(pv);

  m->load_seconds_ =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return m;
}

MappedDb::~MappedDb() {
  if (base_ != nullptr)
    ::munmap(const_cast<uint8_t*>(base_), size_);
}

void MappedDb::advise_batch_columns(size_t first_batch,
                                    size_t end_batch) const noexcept {
  if (bdb_ == nullptr) return;
  const auto range = bdb_->column_range(first_batch, end_batch);
  if (range.empty()) return;
  // Columns are 64-byte (not page) aligned inside the artifact; madvise
  // wants whole pages, so round outward — over-advising a boundary page
  // shared with a neighbour shard is harmless.
  const long page_l = sysconf(_SC_PAGESIZE);
  const uintptr_t page = page_l > 0 ? static_cast<uintptr_t>(page_l) : 4096;
  uintptr_t begin = reinterpret_cast<uintptr_t>(range.data());
  uintptr_t end = begin + range.size();
  begin &= ~(page - 1);
  end = (end + page - 1) & ~(page - 1);
  // Advisory only: failure changes performance, not correctness.
  (void)::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_WILLNEED);
}

size_t MappedDb::resident_bytes() const noexcept {
  if (base_ == nullptr || size_ == 0) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  const size_t npages = (size_ + static_cast<size_t>(page) - 1) /
                        static_cast<size_t>(page);
  std::vector<unsigned char> vec;
  try {
    vec.resize(npages);
  } catch (...) {
    return 0;
  }
  if (::mincore(const_cast<uint8_t*>(base_), size_, vec.data()) != 0)
    return 0;
  size_t resident = 0;
  for (unsigned char v : vec)
    if ((v & 1u) != 0) ++resident;
  return std::min(resident * static_cast<size_t>(page), size_);
}

}  // namespace swve::core

// swve db artifact round-trip: the on-disk format (core/db_format.hpp), the
// mmap reader (core/mapped_db.hpp), and the corruption-rejection matrix
// the db-artifact CI lane drives end to end.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/db_format.hpp"
#include "core/mapped_db.hpp"
#include "core/workspace.hpp"
#include "net/protocol.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::core {
namespace {

seq::SequenceDatabase small_db(uint64_t seed, uint64_t residues,
                               uint32_t min_len = 5, uint32_t max_len = 300) {
  seq::SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.target_residues = residues;
  cfg.min_length = min_len;
  cfg.max_length = max_len;
  return seq::SequenceDatabase::synthetic(cfg);
}

// ctest runs each test in its own process, so pid + tag keeps parallel
// sanitizer lanes from stomping each other's files.
std::string tmp_path(const std::string& tag) {
  return "/tmp/swve_swdb_test_" + std::to_string(::getpid()) + "_" + tag +
         ".swdb";
}

/// Writes db (+ a fresh packing) to a temp artifact; registers no cleanup —
/// callers std::remove when done (leaks under /tmp on assert-abort only).
std::string write_artifact(const seq::SequenceDatabase& db,
                           const Batch32Db& bdb, const std::string& tag) {
  const std::string path = tmp_path(tag);
  auto stats = write_swdb(db, bdb, path);
  EXPECT_TRUE(stats.ok()) << (stats.ok() ? "" : stats.error().message);
  return path;
}

std::vector<uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- format --

TEST(SwdbFormat, Fnv1aMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a_64(nullptr, 0), kFnvOffsetBasis);
  EXPECT_EQ(fnv1a_64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_64("foobar", 6), 0x85944171f73967e8ull);
  // Seedable: folding in two halves equals one pass.
  const char* s = "swve-db";
  EXPECT_EQ(fnv1a_64(s + 3, 4, fnv1a_64(s, 3)), fnv1a_64(s, 7));
}

TEST(SwdbFormat, FingerprintIsTheWireEpoch) {
  // The artifact's stored db_epoch must equal what a FASTA-startup server
  // computes, or result-cache keys would diverge across startup paths.
  auto db = small_db(31, 12'000);
  EXPECT_EQ(database_fingerprint(db), net::database_epoch(db));
  auto db2 = small_db(32, 12'000);
  EXPECT_NE(database_fingerprint(db), database_fingerprint(db2));
}

TEST(SwdbFormat, MagicSniffRoutesFiles) {
  auto db = small_db(33, 4'000);
  Batch32Db bdb(db, 32);
  const std::string art = write_artifact(db, bdb, "sniff");
  EXPECT_TRUE(file_has_swdb_magic(art));

  const std::string fasta = tmp_path("sniff_fa");
  {
    std::ofstream out(fasta);
    out << ">seq1\nACDEFGHIKLMNPQRSTVWY\n";
  }
  EXPECT_FALSE(file_has_swdb_magic(fasta));
  EXPECT_FALSE(file_has_swdb_magic(tmp_path("does_not_exist")));
  std::remove(art.c_str());
  std::remove(fasta.c_str());
}

TEST(SwdbFormat, WriterRejectsInconsistentInputs) {
  auto db = small_db(34, 4'000);
  Batch32Db bdb(db, 32);
  const std::string path = tmp_path("reject");

  seq::SequenceDatabase empty;
  auto r1 = write_swdb(empty, bdb, path);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code, ConfigError::Code::InvalidArtifact);

  auto other = small_db(35, 2'000);  // different sequence count than bdb
  ASSERT_NE(other.size(), db.size());
  auto r2 = write_swdb(other, bdb, path);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code, ConfigError::Code::InvalidArtifact);
  std::remove(path.c_str());
}

TEST(SwdbFormat, HeaderFieldsRoundTrip) {
  auto db = small_db(36, 9'000);
  Batch32Db bdb(db, 32);
  const std::string path = write_artifact(db, bdb, "header");

  const std::vector<uint8_t> bytes = slurp(path);
  ASSERT_GE(bytes.size(), sizeof(SwdbHeader));
  SwdbHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  EXPECT_EQ(h.magic, kSwdbMagic);
  EXPECT_EQ(h.endian_tag, kSwdbEndianTag);
  EXPECT_EQ(h.version, kSwdbVersion);
  EXPECT_EQ(h.section_count, kSwdbSectionCount);
  EXPECT_EQ(h.lanes, 32);
  EXPECT_EQ(h.packing, kSwdbLengthSorted);
  EXPECT_EQ(h.seq_count, db.size());
  EXPECT_EQ(h.total_residues, db.total_residues());
  EXPECT_EQ(h.batch_count, bdb.batch_count());
  EXPECT_EQ(h.db_epoch, database_fingerprint(db));
  EXPECT_EQ(h.file_bytes, bytes.size());

  // Every section offset is kSwdbAlign-aligned and in bounds.
  ASSERT_GE(bytes.size(), sizeof(SwdbHeader) +
                              kSwdbSectionCount * sizeof(SwdbSection));
  for (uint32_t i = 0; i < h.section_count; ++i) {
    SwdbSection s;
    std::memcpy(&s, bytes.data() + sizeof(SwdbHeader) + i * sizeof(SwdbSection),
                sizeof s);
    EXPECT_EQ(s.id, i + 1);  // v1 writes ids 1..10 in order
    EXPECT_EQ(s.offset % kSwdbAlign, 0u) << "section " << s.id;
    EXPECT_LE(s.offset + s.bytes, bytes.size()) << "section " << s.id;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- reader --

// The packer sorts by length whatever order the source database is in, so
// the artifact must round-trip bit-identically for every input order: as
// generated, pre-sorted by length, and grouped into 64-residue length bins.
enum class InputOrder : uint8_t { DbOrder, LengthSorted, LengthBinned };

seq::SequenceDatabase reordered(const seq::SequenceDatabase& db,
                                InputOrder order) {
  std::vector<seq::Sequence> seqs = db.sequences();
  if (order == InputOrder::LengthSorted) {
    std::stable_sort(seqs.begin(), seqs.end(), [](const auto& a, const auto& b) {
      return a.length() < b.length();
    });
  } else if (order == InputOrder::LengthBinned) {
    std::stable_sort(seqs.begin(), seqs.end(), [](const auto& a, const auto& b) {
      return a.length() / 64 > b.length() / 64;
    });
  }
  return seq::SequenceDatabase(std::move(seqs));
}

class MappedDbPolicyTest : public ::testing::TestWithParam<InputOrder> {};

TEST_P(MappedDbPolicyTest, MappedViewIsBitIdenticalToOwned) {
  auto db = reordered(small_db(41, 20'000), GetParam());
  Batch32Db owned(db, 32);
  const std::string path = write_artifact(db, owned, "policy");

  MappedDbOptions opts;
  opts.verify_all = true;  // exercise the full-checksum path too
  auto mapped = MappedDb::open(path, opts);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;
  const MappedDb& m = **mapped;
  EXPECT_EQ(m.source(), DbSource::Mmap);
  EXPECT_EQ(m.epoch(), database_fingerprint(db));
  EXPECT_GT(m.mapped_bytes(), 0u);
  EXPECT_LE(m.resident_bytes(), m.mapped_bytes());

  // Sequence content: ids and residues byte-for-byte.
  ASSERT_EQ(m.db().size(), db.size());
  EXPECT_EQ(m.db().total_residues(), db.total_residues());
  EXPECT_EQ(m.db().max_length(), db.max_length());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(m.db()[i].id(), db[i].id()) << i;
    ASSERT_EQ(m.db()[i].length(), db[i].length()) << i;
    EXPECT_EQ(std::memcmp(m.db()[i].data(), db[i].data(), db[i].length()), 0)
        << i;
    EXPECT_FALSE(m.db()[i].owns_storage()) << i;
  }

  // Batch sections: the view serves the same bytes the writer consumed.
  const Batch32Db& v = m.batch_db();
  EXPECT_FALSE(v.owns_storage());
  EXPECT_EQ(v.lanes(), owned.lanes());
  ASSERT_EQ(v.batch_count(), owned.batch_count());
  EXPECT_EQ(v.real_residues(), owned.real_residues());
  EXPECT_EQ(v.padded_residues(), owned.padded_residues());
  const auto vc = v.column_bytes(), oc = owned.column_bytes();
  ASSERT_EQ(vc.size(), oc.size());
  EXPECT_EQ(std::memcmp(vc.data(), oc.data(), oc.size()), 0);
  const auto vi = v.seq_index_data(), oi = owned.seq_index_data();
  ASSERT_EQ(vi.size(), oi.size());
  EXPECT_EQ(std::memcmp(vi.data(), oi.data(), oi.size_bytes()), 0);
  const auto vr = v.batch_records(), orr = owned.batch_records();
  ASSERT_EQ(vr.size(), orr.size());
  EXPECT_EQ(std::memcmp(vr.data(), orr.data(), orr.size_bytes()), 0);
  std::remove(path.c_str());
}

TEST_P(MappedDbPolicyTest, SearchScoresMatchOwnedAndMapped) {
  // Batch scores through the mapped view equal those of the owned packing.
  auto db = reordered(small_db(42, 15'000), GetParam());
  Batch32Db owned(db, 32);
  const std::string path = write_artifact(db, owned, "scores");
  auto mapped = MappedDb::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;

  AlignConfig cfg;
  auto q = seq::generate_sequence(43, 120);
  Workspace ws_a, ws_b;
  EXPECT_EQ(batch_scores(q, owned, db, cfg, ws_a),
            batch_scores(q, (*mapped)->batch_db(), (*mapped)->db(), cfg, ws_b));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MappedDbPolicyTest,
    ::testing::Values(InputOrder::DbOrder, InputOrder::LengthSorted,
                      InputOrder::LengthBinned),
    [](const auto& info) {
      switch (info.param) {
        case InputOrder::DbOrder: return "DbOrder";
        case InputOrder::LengthSorted: return "LengthSorted";
        case InputOrder::LengthBinned: return "LengthBinned";
      }
      return "Unknown";
    });

TEST(MappedDb, ConcurrentReadersNeedNoLocking) {
  // TSan target: one shared mapping, several threads searching through it.
  auto db = small_db(45, 10'000);
  Batch32Db owned(db, 32);
  const std::string path = write_artifact(db, owned, "threads");
  auto mapped = MappedDb::open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;
  const MappedDb& m = **mapped;

  AlignConfig cfg;
  Workspace ws0;
  auto q = seq::generate_sequence(46, 90);
  const auto expect = batch_scores(q, owned, db, cfg, ws0);

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Workspace ws;
      for (int rep = 0; rep < 3; ++rep) {
        auto got = batch_scores(q, m.batch_db(), m.db(), cfg, ws);
        if (got != expect) ++mismatches[static_cast<size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------- corruption matrix --

/// Copies the artifact, applies `mutate`, and expects MappedDb::open to
/// return a typed InvalidArtifact error (never a crash).
void expect_rejected(const std::string& art, const std::string& tag,
                     void (*mutate)(std::vector<uint8_t>&),
                     bool verify_all = false) {
  std::vector<uint8_t> bytes = slurp(art);
  ASSERT_FALSE(bytes.empty());
  mutate(bytes);
  const std::string bad = tmp_path(tag);
  spit(bad, bytes);
  MappedDbOptions opts;
  opts.verify_all = verify_all;
  auto m = MappedDb::open(bad, opts);
  ASSERT_FALSE(m.ok()) << tag << ": corrupt artifact was accepted";
  EXPECT_EQ(m.error().code, ConfigError::Code::InvalidArtifact) << tag;
  EXPECT_FALSE(m.error().message.empty()) << tag;
  std::remove(bad.c_str());
}

class SwdbCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = small_db(51, 8'000);
    bdb_ = std::make_unique<Batch32Db>(db_, 32);
    art_ = write_artifact(db_, *bdb_, "corrupt_base");
  }
  void TearDown() override { std::remove(art_.c_str()); }
  seq::SequenceDatabase db_;
  std::unique_ptr<Batch32Db> bdb_;
  std::string art_;
};

TEST_F(SwdbCorruption, TruncatedHeaderRejected) {
  expect_rejected(art_, "trunc_hdr",
                  [](std::vector<uint8_t>& b) { b.resize(64); });
}

TEST_F(SwdbCorruption, BadMagicRejected) {
  expect_rejected(art_, "bad_magic",
                  [](std::vector<uint8_t>& b) { b[0] ^= 0xFF; });
}

TEST_F(SwdbCorruption, WrongVersionRejected) {
  expect_rejected(art_, "bad_version", [](std::vector<uint8_t>& b) {
    b[8] = 99;  // SwdbHeader.version (offset 8, little-endian)
  });
}

TEST_F(SwdbCorruption, RetiredBatchLayoutRejectedWithRebuildHint) {
  // v1 artifacts written with the retired db-order (0) or length-binned (2)
  // layouts carry a valid header checksum; the reader must still refuse
  // them, naming the fix, rather than serve a layout it no longer builds.
  for (const uint8_t packing : {uint8_t{0}, uint8_t{2}}) {
    std::vector<uint8_t> bytes = slurp(art_);
    ASSERT_GE(bytes.size(), sizeof(SwdbHeader));
    SwdbHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    h.packing = packing;
    h.header_checksum = 0;
    uint64_t hcs = fnv1a_64(&h, sizeof h);
    hcs = fnv1a_64(bytes.data() + sizeof h, h.header_bytes - sizeof h, hcs);
    h.header_checksum = hcs;
    std::memcpy(bytes.data(), &h, sizeof h);
    const std::string bad = tmp_path("retired_layout");
    spit(bad, bytes);
    auto m = MappedDb::open(bad);
    std::remove(bad.c_str());
    ASSERT_FALSE(m.ok()) << "packing byte " << int{packing} << " was accepted";
    EXPECT_EQ(m.error().code, ConfigError::Code::InvalidArtifact);
    EXPECT_NE(m.error().message.find("rebuild"), std::string::npos)
        << m.error().message;
  }
}

TEST_F(SwdbCorruption, FlippedSectionTableByteRejected) {
  expect_rejected(art_, "bad_table", [](std::vector<uint8_t>& b) {
    b[sizeof(SwdbHeader) + 8] ^= 0x01;  // first section's offset field
  });
}

TEST_F(SwdbCorruption, ShortFileRejected) {
  expect_rejected(art_, "short_file",
                  [](std::vector<uint8_t>& b) { b.resize(b.size() / 2); });
}

/// Finds section `id` in the table and flips the first byte of its payload.
void flip_payload_byte(std::vector<uint8_t>& b, SwdbSectionId id) {
  for (uint32_t i = 0; i < kSwdbSectionCount; ++i) {
    SwdbSection s;
    std::memcpy(&s, b.data() + sizeof(SwdbHeader) + i * sizeof(SwdbSection),
                sizeof s);
    if (s.id == static_cast<uint32_t>(id) && s.bytes > 0) {
      b[s.offset] ^= 0x40;
      return;
    }
  }
  FAIL() << "section " << static_cast<uint32_t>(id) << " missing or empty";
}

TEST_F(SwdbCorruption, FlippedMetadataPayloadRejectedAlways) {
  // SeqLengths is small, so its checksum is verified on every open — no
  // verify_all needed to catch metadata corruption.
  expect_rejected(art_, "bad_meta", [](std::vector<uint8_t>& b) {
    flip_payload_byte(b, SwdbSectionId::SeqLengths);
  });
}

TEST_F(SwdbCorruption, FlippedColumnPayloadRejectedUnderVerifyAll) {
  // BatchColumns is one of the two big sections whose checksum only runs
  // under verify_all (checksumming gigabytes would defeat O(1) startup).
  expect_rejected(
      art_, "bad_payload",
      [](std::vector<uint8_t>& b) {
        flip_payload_byte(b, SwdbSectionId::BatchColumns);
      },
      /*verify_all=*/true);
}

}  // namespace
}  // namespace swve::core

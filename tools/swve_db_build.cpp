// swve_db_build — FASTA -> .swdb artifact compiler.
//
// Encodes, length-orders, and batch-transposes a FASTA database exactly the
// way a server would at startup, then persists the result in the swve db
// format (core/db_format.hpp). Servers started with `--db out.swdb` mmap
// the artifact instead of repeating that work, so their startup cost no
// longer scales with database size.
//
//   swve_db_build db.fasta -o db.swdb [--alphabet protein|dna]
//                 [--lanes 32|64] [--verify]
//
// --verify round-trips the freshly written file: reopen via core::MappedDb
// with every section checksum enforced, then compare the mapped view
// against the in-memory original (epoch, ids, residues, batch metadata).
// Exit status 0 on success, 1 on any failure.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/batch32.hpp"
#include "core/db_format.hpp"
#include "core/mapped_db.hpp"
#include "perf/timer.hpp"
#include "seq/database.hpp"

using namespace swve;

namespace {

int fail(const std::string& msg) {
  std::fprintf(stderr, "swve_db_build: %s\n", msg.c_str());
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: swve_db_build INPUT.fasta -o OUTPUT.swdb\n"
               "         [--alphabet protein|dna] [--lanes 32|64]\n"
               "         [--verify]\n");
  return 1;
}

/// The mapped view must reproduce the in-memory database exactly — same
/// ids, same residue codes, same batch placement. O(database), on purpose:
/// this is the build-time paranoia pass.
int verify_roundtrip(const seq::SequenceDatabase& db, const core::Batch32Db& bdb,
                     const core::MappedDb& mapped) {
  if (mapped.epoch() != core::database_fingerprint(db))
    return fail("verify: fingerprint mismatch after round-trip");
  const seq::SequenceDatabase& mdb = mapped.db();
  if (mdb.size() != db.size() || mdb.total_residues() != db.total_residues())
    return fail("verify: database shape mismatch after round-trip");
  for (size_t i = 0; i < db.size(); ++i) {
    if (mdb[i].id() != db[i].id())
      return fail("verify: sequence id mismatch at index " + std::to_string(i));
    if (mdb[i].codes().size() != db[i].codes().size() ||
        std::memcmp(mdb[i].data(), db[i].data(), db[i].length()) != 0)
      return fail("verify: residue mismatch at index " + std::to_string(i));
  }
  const core::Batch32Db& mb = mapped.batch_db();
  if (mb.batch_count() != bdb.batch_count() || mb.lanes() != bdb.lanes())
    return fail("verify: batch layout mismatch after round-trip");
  for (size_t b = 0; b < bdb.batch_count(); ++b) {
    const auto x = bdb.batch(b);
    const auto y = mb.batch(b);
    if (x.max_len != y.max_len || x.count != y.count ||
        x.real_residues != y.real_residues ||
        std::memcmp(x.columns, y.columns,
                    static_cast<size_t>(x.max_len) * bdb.lanes()) != 0 ||
        std::memcmp(x.seq_index, y.seq_index, x.count * sizeof(uint32_t)) != 0 ||
        std::memcmp(x.seq_len, y.seq_len, x.count * sizeof(uint32_t)) != 0)
      return fail("verify: batch content mismatch at batch " + std::to_string(b));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string output;
  const seq::Alphabet* alphabet = &seq::Alphabet::protein();
  int lanes = 32;
  bool verify = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "-o" || a == "--output") {
      const char* v = next();
      if (v == nullptr) return usage();
      output = v;
    } else if (a == "--alphabet") {
      const char* v = next();
      if (v == nullptr) return usage();
      if (std::strcmp(v, "protein") == 0) alphabet = &seq::Alphabet::protein();
      else if (std::strcmp(v, "dna") == 0) alphabet = &seq::Alphabet::dna();
      else return fail("unknown alphabet '" + std::string(v) + "'");
    } else if (a == "--lanes") {
      const char* v = next();
      if (v == nullptr) return usage();
      lanes = std::atoi(v);
      if (lanes != 32 && lanes != 64) return fail("--lanes must be 32 or 64");
    } else if (a == "--verify") {
      verify = true;
    } else if (a == "-h" || a == "--help") {
      usage();
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else if (input.empty()) {
      input = a;
    } else {
      return usage();
    }
  }
  if (input.empty() || output.empty()) return usage();

  perf::Stopwatch total;
  seq::SequenceDatabase db;
  try {
    db = seq::SequenceDatabase::from_fasta_file(input, *alphabet);
  } catch (const std::exception& e) {
    return fail("cannot read '" + input + "': " + e.what());
  }
  if (db.empty()) return fail("'" + input + "' contains no sequences");
  const double read_s = total.seconds();

  perf::Stopwatch pack;
  const core::Batch32Db bdb(db, lanes);
  const double pack_s = pack.seconds();

  perf::Stopwatch write;
  auto stats = core::write_swdb(db, bdb, output);
  if (!stats) return fail(stats.error().message);
  const double write_s = write.seconds();

  std::fprintf(stderr,
               "swve_db_build: %s -> %s\n"
               "  sequences      %zu (%llu residues, max %zu)\n"
               "  packing        %d lanes, %llu batches, %.1f%% efficient\n"
               "  db_epoch       %016llx\n"
               "  file           %.2f MiB\n"
               "  time           read %.0f ms, pack %.0f ms, write %.0f ms\n",
               input.c_str(), output.c_str(), db.size(),
               static_cast<unsigned long long>(db.total_residues()),
               db.max_length(), lanes,
               static_cast<unsigned long long>(stats->batch_count),
               100.0 * bdb.packing_efficiency(),
               static_cast<unsigned long long>(stats->db_epoch),
               static_cast<double>(stats->file_bytes) / (1024.0 * 1024.0),
               read_s * 1e3, pack_s * 1e3, write_s * 1e3);

  if (verify) {
    core::MappedDbOptions mopts;
    mopts.verify_all = true;
    auto mapped = core::MappedDb::open(output, mopts);
    if (!mapped) return fail("verify: " + mapped.error().message);
    const int rc = verify_roundtrip(db, bdb, **mapped);
    if (rc != 0) return rc;
    std::fprintf(stderr,
                 "  verify         ok (all checksums + content round-trip, "
                 "load %.1f ms)\n",
                 (*mapped)->load_seconds() * 1e3);
  }
  return 0;
}

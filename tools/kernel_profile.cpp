// Component-cost probe for the diag kernel: long square pair (no ragged
// cost) vs database streaming; widths; schemes; ISAs. When perf_event is
// usable, each config also reports hardware-counter attribution for the
// 2048x2048 run (IPC, backend-stall fraction, effective GHz); otherwise
// those columns print "-". A last table times the batch kernel per
// available batch ISA and gap model with the same counter columns.
#include <cstdio>
#include <vector>

#include "core/batch32.hpp"
#include "core/dispatch.hpp"
#include "obs/pmu.hpp"
#include "perf/gcups.hpp"
#include "perf/timer.hpp"
#include "seq/database.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

using namespace swve;

struct RunResult {
  double gcups = 0;
  obs::PmuDelta pmu{};
};

static RunResult run(const seq::Sequence& q, const seq::Sequence& t,
                     core::AlignConfig cfg, core::Workspace& ws, int reps) {
  core::diag_align(q, t, cfg, ws);
  obs::PmuSession& pmu = obs::PmuSession::instance();
  obs::PmuReading start = pmu.read();
  perf::Stopwatch sw;
  for (int k = 0; k < reps; ++k) core::diag_align(q, t, cfg, ws);
  double seconds = sw.seconds();
  RunResult r;
  r.pmu = obs::PmuSession::delta(start, pmu.read());
  r.gcups = perf::gcups(
      static_cast<uint64_t>(q.length()) * t.length() * reps, seconds);
  return r;
}

struct BatchRow {
  const char* isa_name;
  const char* gaps;
  int lanes;
  size_t query_len;
  double gcups = 0;
  obs::PmuDelta pmu{};
};

/// Time the batch kernel over a synthetic packed database, per available
/// batch ISA, gap model and query length (same batches). At 256 residues the
/// kernel's H and F rows fit in a 48 KiB L1d; at 2048 they do not.
static std::vector<BatchRow> batch_rows() {
  seq::SyntheticConfig scfg;
  scfg.seed = 11;
  scfg.target_residues = 400'000;
  scfg.min_length = 100;
  scfg.max_length = 400;
  const seq::SequenceDatabase db = seq::SequenceDatabase::synthetic(scfg);
  const seq::Sequence queries[] = {seq::generate_sequence(1, 256),
                                   seq::generate_sequence(2, 2048)};
  core::Workspace ws;
  obs::PmuSession& pmu = obs::PmuSession::instance();

  struct IsaCase {
    const char* name;
    simd::Isa isa;
    int lanes;
  };
  std::vector<IsaCase> cases = {{"scalar", simd::Isa::Scalar, 32}};
  if (simd::isa_available(simd::Isa::Avx2))
    cases.push_back({"avx2", simd::Isa::Avx2, 32});
  if (simd::isa_available(simd::Isa::Avx512) && simd::cpu_features().avx512vbmi)
    cases.push_back({"avx512", simd::Isa::Avx512, 64});

  std::vector<BatchRow> rows;
  for (const IsaCase& c : cases) {
    core::Batch32Db bdb(db, c.lanes);
    for (const seq::Sequence& q : queries) {
      // Keep the scalar reference quick (the short query, one pass), the
      // SIMD rows thorough.
      if (c.isa == simd::Isa::Scalar && q.length() > 256) continue;
      const int reps = c.isa == simd::Isa::Scalar ? 1 : 6;
      const uint64_t cells_per_pass = bdb.padded_residues() * q.length();
      for (core::GapModel gaps : {core::GapModel::Affine, core::GapModel::Linear}) {
        core::AlignConfig cfg;
        cfg.gap_model = gaps;
        auto pass = [&] {
          for (size_t b = 0; b < bdb.batch_count(); ++b)
            core::batch32_align_u8(q, bdb.batch(b), c.lanes, cfg, ws, c.isa);
        };
        pass();  // warm-up
        obs::PmuReading start = pmu.read();
        perf::Stopwatch sw;
        for (int r = 0; r < reps; ++r) pass();
        const double seconds = sw.seconds();
        BatchRow row;
        row.isa_name = c.name;
        row.gaps = gaps == core::GapModel::Affine ? "affine" : "linear";
        row.lanes = c.lanes;
        row.query_len = q.length();
        row.pmu = obs::PmuSession::delta(start, pmu.read());
        row.gcups =
            perf::gcups(cells_per_pass * static_cast<uint64_t>(reps), seconds);
        rows.push_back(row);
      }
    }
  }
  return rows;
}

static void print_batch_table(const std::vector<BatchRow>& rows) {
  std::printf("\nbatch32 kernel\n");
  std::printf("%-8s %-7s %6s %6s %10s %6s %8s %7s\n", "isa", "gaps", "lanes",
              "query", "GCUPS", "ipc", "be-stall", "GHz");
  for (const BatchRow& r : rows) {
    if (r.pmu.hw && r.pmu.cycles > 0) {
      std::printf("%-8s %-7s %6d %6zu %10.2f %6.2f %7.1f%% %7.2f\n", r.isa_name,
                  r.gaps, r.lanes, r.query_len, r.gcups, r.pmu.ipc(),
                  100.0 * r.pmu.backend_stall_fraction(),
                  r.pmu.effective_ghz());
    } else {
      std::printf("%-8s %-7s %6d %6zu %10.2f %6s %8s %7s\n", r.isa_name, r.gaps,
                  r.lanes, r.query_len, r.gcups, "-", "-", "-");
    }
  }
}

int main(int argc, char**) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: kernel_profile\n");
    return 2;
  }

  core::Workspace ws;
  auto q = seq::generate_sequence(1, 2048);
  auto t = seq::generate_sequence(2, 2048);
  auto t_small = seq::generate_sequence(3, 300);

  struct Cfg {
    const char* name;
    simd::Isa isa;
    core::Width w;
    core::ScoreScheme s;
  };
  const Cfg cfgs[] = {
      {"avx2 w16 matrix", simd::Isa::Avx2, core::Width::W16, core::ScoreScheme::Matrix},
      {"avx2 w16 fixed ", simd::Isa::Avx2, core::Width::W16, core::ScoreScheme::Fixed},
      {"avx2 w8  matrix", simd::Isa::Avx2, core::Width::W8, core::ScoreScheme::Matrix},
      {"avx2 w8  fixed ", simd::Isa::Avx2, core::Width::W8, core::ScoreScheme::Fixed},
      {"avx2 w32 matrix", simd::Isa::Avx2, core::Width::W32, core::ScoreScheme::Matrix},
      {"a512 w16 matrix", simd::Isa::Avx512, core::Width::W16, core::ScoreScheme::Matrix},
      {"a512 w8  matrix", simd::Isa::Avx512, core::Width::W8, core::ScoreScheme::Matrix},
      {"a512 w8  fixed ", simd::Isa::Avx512, core::Width::W8, core::ScoreScheme::Fixed},
  };
  obs::PmuSession& pmu = obs::PmuSession::instance();
  if (!pmu.available())
    std::printf("pmu: unavailable (%s); counter columns print \"-\"\n",
                pmu.unavailable_reason());
  std::printf("%-18s %10s %10s %6s %8s %7s\n", "config", "2048x2048",
              "2048x300", "ipc", "be-stall", "GHz");
  for (const Cfg& c : cfgs) {
    core::AlignConfig cfg;
    cfg.isa = c.isa;
    cfg.width = c.w;
    cfg.scheme = c.s;
    cfg.match = 5;
    cfg.mismatch = -2;
    RunResult big = run(q, t, cfg, ws, 3);
    RunResult small = run(q, t_small, cfg, ws, 20);
    if (big.pmu.hw && big.pmu.cycles > 0) {
      std::printf("%-18s %10.2f %10.2f %6.2f %7.1f%% %7.2f\n", c.name,
                  big.gcups, small.gcups, big.pmu.ipc(),
                  100.0 * big.pmu.backend_stall_fraction(),
                  big.pmu.effective_ghz());
    } else {
      std::printf("%-18s %10.2f %10.2f %6s %8s %7s\n", c.name, big.gcups,
                  small.gcups, "-", "-", "-");
    }
  }
  print_batch_table(batch_rows());
  return 0;
}

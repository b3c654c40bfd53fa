// Shared infrastructure for the figure-reproduction benches.
//
// Every bench binary is self-contained: run with no arguments it produces
// the rows/series of its paper figure on a synthetic Swiss-Prot-like
// workload sized to finish in seconds; --db-residues / --queries / --seed
// rescale it. Output goes through perf::Table so the series are uniform.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch.hpp"
#include "perf/gcups.hpp"
#include "perf/table.hpp"
#include "perf/timer.hpp"
#include "seq/database.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::bench {

struct BenchArgs {
  uint64_t db_residues = 200'000;
  int queries = 10;
  uint32_t query_min = 64;
  uint32_t query_max = 2048;
  uint64_t seed = 42;
  bool quick = false;
  bool real_tuner = false;  // fig10: use the gcc evaluator
  std::string json_out;     // --json <path>: machine-readable results

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
      std::string s = argv[i];
      auto next = [&]() -> const char* {
        return i + 1 < argc ? argv[++i] : "";
      };
      if (s == "--db-residues") a.db_residues = std::strtoull(next(), nullptr, 10);
      else if (s == "--queries") a.queries = std::atoi(next());
      else if (s == "--query-min") a.query_min = static_cast<uint32_t>(std::atoi(next()));
      else if (s == "--query-max") a.query_max = static_cast<uint32_t>(std::atoi(next()));
      else if (s == "--seed") a.seed = std::strtoull(next(), nullptr, 10);
      else if (s == "--quick") a.quick = true;
      else if (s == "--real") a.real_tuner = true;
      else if (s == "--json") a.json_out = next();
      else if (s == "--help") {
        std::cout << "options: --db-residues N --queries N --query-min N "
                     "--query-max N --seed N --quick --real --json PATH\n";
        std::exit(0);
      }
    }
    if (a.quick) {
      a.db_residues /= 4;
      a.queries = std::min(a.queries, 4);
    }
    return a;
  }
};

/// The paper's workload: a synthetic Swiss-Prot-like database plus a ladder
/// of `queries` proteins with log-spaced lengths ("10 proteins with a range
/// of lengths").
struct Workload {
  seq::SequenceDatabase db;
  std::vector<seq::Sequence> queries;

  static Workload make(const BenchArgs& a) {
    seq::SyntheticConfig cfg;
    cfg.seed = a.seed;
    cfg.target_residues = a.db_residues;
    Workload w;
    w.db = seq::SequenceDatabase::synthetic(cfg);
    w.queries = seq::make_query_ladder(a.seed + 1, a.queries, a.query_min,
                                       a.query_max);
    return w;
  }
};

/// GCUPS of `kernel(query, target)` over the whole database for one query,
/// with one warm-up pass on the first few sequences.
template <class Fn>
double time_gcups(const seq::Sequence& query, const seq::SequenceDatabase& db,
                  Fn&& kernel) {
  for (size_t s = 0; s < std::min<size_t>(db.size(), 3); ++s) kernel(query, db[s]);
  perf::Stopwatch sw;
  for (size_t s = 0; s < db.size(); ++s) kernel(query, db[s]);
  return perf::gcups(query.length() * db.total_residues(), sw.seconds());
}

inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double lg = 0;
  for (double x : xs) lg += std::log(x);
  return std::exp(lg / static_cast<double>(xs.size()));
}

/// Machine-readable results for --json: a flat name -> value map written as
/// one JSON object. Keys are stable identifiers (e.g.
/// "scenario2/batch32_gcups"), so reports from different commits compare
/// key by key.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void add(const std::string& name, double value) {
    entries_.emplace_back(name, value);
  }

  /// Writes the report; no-op when `path` is empty (no --json given).
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write " << path << "\n";
      return;
    }
    const auto& f = simd::cpu_features();
    out << "{\n  \"bench\": \"" << bench_ << "\",\n"
        << "  \"host\": {\"avx2\": " << (f.avx2 ? "true" : "false")
        << ", \"avx512\": " << (f.avx512bw_vl ? "true" : "false")
        << ", \"hw_threads\": " << f.hardware_threads << "},\n"
        << "  \"metrics\": {\n";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.6g", entries_[i].second);
      out << "    \"" << entries_[i].first << "\": " << num
          << (i + 1 < entries_.size() ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::cout << "json report written to " << path << "\n";
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> entries_;
};

inline void print_environment() {
  const auto& f = simd::cpu_features();
  std::cout << "host: avx2=" << f.avx2 << " avx512=" << f.avx512bw_vl
            << " vbmi=" << f.avx512vbmi << " hw-threads=" << f.hardware_threads
            << "\n";
}

}  // namespace swve::bench

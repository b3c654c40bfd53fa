// Shared pieces of the swve regression benchmark: statistics, input
// generators, the in-memory span recorder, the host fingerprint, and the
// result report every workload fills in.
//
// Nothing here needs a server or a database, so the self-test can exercise
// all of it.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/json.hpp"

namespace perfbench {

/// Steady-clock seconds since an arbitrary process-wide origin.
double now_s();

// ---------------------------------------------------------------- statistics

/// A nearest-rank percentile with its sample accounting. `rank` is the
/// 1-based position of the chosen sample in sorted order and `beyond` the
/// number of samples ranked above it. A percentile is `valid` only when at
/// least `min_beyond` samples lie beyond it, so a p99 needs n >= 1000 and
/// a p90 n >= 100 with the default of 10.
struct Pct {
  double value = 0;
  size_t n = 0;
  size_t rank = 0;
  size_t beyond = 0;
  bool valid = false;
};
Pct percentile(std::vector<double> samples, double p, size_t min_beyond = 10);
double median(std::vector<double> samples);

/// Latencies of a closed loop in a fixed-size histogram, so the benchmark's
/// own bookkeeping stays the same size whatever the throughput and
/// `peak_rss_mb` measures the service. Buckets are log-spaced, 1024 per
/// octave from 100 ns up (longer samples land in the last bucket), so a
/// bucket is 0.07 % wide.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double seconds);
  void merge(const LatencyHistogram& other);
  size_t count() const { return n_; }
  /// Nearest-rank percentile in ms with the same rank, `beyond` and
  /// `valid` as percentile() on the raw samples; the value is the
  /// geometric middle of the chosen sample's bucket.
  Pct percentile_ms(double p, size_t min_beyond = 10) const;

 private:
  std::vector<uint64_t> counts_;
  size_t n_ = 0;
};
/// "n=<samples>, <beyond> beyond" — the sample accounting printed with
/// every percentile.
std::string count_note(const Pct& p);

// ---------------------------------------------------------------- generators

/// Deterministic per-seed randomness. Draws are derived from raw 64-bit
/// mt19937_64 output (not the implementation-defined std distributions), so
/// the same seed gives the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  uint64_t next() { return gen_(); }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n); n > 0.
  uint64_t below(uint64_t n) { return gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

/// `n` lengths log-uniform over [lo, hi], stratified: length k falls in the
/// k-th of n equal slices of [log lo, log hi] at a random offset, then the
/// order is shuffled. Every seed gets the same length spread, so latency
/// percentiles compare across seeds instead of tracking the luck of a draw.
std::vector<uint32_t> stratified_log_uniform(Rng& rng, size_t n, uint32_t lo,
                                             uint32_t hi);

// --------------------------------------------------------------------- spans

/// One recorded span. `parent` is 0 for a root.
struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double t0 = 0;
  double t1 = 0;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of [t0, t1] covered by the union of its children's intervals.
std::vector<double> self_times(const std::vector<SpanRec>& spans);

/// In-memory span recorder for the traced run. Spans are kept until the
/// benchmark exits and then written out as JSON. When disabled every call
/// is a cheap no-op and returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Record a finished span; returns its id.
  uint64_t add(std::string name, double t0, double t1, uint64_t parent = 0);
  /// Reserve an id for a span whose end is not known yet.
  uint64_t reserve();
  /// Record a span under a previously reserved id.
  void add_reserved(uint64_t id, std::string name, double t0, double t1,
                    uint64_t parent = 0);
  std::vector<SpanRec> spans() const;
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;        // guarded by mu_
};

/// Durations (seconds) and self times of every span called `name`.
struct SpanTimes {
  std::vector<double> total;
  std::vector<double> self;
};
SpanTimes span_times(const std::vector<SpanRec>& spans, const std::string& name);

// --------------------------------------------------------------- fingerprint

/// What a result was measured on. Two results are comparable only when
/// every field matches.
struct Fingerprint {
  std::string cpu_model;
  std::string isa_flags;  ///< e.g. "sse41 avx2 avx512bw_vl avx512vbmi"
  unsigned nproc = 0;
  uint64_t l2_bytes_total = 0;
  uint64_t l3_bytes = 0;
  uint64_t db_residues = 0;
  uint64_t artifact_bytes = 0;
};
/// Host part of the fingerprint (db fields left 0 for the workload to set).
Fingerprint host_fingerprint();

// -------------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< sample counts, applicability
};

/// Everything one run produces. The last stdout line carries `correct`,
/// `attempted`, `failed` and either the end-to-end or the per-layer
/// metrics; the full report (fingerprint, inputs, both metric sets) goes to
/// a result file.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Fingerprint fingerprint;
  std::vector<std::pair<std::string, swve::net::Json>> inputs;  ///< provenance
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;

  void fail(const std::string& why);
  void input(const std::string& key, const std::string& value);
  void input(const std::string& key, double value);
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& note = "");
};

/// Print the human-readable metric lines, write the result file under
/// `out_dir` (when non-empty), and print the final one-line JSON.
void emit(const Report& r, const std::string& out_dir);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench

#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "simd/cpu.hpp"

namespace perfbench {

using swve::net::Json;
using swve::net::JsonArray;
using swve::net::JsonObject;

namespace {

// A JSON number with all its digits, or null for NaN or infinity (which
// Json::dump would print as bare words).
Json num(double v) { return std::isfinite(v) ? Json(v) : Json(); }

// Nearest rank: the 1-based position of the smallest sample with at least
// p*n samples at or below it. The epsilon keeps 0.9 * 100 from rounding up
// to rank 91.
size_t nearest_rank(size_t n, double p) {
  const double exact = p * static_cast<double>(n);
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

// ---------------------------------------------------------------- statistics

Pct percentile(std::vector<double> samples, double p, size_t min_beyond) {
  Pct out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.rank = nearest_rank(samples.size(), p);
  out.value = samples[out.rank - 1];
  out.beyond = samples.size() - out.rank;
  out.valid = out.beyond >= min_beyond;
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string count_note(const Pct& p) {
  return "n=" + std::to_string(p.n) + ", " + std::to_string(p.beyond) +
         " beyond";
}

namespace {
constexpr double kHistMinS = 1e-7;
constexpr int kHistPerOctave = 1024;
constexpr int kHistOctaves = 34;  // up to ~1700 s
}  // namespace

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<size_t>(kHistPerOctave) * kHistOctaves, 0) {}

void LatencyHistogram::add(double seconds) {
  size_t b = 0;
  if (seconds > kHistMinS)
    b = std::min(counts_.size() - 1,
                 static_cast<size_t>(std::log2(seconds / kHistMinS) *
                                     kHistPerOctave));
  counts_[b]++;
  n_++;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  n_ += other.n_;
}

Pct LatencyHistogram::percentile_ms(double p, size_t min_beyond) const {
  Pct out;
  out.n = n_;
  if (n_ == 0) return out;
  out.rank = nearest_rank(n_, p);
  out.beyond = n_ - out.rank;
  out.valid = out.beyond >= min_beyond;
  size_t seen = 0, b = 0;
  for (; b + 1 < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= out.rank) break;
  }
  out.value = kHistMinS * 1e3 *
              std::exp2((static_cast<double>(b) + 0.5) / kHistPerOctave);
  return out;
}

// ---------------------------------------------------------------- generators

std::vector<uint32_t> stratified_log_uniform(Rng& rng, size_t n, uint32_t lo,
                                             uint32_t hi) {
  std::vector<uint32_t> out;
  out.reserve(n);
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi));
  for (size_t k = 0; k < n; ++k) {
    const double t = (static_cast<double>(k) + rng.uniform()) /
                     static_cast<double>(n);
    const double len = std::exp(a + t * (b - a));
    out.push_back(std::clamp(static_cast<uint32_t>(std::lround(len)), lo, hi));
  }
  // Fisher-Yates with the same generator.
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

// --------------------------------------------------------------------- spans

std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  // Children grouped by parent id.
  std::vector<std::pair<uint64_t, size_t>> by_parent;
  by_parent.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent != 0) by_parent.emplace_back(spans[i].parent, i);
  std::sort(by_parent.begin(), by_parent.end());

  std::vector<double> out(spans.size(), 0);
  std::vector<std::pair<double, double>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const double dur = std::max(0.0, s.t1 - s.t0);
    iv.clear();
    auto it = std::lower_bound(by_parent.begin(), by_parent.end(),
                               std::make_pair(s.id, size_t{0}));
    for (; it != by_parent.end() && it->first == s.id; ++it) {
      const SpanRec& c = spans[it->second];
      const double a = std::max(c.t0, s.t0), b = std::min(c.t1, s.t1);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_a = 0, cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = std::max(0.0, dur - covered);
  }
  return out;
}

uint64_t Tracer::add(std::string name, double t0, double t1, uint64_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(SpanRec{id, parent, std::move(name), t0, t1});
  return id;
}

uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

void Tracer::add_reserved(uint64_t id, std::string name, double t0, double t1,
                          uint64_t parent) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(SpanRec{id, parent, std::move(name), t0, t1});
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRec> all = spans();
  const std::vector<double> self = self_times(all);
  JsonArray out;
  out.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out.push_back(JsonObject{{"id", s.id},
                             {"parent", s.parent},
                             {"name", s.name},
                             {"start_s", num(s.t0)},
                             {"end_s", num(s.t1)},
                             {"self_s", num(self[i])}});
  }
  std::ofstream f(path);
  f << Json(std::move(out)).dump() << "\n";
  return static_cast<bool>(f);
}

SpanTimes span_times(const std::vector<SpanRec>& spans,
                     const std::string& name) {
  const std::vector<double> self = self_times(spans);
  SpanTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    out.total.push_back(spans[i].t1 - spans[i].t0);
    out.self.push_back(self[i]);
  }
  return out;
}

// --------------------------------------------------------------- fingerprint

namespace {

// Size in bytes and sharing set of `cpu`'s data/unified cache at `level`
// (0 and "" when sysfs does not say).
std::pair<uint64_t, std::string> cache_info(int cpu, int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = "/sys/devices/system/cpu/cpu" +
                            std::to_string(cpu) + "/cache/index" +
                            std::to_string(idx) + "/";
    std::ifstream lv(dir + "level"), sz(dir + "size"), ty(dir + "type"),
        sh(dir + "shared_cpu_list");
    if (!lv || !sz) break;
    int l = 0;
    std::string size, type, shared;
    lv >> l;
    sz >> size;
    ty >> type;
    sh >> shared;
    if (l != level || type == "Instruction") continue;
    uint64_t v = std::strtoull(size.c_str(), nullptr, 10);
    if (!size.empty() && size.back() == 'K') v <<= 10;
    if (!size.empty() && size.back() == 'M') v <<= 20;
    return {v, shared};
  }
  return {0, ""};
}

// Total bytes of all distinct instances of the level-`level` cache.
uint64_t cache_total_bytes(unsigned nproc, int level) {
  std::set<std::string> seen;
  uint64_t total = 0;
  for (unsigned cpu = 0; cpu < nproc; ++cpu) {
    const auto [bytes, shared] = cache_info(static_cast<int>(cpu), level);
    if (bytes == 0) continue;
    if (seen.insert(shared.empty() ? std::to_string(cpu) : shared).second)
      total += bytes;
  }
  return total;
}

}  // namespace

Fingerprint host_fingerprint() {
  Fingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos)
        fp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  }
  const swve::simd::CpuFeatures& f = swve::simd::cpu_features();
  std::string flags;
  if (f.sse41) flags += "sse41 ";
  if (f.avx2) flags += "avx2 ";
  if (f.avx512bw_vl) flags += "avx512bw_vl ";
  if (f.avx512vbmi) flags += "avx512vbmi ";
  if (!flags.empty()) flags.pop_back();
  fp.isa_flags = flags;
  fp.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  fp.l2_bytes_total = cache_total_bytes(fp.nproc, 2);
  fp.l3_bytes = cache_total_bytes(fp.nproc, 3);
  return fp;
}

// -------------------------------------------------------------------- report

void Report::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

void Report::input(const std::string& key, const std::string& value) {
  inputs.emplace_back(key, value);
}

void Report::input(const std::string& key, double value) {
  inputs.emplace_back(key, num(value));
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  end_to_end.push_back(Metric{name, value, unit, note});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  per_layer.push_back(Metric{name, value, unit, note});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

Json metrics_json(const std::vector<Metric>& ms, bool with_note) {
  JsonObject out;
  for (const Metric& m : ms) {
    JsonObject o{{"value", num(m.value)}, {"unit", m.unit}};
    if (with_note && !m.note.empty()) o["note"] = m.note;
    out[m.name] = std::move(o);
  }
  return out;
}

Json fingerprint_json(const Fingerprint& fp) {
  return JsonObject{{"cpu_model", fp.cpu_model},
                    {"isa_flags", fp.isa_flags},
                    {"nproc", uint64_t{fp.nproc}},
                    {"l2_bytes_total", fp.l2_bytes_total},
                    {"l3_bytes", fp.l3_bytes},
                    {"db_residues", fp.db_residues},
                    {"artifact_bytes", fp.artifact_bytes}};
}

}  // namespace

void emit(const Report& r, const std::string& out_dir) {
  std::printf("fingerprint %s\n", fingerprint_json(r.fingerprint).dump().c_str());
  for (const auto& [k, v] : r.inputs)
    std::printf("input %s.%s = %s\n", r.workload.c_str(), k.c_str(),
                v.dump().c_str());
  const std::vector<Metric>& shown = r.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : shown)
    std::printf("metric %s %s %.6g %s%s%s\n", r.workload.c_str(),
                m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());

  if (!out_dir.empty()) {
    const std::string path = out_dir + "/result-" + r.workload + "-seed" +
                             std::to_string(r.seed) + "-trace" +
                             (r.trace ? "1" : "0") + ".json";
    JsonObject inputs(r.inputs.begin(), r.inputs.end());
    JsonArray errors(r.errors.begin(), r.errors.end());
    const Json result = JsonObject{
        {"workload", r.workload},
        {"seed", r.seed},
        {"trace", r.trace ? 1 : 0},
        {"correct", r.correct},
        {"attempted", r.attempted},
        {"failed", r.failed},
        {"fingerprint", fingerprint_json(r.fingerprint)},
        {"inputs", std::move(inputs)},
        {"end_to_end", metrics_json(r.end_to_end, true)},
        {"per_layer", metrics_json(r.per_layer, true)},
        {"errors", std::move(errors)}};
    std::ofstream f(path);
    f << result.dump() << "\n";
    if (f) std::printf("result file %s\n", path.c_str());
  }

  const Json line = JsonObject{{"correct", r.correct},
                               {"attempted", r.attempted},
                               {"failed", r.failed},
                               {"metrics", metrics_json(shown, false)}};
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

#include "tune/evaluator.hpp"

#include <dlfcn.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <vector>

#include "align/exec_context.hpp"
#include "align/sharded_search.hpp"
#include "core/batch32.hpp"
#include "perf/timer.hpp"
#include "seq/synthetic.hpp"
#include "simd/cpu.hpp"

namespace swve::tune {

// ---------------------------- simulated ---------------------------------

SimulatedEvaluator::SimulatedEvaluator(const FlagSpace& space, uint64_t arch_seed,
                                       int query_size)
    : space_(&space) {
  std::mt19937_64 rng(arch_seed * 0x9E3779B97F4A7C15ull + 12345);
  // Calibrated to the paper's Fig 10: most flags are neutral on a given
  // (architecture, query size); the active minority contributes small
  // log-scale effects, so the tuned optimum lands ~10% above -O3 on
  // average with favorable combinations reaching tens of percent.
  std::normal_distribution<double> effect(0.0, 0.006);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  // Query size shapes which flags matter: the effect magnitude of each flag
  // is modulated by a flag-specific size response (some flags help small
  // queries, some large — as observed in the paper).
  const double lq = std::log2(std::max(2, query_size));
  base_gcups_ = 8.0;

  main_effects_.resize(space.size());
  for (size_t f = 0; f < space.size(); ++f) {
    const double size_phase = std::uniform_real_distribution<double>(0, 6.28)(rng);
    const double s = std::abs(std::sin(lq * 0.7 + size_phase));
    const double size_gain = 0.1 + 1.6 * s * s * s;  // sharp query-size tuning
    const bool active = u01(rng) < 0.35;
    main_effects_[f].resize(space.flag(f).values.size(), 0.0);
    for (size_t c = 1; c < space.flag(f).values.size(); ++c)
      main_effects_[f][c] = active ? effect(rng) * size_gain : 0.0;
  }
  // Sparse pairwise interactions, slightly larger than main effects.
  std::uniform_int_distribution<size_t> pick_flag(0, space.size() - 1);
  const size_t n_inter = space.size();
  for (size_t k = 0; k < n_inter; ++k) {
    size_t f1 = pick_flag(rng), f2 = pick_flag(rng);
    if (f1 == f2) continue;
    Interaction it;
    it.f1 = static_cast<uint32_t>(f1);
    it.f2 = static_cast<uint32_t>(f2);
    it.c1 = static_cast<uint32_t>(
        1 + rng() % std::max<size_t>(1, space_->flag(f1).values.size() - 1));
    it.c2 = static_cast<uint32_t>(
        1 + rng() % std::max<size_t>(1, space_->flag(f2).values.size() - 1));
    it.effect = effect(rng) * 2.0;
    interactions_.push_back(it);
  }

  baseline_ = evaluate(space.baseline_individual());
  // Greedy coordinate ascent gives a cheap optimum estimate.
  Individual best = space.baseline_individual();
  for (int round = 0; round < 3; ++round) {
    for (size_t f = 0; f < space.size(); ++f) {
      double best_fit = evaluate(best);
      uint8_t best_c = best[f];
      for (size_t c = 0; c < space.flag(f).values.size(); ++c) {
        best[f] = static_cast<uint8_t>(c);
        double fit = evaluate(best);
        if (fit > best_fit) {
          best_fit = fit;
          best_c = static_cast<uint8_t>(c);
        }
      }
      best[f] = best_c;
    }
  }
  approx_opt_ = evaluate(best);
}

double SimulatedEvaluator::evaluate(const Individual& ind) {
  if (!space_->valid(ind))
    throw std::invalid_argument("SimulatedEvaluator: invalid individual");
  double log_gain = 0;
  for (size_t f = 0; f < ind.size(); ++f) log_gain += main_effects_[f][ind[f]];
  for (const Interaction& it : interactions_)
    if (ind[it.f1] == it.c1 && ind[it.f2] == it.c2) log_gain += it.effect;
  return base_gcups_ * std::exp(log_gain);
}

// ------------------------------ gcc -------------------------------------

namespace {

// Self-contained scalar Smith-Waterman kernel compiled by the evaluator.
// Plain auto-vectorizable C so the chosen flags actually matter.
constexpr const char* kKernelSource = R"SRC(
#include <stdint.h>
extern "C" int swve_tuned_kernel(const uint8_t* q, int m, const uint8_t* r,
                                 int n, const int32_t* mat, int open, int ext) {
  static int32_t hrow[16384];
  static int32_t erow[16384];
  if (m > 16383 || m <= 0 || n <= 0) return -1;
  for (int i = 0; i <= m; ++i) { hrow[i] = 0; erow[i] = 0; }
  int best = 0;
  for (int j = 0; j < n; ++j) {
    int hdiag = 0, f = 0;
    const int32_t* srow = mat + (int32_t)r[j] * 32;
    for (int i = 0; i < m; ++i) {
      int hup = hrow[i + 1];
      int e = erow[i + 1] - ext;
      int eo = hup - open;
      if (eo > e) e = eo;
      if (e < 0) e = 0;
      int fo = hrow[i] - open;
      int fx = f - ext;
      f = fo > fx ? fo : fx;
      if (f < 0) f = 0;
      int h = hdiag + srow[q[i]];
      if (h < e) h = e;
      if (h < f) h = f;
      if (h < 0) h = 0;
      if (h > best) best = h;
      hdiag = hup;
      hrow[i + 1] = h;
      erow[i + 1] = e;
    }
  }
  return best;
}
)SRC";

using KernelFn = int (*)(const uint8_t*, int, const uint8_t*, int, const int32_t*,
                         int, int);

/// GCUPS of one in-process batch-kernel pass under the currently applied
/// runtime setting (shard count) — the term of the fitness the runtime
/// hyperparameter moves. Fixed synthetic workload.
double time_batch_pass() {
  struct Fixture {
    seq::SequenceDatabase db;
    core::Batch32Db bdb;
    seq::Sequence q;
    Fixture()
        : db([] {
            seq::SyntheticConfig cfg;
            cfg.seed = 33;
            cfg.target_residues = 60'000;
            cfg.min_length = 100;
            cfg.max_length = 400;
            return seq::SequenceDatabase::synthetic(cfg);
          }()),
          bdb(db, 32),
          q(seq::generate_sequence(34, 128)) {}
  };
  static Fixture fx;
  static thread_local core::Workspace ws;
  core::AlignConfig cfg;
  const simd::Isa isa = simd::resolve_isa(cfg.isa);
  const uint64_t cells = fx.bdb.padded_residues() * fx.q.length();

  // A "shards=N" genome routes the pass through ShardedSearch (numa off —
  // the term being tuned is the shard/merge shape, not placement), so the
  // GA feels the shard count the same way the serving path would. Instances
  // are cached per shard count: pool spin-up is construction cost, not
  // per-individual cost.
  const int hint = align::shard_count_hint();
  if (hint > 1) {
    static std::mutex mu;
    static std::map<int, std::unique_ptr<align::ShardedSearch>> cache;
    align::ShardedSearch* sharded = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu);
      auto it = cache.find(hint);
      if (it == cache.end()) {
        align::ShardOptions sopt;
        sopt.shards = 0;  // resolve via the hint; auto clamps to batches
        auto made = align::ShardedSearch::create(fx.db, fx.bdb, sopt);
        it = cache.emplace(hint, made ? std::move(*made) : nullptr).first;
      }
      sharded = it->second.get();
    }
    if (sharded != nullptr) {
      const seq::SeqView qv{fx.q.data(), fx.q.length()};
      align::ExecContext ctx;
      sharded->search(cfg, qv, 8, ctx);  // warm-up
      double best = 0;
      for (int rep = 0; rep < 2; ++rep) {
        perf::Stopwatch sw;
        sharded->search(cfg, qv, 8, ctx);
        best = std::max(best,
                        static_cast<double>(cells) / sw.seconds() / 1e9);
      }
      return best;
    }
  }

  auto pass = [&] {
    for (size_t b = 0; b < fx.bdb.batch_count(); ++b)
      core::batch32_align_u8(fx.q, fx.bdb.batch(b), 32, cfg, ws, isa);
  };
  pass();  // warm-up
  double best = 0;
  for (int rep = 0; rep < 2; ++rep) {
    perf::Stopwatch sw;
    pass();
    best = std::max(best, static_cast<double>(cells) / sw.seconds() / 1e9);
  }
  return best;
}

}  // namespace

GccEvaluator::GccEvaluator(const FlagSpace& space)
    : GccEvaluator(space, Options()) {}

GccEvaluator::GccEvaluator(const FlagSpace& space, Options opt)
    : opt_(std::move(opt)), space_(&space) {
  ::mkdir(opt_.work_dir.c_str(), 0755);
  kernel_src_path_ = opt_.work_dir + "/kernel.cpp";
  std::ofstream src(kernel_src_path_);
  if (!src) return;
  src << kKernelSource;
  src.close();
  // Probe: can we compile and dlopen at all?
  const std::string so = opt_.work_dir + "/probe.so";
  const std::string cmd = opt_.gcc + " -O2 -shared -fPIC -o " + so + " " +
                          kernel_src_path_ + " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return;
  void* h = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!h) return;
  available_ = dlsym(h, "swve_tuned_kernel") != nullptr;
  dlclose(h);
}

double GccEvaluator::evaluate(const Individual& ind) {
  if (!available_) throw std::runtime_error("GccEvaluator: unavailable here");
  // Runtime hyperparameters (the batch search's shard count) are
  // applied to the live process and scored with a real batch-kernel pass;
  // the fitness is compiled-kernel GCUPS + batch-kernel GCUPS, so one
  // genome co-tunes compiler flags and runtime knobs. Measured whenever the
  // space carries runtime flags (choice 0 included) to keep individuals
  // comparable against the baseline.
  double batch_gcups = 0;
  if (space_->has_runtime()) {
    apply_runtime_settings(space_->runtime_settings(ind));
    batch_gcups = time_batch_pass();
    apply_runtime_settings({});  // restore process defaults
  }
  const std::string so =
      opt_.work_dir + "/tuned_" + std::to_string(counter_++) + ".so";
  std::string cmd = opt_.gcc + " -O3 -march=native -shared -fPIC";
  for (const std::string& a : space_->to_arguments(ind)) cmd += " " + a;
  cmd += " -o " + so + " " + kernel_src_path_ + " 2>/dev/null";
  if (std::system(cmd.c_str()) != 0) return 0.0;  // invalid flag combos lose

  void* h = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  std::remove(so.c_str());
  if (!h) return 0.0;
  auto fn = reinterpret_cast<KernelFn>(dlsym(h, "swve_tuned_kernel"));
  if (!fn) {
    dlclose(h);
    return 0.0;
  }

  // Deterministic workload.
  std::mt19937_64 rng(4242);
  std::vector<uint8_t> q(static_cast<size_t>(opt_.query_size));
  std::vector<uint8_t> r(static_cast<size_t>(opt_.db_size));
  for (auto& c : q) c = static_cast<uint8_t>(rng() % 24);
  for (auto& c : r) c = static_cast<uint8_t>(rng() % 24);
  std::vector<int32_t> mat(32 * 32);
  for (int a = 0; a < 32; ++a)
    for (int b = 0; b < 32; ++b)
      mat[static_cast<size_t>(a) * 32 + b] = a == b ? 5 : -2;

  double best_gcups = 0;
  int sink = 0;
  for (int rep = 0; rep < opt_.repeats; ++rep) {
    perf::Stopwatch sw;
    sink += fn(q.data(), static_cast<int>(q.size()), r.data(),
               static_cast<int>(r.size()), mat.data(), 11, 1);
    asm volatile("" ::"r"(sink));
    double secs = sw.seconds();
    double gcups = static_cast<double>(q.size()) * static_cast<double>(r.size()) /
                   secs / 1e9;
    best_gcups = std::max(best_gcups, gcups);
  }
  (void)sink;
  dlclose(h);
  return best_gcups + batch_gcups;
}

}  // namespace swve::tune

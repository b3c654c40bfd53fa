#include <gtest/gtest.h>

#include <random>

#include "align/sharded_search.hpp"
#include "tune/evaluator.hpp"
#include "tune/flag_space.hpp"
#include "tune/ga.hpp"

namespace swve::tune {
namespace {

TEST(FlagSpace, DefaultSpaceIsLarge) {
  FlagSpace space = FlagSpace::gcc_default();
  EXPECT_GE(space.size(), 20u);
  EXPECT_GT(space.search_space_size(), 1e9);
}

TEST(FlagSpace, BaselineIsPlainO3) {
  FlagSpace space = FlagSpace::gcc_default();
  Individual base = space.baseline_individual();
  EXPECT_TRUE(space.to_arguments(base).empty());
  EXPECT_EQ(space.to_string(base), "(plain -O3)");
}

TEST(FlagSpace, RandomIndividualsAreValid) {
  FlagSpace space = FlagSpace::gcc_default();
  std::mt19937_64 rng(1);
  for (int i = 0; i < 100; ++i) {
    Individual ind = space.random_individual(rng);
    EXPECT_TRUE(space.valid(ind));
    EXPECT_NO_THROW(space.to_arguments(ind));
  }
}

TEST(FlagSpace, InvalidIndividualsRejected) {
  FlagSpace space = FlagSpace::gcc_default();
  Individual short_ind(space.size() - 1, 0);
  EXPECT_FALSE(space.valid(short_ind));
  Individual bad = space.baseline_individual();
  bad[0] = 200;
  EXPECT_FALSE(space.valid(bad));
  EXPECT_THROW(space.to_arguments(bad), std::invalid_argument);
}

TEST(FlagSpace, ArgumentsComeFromChosenValues) {
  FlagSpace space = FlagSpace::gcc_default();
  Individual ind = space.baseline_individual();
  ind[0] = 1;  // -funroll-loops
  auto args = space.to_arguments(ind);
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args[0], "-funroll-loops");
}

TEST(FlagSpace, RuntimeSpaceExtendsDefaultWithoutTouchingCompilerArgs) {
  FlagSpace base = FlagSpace::gcc_default();
  FlagSpace space = FlagSpace::gcc_with_runtime();
  EXPECT_EQ(space.size(), base.size() + 1);
  EXPECT_TRUE(space.has_runtime());
  EXPECT_FALSE(base.has_runtime());

  // The runtime flag sits at the end; picking it must not change the
  // compiler command line, only runtime_settings().
  Individual ind = space.baseline_individual();
  EXPECT_TRUE(space.runtime_settings(ind).empty());
  ind[space.size() - 1] = 2;  // shards=2
  EXPECT_TRUE(space.to_arguments(ind).empty());
  auto settings = space.runtime_settings(ind);
  ASSERT_EQ(settings.size(), 1u);
  EXPECT_EQ(settings[0], "shards=2");
  EXPECT_EQ(space.to_string(ind), "[runtime]shards=2");
}

TEST(FlagSpace, ApplyRuntimeSettingsTakesEffectAndResets) {
  apply_runtime_settings({"shards=2"});
  EXPECT_EQ(align::shard_count_hint(), 2);

  // Empty list restores the default (topology-auto shard count).
  apply_runtime_settings({});
  EXPECT_EQ(align::shard_count_hint(), 0);

  EXPECT_THROW(apply_runtime_settings({"turbo=9"}), std::invalid_argument);
}

TEST(SimulatedEvaluator, DeterministicPerSeedAndIndividual) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator e1(space, 42, 256);
  SimulatedEvaluator e2(space, 42, 256);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 20; ++i) {
    Individual ind = space.random_individual(rng);
    EXPECT_DOUBLE_EQ(e1.evaluate(ind), e2.evaluate(ind));
  }
}

TEST(SimulatedEvaluator, ArchSeedChangesSurface) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator a(space, 1, 256), b(space, 2, 256);
  std::mt19937_64 rng(3);
  Individual ind = space.random_individual(rng);
  EXPECT_NE(a.evaluate(ind), b.evaluate(ind));
}

TEST(SimulatedEvaluator, QuerySizeShapesGains) {
  FlagSpace space = FlagSpace::gcc_default();
  // The achievable improvement should differ between query sizes (the
  // paper's observation that tuning is query-size dependent).
  SimulatedEvaluator small(space, 7, 64), large(space, 7, 4096);
  double gain_small = small.approx_optimum() / small.baseline() - 1.0;
  double gain_large = large.approx_optimum() / large.baseline() - 1.0;
  EXPECT_GT(gain_small, 0.0);
  EXPECT_GT(gain_large, 0.0);
  EXPECT_NE(gain_small, gain_large);
}

TEST(Ga, ImprovesOverBaseline) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator eval(space, 11, 512);
  GaParams p;
  p.seed = 5;
  p.population = 20;
  p.generations = 10;
  GaResult res = run_ga(space, eval, p);
  EXPECT_GE(res.best_fitness, res.baseline_fitness);
  EXPECT_GT(res.improvement(), 0.0);
  EXPECT_TRUE(space.valid(res.best));
}

TEST(Ga, GenerationBestIsMonotoneWithElitism) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator eval(space, 12, 512);
  GaParams p;
  p.seed = 6;
  GaResult res = run_ga(space, eval, p);
  ASSERT_EQ(res.generation_best.size(), static_cast<size_t>(p.generations));
  for (size_t g = 1; g < res.generation_best.size(); ++g)
    EXPECT_GE(res.generation_best[g], res.generation_best[g - 1]);
}

TEST(Ga, DeterministicPerSeed) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator eval(space, 13, 128);
  GaParams p;
  p.seed = 7;
  GaResult a = run_ga(space, eval, p);
  GaResult b = run_ga(space, eval, p);
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_fitness, b.best_fitness);
}

TEST(Ga, FindsMostOfTheCoordinateAscentOptimum) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator eval(space, 14, 1024);
  GaParams p;
  p.seed = 8;
  p.population = 32;
  p.generations = 25;
  GaResult res = run_ga(space, eval, p);
  double ga_gain = res.best_fitness / res.baseline_fitness;
  double opt_gain = eval.approx_optimum() / eval.baseline();
  EXPECT_GT(ga_gain, 1.0 + 0.5 * (opt_gain - 1.0));  // >= half the gain
}

TEST(Ga, BadParamsThrow) {
  FlagSpace space = FlagSpace::gcc_default();
  SimulatedEvaluator eval(space, 1, 64);
  GaParams p;
  p.population = 1;
  EXPECT_THROW(run_ga(space, eval, p), std::invalid_argument);
}

TEST(GccEvaluator, ProbeAndEvaluateIfAvailable) {
  FlagSpace space = FlagSpace::gcc_default();
  GccEvaluator::Options opt;
  opt.work_dir = "/tmp/swve_tune_test";
  opt.query_size = 64;
  opt.db_size = 4096;
  opt.repeats = 1;
  GccEvaluator eval(space, opt);
  if (!eval.available()) GTEST_SKIP() << "gcc+dlopen not usable here";
  double base = eval.evaluate(space.baseline_individual());
  EXPECT_GT(base, 0.0);  // compiled, loaded, ran, returned GCUPS
}

}  // namespace
}  // namespace swve::tune

// GCC compiler-hyperparameter search space (§III-E of the paper).
//
// Each hyperparameter is a named flag with a finite set of settings: on/off
// -f flags, valued --param options, and a few enumerated options. An
// Individual is one choice per flag; the GA evolves populations of
// Individuals.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace swve::tune {

struct Flag {
  std::string name;                  ///< for reports
  std::vector<std::string> values;   ///< command-line text per setting
  /// Runtime hyperparameter instead of a compiler flag: values are
  /// "key=value" settings applied to the live process (see
  /// apply_runtime_settings), never passed to the compiler.
  bool runtime = false;
};

/// One choice index per flag of the space.
using Individual = std::vector<uint8_t>;

class FlagSpace {
 public:
  /// The default space: ~25 GCC flags/params that affect the SW kernel
  /// (unrolling, vectorization cost model, scheduling, inlining limits...).
  static FlagSpace gcc_default();

  /// gcc_default() plus the batch search's runtime hyperparameter — the
  /// shard count ("shards=N") — so fig10 co-tunes it with the compiler
  /// flags. Runtime flags contribute nothing to to_arguments(); evaluators
  /// apply them with apply_runtime_settings() before timing.
  static FlagSpace gcc_with_runtime();

  explicit FlagSpace(std::vector<Flag> flags) : flags_(std::move(flags)) {}

  size_t size() const noexcept { return flags_.size(); }
  const Flag& flag(size_t i) const noexcept { return flags_[i]; }

  /// Number of distinct individuals (capped at 2^63).
  double search_space_size() const;

  Individual random_individual(std::mt19937_64& rng) const;
  Individual baseline_individual() const;  ///< choice 0 everywhere (plain -O3)
  bool valid(const Individual& ind) const;

  /// Command-line arguments for an individual (empty strings and runtime
  /// flags skipped — those never reach the compiler).
  std::vector<std::string> to_arguments(const Individual& ind) const;
  std::string to_string(const Individual& ind) const;

  /// The individual's non-empty runtime "key=value" settings.
  std::vector<std::string> runtime_settings(const Individual& ind) const;
  /// Whether the space contains any runtime hyperparameter at all.
  bool has_runtime() const noexcept;

 private:
  std::vector<Flag> flags_;
};

/// Apply runtime settings to this process: "shards=N" sets the shard-count
/// hint of sharded batch search (align::set_shard_count_hint). Unknown keys
/// throw. An empty list resets it to topology auto.
void apply_runtime_settings(const std::vector<std::string>& settings);

}  // namespace swve::tune

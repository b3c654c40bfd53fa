#include "tune/flag_space.hpp"

#include <charconv>
#include <stdexcept>

namespace swve::tune {

FlagSpace FlagSpace::gcc_default() {
  // Choice 0 is always "leave at -O3 default" so the baseline individual is
  // plain -O3, matching the paper's compilation setup.
  std::vector<Flag> f = {
      {"unroll-loops", {"", "-funroll-loops", "-fno-unroll-loops"}},
      {"unroll-all-loops", {"", "-funroll-all-loops"}},
      {"peel-loops", {"", "-fpeel-loops", "-fno-peel-loops"}},
      {"tree-vectorize", {"", "-fno-tree-vectorize"}},
      {"vect-cost-model",
       {"", "-fvect-cost-model=unlimited", "-fvect-cost-model=cheap",
        "-fvect-cost-model=very-cheap"}},
      {"tree-slp-vectorize", {"", "-fno-tree-slp-vectorize"}},
      {"schedule-insns", {"", "-fschedule-insns", "-fno-schedule-insns"}},
      {"schedule-insns2", {"", "-fno-schedule-insns2"}},
      {"sched-pressure", {"", "-fsched-pressure"}},
      {"modulo-sched", {"", "-fmodulo-sched"}},
      {"gcse-after-reload", {"", "-fgcse-after-reload", "-fno-gcse-after-reload"}},
      {"ipa-cp-clone", {"", "-fno-ipa-cp-clone"}},
      {"split-loops", {"", "-fsplit-loops"}},
      {"loop-interchange", {"", "-floop-interchange"}},
      {"tree-loop-distribution", {"", "-ftree-loop-distribution"}},
      {"prefetch-loop-arrays", {"", "-fprefetch-loop-arrays"}},
      {"omit-frame-pointer", {"", "-fomit-frame-pointer"}},
      {"align-functions", {"", "-falign-functions=32", "-falign-functions=64"}},
      {"align-loops", {"", "-falign-loops=16", "-falign-loops=32"}},
      {"max-unroll-times",
       {"", "--param=max-unroll-times=2", "--param=max-unroll-times=4",
        "--param=max-unroll-times=8", "--param=max-unroll-times=16"}},
      {"max-unrolled-insns",
       {"", "--param=max-unrolled-insns=128", "--param=max-unrolled-insns=400",
        "--param=max-unrolled-insns=1200"}},
      {"max-peeled-insns",
       {"", "--param=max-peeled-insns=100", "--param=max-peeled-insns=400"}},
      {"inline-unit-growth",
       {"", "--param=inline-unit-growth=20", "--param=inline-unit-growth=80"}},
      {"max-inline-insns-auto",
       {"", "--param=max-inline-insns-auto=30", "--param=max-inline-insns-auto=120"}},
      {"simultaneous-prefetches",
       {"", "--param=simultaneous-prefetches=2", "--param=simultaneous-prefetches=8"}},
      {"l1-cache-line-size", {"", "--param=l1-cache-line-size=64"}},
      {"avoid-fma", {"", "-ffp-contract=off"}},
  };
  return FlagSpace(std::move(f));
}

FlagSpace FlagSpace::gcc_with_runtime() {
  FlagSpace space = gcc_default();
  // Database shard count for sharded batch search. Choice 0 ("" = auto:
  // topology node count) keeps the process default for the baseline
  // individual. Results are bit-identical across choices — the GA only
  // sees the throughput difference.
  space.flags_.push_back(
      {"search-shards", {"", "shards=1", "shards=2", "shards=4"},
       /*runtime=*/true});
  return space;
}

double FlagSpace::search_space_size() const {
  double s = 1;
  for (const Flag& f : flags_) s *= static_cast<double>(f.values.size());
  return s;
}

Individual FlagSpace::random_individual(std::mt19937_64& rng) const {
  Individual ind(flags_.size());
  for (size_t i = 0; i < flags_.size(); ++i)
    ind[i] = static_cast<uint8_t>(rng() % flags_[i].values.size());
  return ind;
}

Individual FlagSpace::baseline_individual() const {
  return Individual(flags_.size(), 0);
}

bool FlagSpace::valid(const Individual& ind) const {
  if (ind.size() != flags_.size()) return false;
  for (size_t i = 0; i < flags_.size(); ++i)
    if (ind[i] >= flags_[i].values.size()) return false;
  return true;
}

std::vector<std::string> FlagSpace::to_arguments(const Individual& ind) const {
  if (!valid(ind)) throw std::invalid_argument("FlagSpace: invalid individual");
  std::vector<std::string> args;
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (flags_[i].runtime) continue;
    const std::string& v = flags_[i].values[ind[i]];
    if (!v.empty()) args.push_back(v);
  }
  return args;
}

std::vector<std::string> FlagSpace::runtime_settings(const Individual& ind) const {
  if (!valid(ind)) throw std::invalid_argument("FlagSpace: invalid individual");
  std::vector<std::string> settings;
  for (size_t i = 0; i < flags_.size(); ++i) {
    if (!flags_[i].runtime) continue;
    const std::string& v = flags_[i].values[ind[i]];
    if (!v.empty()) settings.push_back(v);
  }
  return settings;
}

bool FlagSpace::has_runtime() const noexcept {
  for (const Flag& f : flags_)
    if (f.runtime) return true;
  return false;
}

std::string FlagSpace::to_string(const Individual& ind) const {
  std::string s;
  for (const std::string& a : to_arguments(ind)) {
    if (!s.empty()) s += ' ';
    s += a;
  }
  for (const std::string& a : runtime_settings(ind)) {
    if (!s.empty()) s += ' ';
    s += "[runtime]";
    s += a;
  }
  return s.empty() ? "(plain -O3)" : s;
}

int runtime_shard_count(const std::vector<std::string>& settings) {
  int shards = 0;
  for (const std::string& s : settings) {
    if (s.rfind("shards=", 0) != 0)
      throw std::invalid_argument("runtime_shard_count: unknown key " + s);
    const char* first = s.data() + 7;
    const char* last = s.data() + s.size();
    const auto [end, ec] = std::from_chars(first, last, shards);
    if (ec != std::errc() || end != last || shards < 0)
      throw std::invalid_argument("runtime_shard_count: bad value " + s);
  }
  return shards;
}

}  // namespace swve::tune

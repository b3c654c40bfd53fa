#include "pmu_lane.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "obs/pmu.hpp"

namespace swve::test {

const char* lane_pmu_mode() noexcept {
  static const char* const mode = []() -> const char* {
    const char* env = std::getenv("SWVE_PMU");
    if (env == nullptr) return nullptr;
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0)
      return "off";
    if (std::strcmp(env, "eperm") == 0) return "eperm";
    return nullptr;
  }();
  return mode;
}

namespace {

class PmuLane : public ::testing::Environment {
 public:
  void SetUp() override {
    obs::PmuSession::instance().simulate_for_test(lane_pmu_mode());
  }
};

// Registered during static initialization, so RUN_ALL_TESTS sets it up
// before the first test.
::testing::Environment* const kPmuLane =
    ::testing::AddGlobalTestEnvironment(new PmuLane);

}  // namespace
}  // namespace swve::test

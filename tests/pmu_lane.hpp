// The PMU state a test lane forces on the whole test binary. CI's
// obs-degraded lane runs the suite with SWVE_PMU=eperm (perf_event denied)
// or SWVE_PMU=off (attribution disabled); a gtest global environment
// (pmu_lane.cpp) applies it with PmuSession::simulate_for_test before any
// test runs, so no probe caches the real state first. The library itself
// reads no environment.
#pragma once

namespace swve::test {

/// "eperm", "off", or nullptr when the lane forces nothing (probe the
/// hardware). SWVE_PMU=0 reads as "off"; any other value forces nothing.
const char* lane_pmu_mode() noexcept;

}  // namespace swve::test

// Runtime dispatch of the SIMD kernel layer: target resolution, env
// overrides, table switching, and the metric export.
#include "simd/dispatch.h"

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "simd/kernels.h"

namespace nomloc::simd {
namespace {

// Restores the dispatched table and the env overrides after each test so
// the per-test ForceTarget/setenv games don't leak into other suites.
class SimdDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_force_ = Getenv("NOMLOC_FORCE_SCALAR");
    saved_target_ = Getenv("NOMLOC_SIMD_TARGET");
  }
  void TearDown() override {
    Restore("NOMLOC_FORCE_SCALAR", saved_force_);
    Restore("NOMLOC_SIMD_TARGET", saved_target_);
    ForceTarget(ResolveTarget());
  }

  static std::pair<bool, std::string> Getenv(const char* name) {
    const char* v = std::getenv(name);
    return {v != nullptr, v != nullptr ? std::string(v) : std::string()};
  }
  static void Restore(const char* name,
                      const std::pair<bool, std::string>& saved) {
    if (saved.first) {
      ::setenv(name, saved.second.c_str(), 1);
    } else {
      ::unsetenv(name);
    }
  }

 private:
  std::pair<bool, std::string> saved_force_;
  std::pair<bool, std::string> saved_target_;
};

TEST_F(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(TargetSupported(Target::kScalar));
}

TEST_F(SimdDispatchTest, TargetNamesAreStable) {
  EXPECT_STREQ(TargetName(Target::kScalar), "scalar");
  EXPECT_STREQ(TargetName(Target::kSse2), "sse2");
  EXPECT_STREQ(TargetName(Target::kNeon), "neon");
  EXPECT_STREQ(TargetName(Target::kAvx2), "avx2");
}

TEST_F(SimdDispatchTest, ResolvedTargetIsSupported) {
  EXPECT_TRUE(TargetSupported(ResolveTarget()));
}

TEST_F(SimdDispatchTest, ForceScalarEnvWins) {
  ::setenv("NOMLOC_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(ResolveTarget(), Target::kScalar);
  // Any accepted truthy spelling works.
  ::setenv("NOMLOC_FORCE_SCALAR", "true", 1);
  EXPECT_EQ(ResolveTarget(), Target::kScalar);
  // Non-truthy values do not force.
  ::setenv("NOMLOC_FORCE_SCALAR", "0", 1);
  ::unsetenv("NOMLOC_SIMD_TARGET");
  EXPECT_TRUE(TargetSupported(ResolveTarget()));
}

TEST_F(SimdDispatchTest, NamedTargetEnvSelectsWhenSupported) {
  ::unsetenv("NOMLOC_FORCE_SCALAR");
  ::setenv("NOMLOC_SIMD_TARGET", "scalar", 1);
  EXPECT_EQ(ResolveTarget(), Target::kScalar);
  // Unknown names fail safe to scalar instead of crashing or guessing.
  ::setenv("NOMLOC_SIMD_TARGET", "avx999", 1);
  EXPECT_EQ(ResolveTarget(), Target::kScalar);
}

TEST_F(SimdDispatchTest, ForceTargetSwitchesActiveTable) {
  ForceTarget(Target::kScalar);
  EXPECT_EQ(ActiveTarget(), Target::kScalar);
  EXPECT_EQ(ActiveKernels().target, Target::kScalar);
  const Target best = ResolveTarget();
  ForceTarget(best);
  EXPECT_EQ(ActiveTarget(), best);
}

TEST_F(SimdDispatchTest, WrappersCountKernelCalls) {
  const double a[4] = {1.0, 2.0, 3.0, 4.0};
  const double b[4] = {5.0, 6.0, 7.0, 8.0};
  const std::uint64_t before = detail::CallCount(KernelId::kDot);
  (void)Dot(a, b, 4);
  EXPECT_EQ(detail::CallCount(KernelId::kDot), before + 1);
}

// Each thread counts on its own stripe; the sum over stripes, and the
// metric published from it, must still be exact.
TEST_F(SimdDispatchTest, CountsStayExactAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 10000;
  PublishMetrics();
  auto& counter = common::MetricRegistry::Global().Counter(
      "simd.kernel.calls", "kernel=dot");
  const std::uint64_t published_before = counter.Value();
  const std::uint64_t before = detail::CallCount(KernelId::kDot);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      const double a[4] = {1.0, 2.0, 3.0, 4.0};
      const double b[4] = {5.0, 6.0, 7.0, 8.0};
      for (int i = 0; i < kCallsPerThread; ++i) (void)Dot(a, b, 4);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t expected = std::uint64_t(kThreads) * kCallsPerThread;
  EXPECT_EQ(detail::CallCount(KernelId::kDot), before + expected);
  PublishMetrics();
  EXPECT_EQ(counter.Value(), published_before + expected);
}

TEST_F(SimdDispatchTest, PublishMetricsExportsCountersOnce) {
  const double a[4] = {1.0, 2.0, 3.0, 4.0};
  const double b[4] = {5.0, 6.0, 7.0, 8.0};
  (void)Dot(a, b, 4);
  PublishMetrics();
  auto& counter = common::MetricRegistry::Global().Counter(
      "simd.kernel.calls", "kernel=dot");
  const std::uint64_t published = counter.Value();
  EXPECT_GE(published, 1u);
  // Publishing again without new calls must not double-count.
  PublishMetrics();
  EXPECT_EQ(counter.Value(), published);
}

TEST_F(SimdDispatchTest, KernelNamesCoverAllIds) {
  for (int i = 0; i < int(KernelId::kCount); ++i) {
    EXPECT_STRNE(KernelName(KernelId(i)), "unknown");
  }
}

}  // namespace
}  // namespace nomloc::simd

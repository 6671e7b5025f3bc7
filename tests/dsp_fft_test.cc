#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "common/rng.h"
#include "dsp/fft_plan.h"
#include "simd/dispatch.h"

namespace nomloc::dsp {
namespace {

std::vector<Cplx> RandomSignal(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  return x;
}

double MaxAbsDiff(std::span<const Cplx> a, std::span<const Cplx> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(PowerOfTwo, Predicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(56));
}

TEST(PowerOfTwo, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(56), 64u);
  EXPECT_EQ(NextPowerOfTwo(65), 128u);
}

TEST(PowerOfTwo, NextPowerOfTwoRejectsUnrepresentable) {
  constexpr std::size_t kLargest =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(NextPowerOfTwo(kLargest), kLargest);
  // One past the largest representable power of two has no ceiling; the
  // guard must throw instead of overflowing the doubling loop to 0.
  EXPECT_THROW(NextPowerOfTwo(kLargest + 1), std::logic_error);
  EXPECT_THROW(NextPowerOfTwo(std::numeric_limits<std::size_t>::max()),
               std::logic_error);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Cplx> x(8, Cplx(0.0, 0.0));
  x[0] = 1.0;
  const auto spectrum = Fft(x);
  for (const Cplx& v : spectrum) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, DcGivesSingleBin) {
  std::vector<Cplx> x(16, Cplx(1.0, 0.0));
  const auto spectrum = Fft(x);
  EXPECT_NEAR(std::abs(spectrum[0]), 16.0, 1e-9);
  for (std::size_t k = 1; k < 16; ++k)
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
}

TEST(Fft, SingleToneLandsInRightBin) {
  const std::size_t n = 32;
  std::vector<Cplx> x(n);
  const int tone = 5;
  for (std::size_t t = 0; t < n; ++t) {
    const double ang = 2.0 * std::numbers::pi * tone * double(t) / double(n);
    x[t] = {std::cos(ang), std::sin(ang)};
  }
  const auto spectrum = Fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone)
      EXPECT_NEAR(std::abs(spectrum[k]), double(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
  }
}

TEST(Fft, MatchesNaiveDftPow2) {
  const auto x = RandomSignal(64, 1);
  EXPECT_LT(MaxAbsDiff(Fft(x), DftNaive(x, false)), 1e-9);
}

TEST(Fft, MatchesNaiveDftArbitraryLengths) {
  for (std::size_t n : {3u, 5u, 7u, 12u, 30u, 56u}) {
    const auto x = RandomSignal(n, n);
    EXPECT_LT(MaxAbsDiff(Fft(x), DftNaive(x, false)), 1e-8) << "n=" << n;
  }
}

TEST(Fft, PlanCachedTransformMatchesNaiveEveryLength) {
  // Exhaustive small-length sweep plus representative larger lengths:
  // covers the radix-2 fast path, every Bluestein residue class mod small
  // powers of two, and a large power of two.  All transforms go through
  // the process-wide FftPlanCache.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(100);
  lengths.push_back(1024);
  for (const std::size_t n : lengths) {
    const auto x = RandomSignal(n, 0x5eed0 + n);
    // Naive DFT error grows ~ n; scale the tolerance accordingly.
    const double tol = 1e-9 * double(n);
    EXPECT_LT(MaxAbsDiff(Fft(x), DftNaive(x, false)), tol) << "n=" << n;
    EXPECT_LT(MaxAbsDiff(Ifft(x), DftNaive(x, true)), tol) << "n=" << n;
  }
}

TEST(Fft, BitIdenticalAcrossPlanCacheClear) {
  // A rebuilt plan must reproduce the exact same arithmetic: cached and
  // freshly planned transforms are bit-for-bit identical.
  for (const std::size_t n : {8u, 30u, 56u, 100u, 1024u}) {
    const auto x = RandomSignal(n, 0xb17 + n);
    const auto before_fwd = Fft(x);
    const auto before_inv = Ifft(x);
    FftPlanCache::Global().Clear();
    const auto after_fwd = Fft(x);
    const auto after_inv = Ifft(x);
    ASSERT_EQ(before_fwd.size(), after_fwd.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(before_fwd[i], after_fwd[i]) << "n=" << n << " bin=" << i;
      EXPECT_EQ(before_inv[i], after_inv[i]) << "n=" << n << " bin=" << i;
    }
  }
}

TEST(Ifft, MatchesNaiveInverse) {
  for (std::size_t n : {8u, 30u}) {
    const auto x = RandomSignal(n, 100 + n);
    EXPECT_LT(MaxAbsDiff(Ifft(x), DftNaive(x, true)), 1e-9) << "n=" << n;
  }
}

// The radix-2 inverse scales by the exact reciprocal 1/n: on every SIMD
// target its output equals the unscaled inverse divided element-wise by
// n, bit for bit, for ordinary inputs and for inputs whose results go
// subnormal.  The unscaled inverse is conj(Forward(conj(x))): the same
// butterflies with conjugated twiddles, exact under IEEE negation.
TEST(FftPlan, InverseScaleEqualsDivisionOnEveryTarget) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const simd::Target target :
       {simd::Target::kScalar, simd::Target::kSse2, simd::Target::kNeon,
        simd::Target::kAvx2}) {
    if (!simd::TargetSupported(target)) continue;
    simd::ForceTarget(target);
    for (const std::size_t n : {8u, 64u, 256u}) {
      const FftPlan plan(n);
      std::size_t subnormal = 0;
      for (const double scale : {1.0, 0x1p-1016, 0x1p-1060}) {
        std::vector<Cplx> x = RandomSignal(n, 0x5ca1e + n);
        for (Cplx& v : x) v *= scale;
        std::vector<Cplx> got = x;
        plan.Inverse(got);
        std::vector<Cplx> want(n);
        for (std::size_t i = 0; i < n; ++i) want[i] = std::conj(x[i]);
        plan.Forward(want);
        for (std::size_t i = 0; i < n; ++i) {
          const Cplx unscaled = std::conj(want[i]);
          const double re = unscaled.real() / double(n);
          const double im = unscaled.imag() / double(n);
          EXPECT_EQ(bits(got[i].real()), bits(re))
              << simd::TargetName(target) << " n=" << n << " bin=" << i;
          EXPECT_EQ(bits(got[i].imag()), bits(im))
              << simd::TargetName(target) << " n=" << n << " bin=" << i;
          subnormal += std::fpclassify(re) == FP_SUBNORMAL;
        }
      }
      EXPECT_GT(subnormal, 0u) << simd::TargetName(target) << " n=" << n;
    }
  }
  simd::ForceTarget(simd::ResolveTarget());
}

class FftRoundTripTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTripTest, IfftOfFftIsIdentity) {
  const std::size_t n = GetParam();
  const auto x = RandomSignal(n, 7 * n + 1);
  const auto back = Ifft(Fft(x));
  EXPECT_LT(MaxAbsDiff(x, back), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 13, 30, 56, 64, 100,
                                           128, 255));

TEST(Fft, LinearityHolds) {
  const auto x = RandomSignal(64, 2);
  const auto y = RandomSignal(64, 3);
  std::vector<Cplx> sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * x[i] + y[i];
  const auto fx = Fft(x);
  const auto fy = Fft(y);
  const auto fsum = Fft(sum);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_LT(std::abs(fsum[i] - (2.0 * fx[i] + fy[i])), 1e-9);
}

TEST(Fft, ParsevalEnergyConserved) {
  const auto x = RandomSignal(64, 4);
  const auto spectrum = Fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const Cplx& v : x) time_energy += std::norm(v);
  for (const Cplx& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, 64.0 * time_energy, 1e-6);
}

TEST(Fft, EmptyInputThrows) {
  EXPECT_THROW(Fft({}), std::logic_error);
  EXPECT_THROW(Ifft({}), std::logic_error);
}

TEST(FftRadix2, NonPowerOfTwoThrows) {
  std::vector<Cplx> x(6);
  EXPECT_THROW(FftRadix2(x, false), std::logic_error);
}

TEST(PowerSpectrum, SquaredMagnitudes) {
  const std::vector<Cplx> x{{3.0, 4.0}, {0.0, 2.0}};
  const auto p = PowerSpectrum(x);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_DOUBLE_EQ(p[0], 25.0);
  EXPECT_DOUBLE_EQ(p[1], 4.0);
}

TEST(Magnitudes, AbsoluteValues) {
  const std::vector<Cplx> x{{3.0, 4.0}, {-1.0, 0.0}};
  const auto m = Magnitudes(x);
  EXPECT_DOUBLE_EQ(m[0], 5.0);
  EXPECT_DOUBLE_EQ(m[1], 1.0);
}

TEST(MovingAverage, SmoothsWithShrinkingEdges) {
  const std::vector<double> x{0.0, 3.0, 6.0, 9.0};
  const auto y = MovingAverage(x, 1);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);  // (0+3)/2.
  EXPECT_DOUBLE_EQ(y[1], 3.0);  // (0+3+6)/3.
  EXPECT_DOUBLE_EQ(y[2], 6.0);
  EXPECT_DOUBLE_EQ(y[3], 7.5);
}

TEST(MovingAverage, ZeroHalfIsIdentity) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  EXPECT_EQ(MovingAverage(x, 0), x);
}

// Pre-prefix-sum O(n * window) implementation, kept as the regression
// reference for the O(n) rewrite.
std::vector<double> MovingAverageNaive(std::span<const double> x,
                                       std::size_t half) {
  std::vector<double> out(x.size(), 0.0);
  const std::ptrdiff_t n = std::ptrdiff_t(x.size());
  const std::ptrdiff_t h = std::ptrdiff_t(half);
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - h);
    const std::ptrdiff_t hi = std::min(n - 1, i + h);
    double sum = 0.0;
    for (std::ptrdiff_t j = lo; j <= hi; ++j) sum += x[std::size_t(j)];
    out[std::size_t(i)] = sum / double(hi - lo + 1);
  }
  return out;
}

TEST(MovingAverage, PrefixSumMatchesNaiveWindowSums) {
  common::Rng rng(0x30a);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 257u}) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.Uniform(-5.0, 5.0);
    for (const std::size_t half :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{10}, n}) {
      const auto fast = MovingAverage(x, half);
      const auto naive = MovingAverageNaive(x, half);
      ASSERT_EQ(fast.size(), naive.size());
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(fast[i], naive[i], 1e-10)
            << "n=" << n << " half=" << half << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace nomloc::dsp

// SIMD-vs-scalar equivalence of every kernel, parameterized over each
// target the build supports on this machine.
//
// Numerical contract under test (DESIGN.md "SIMD kernel layer"):
//   * element-wise kernels are bit-identical to the scalar table on every
//     target — each output lane runs the same mul/add sequence;
//   * reduction kernels may reassociate across lanes and must match the
//     scalar result within a small ULP/relative bound;
//   * box_muller matches the scalar table within 4 ULP, and the scalar
//     table matches common::Rng::Gaussian() bit for bit.
// Lengths sweep across non-multiples of every lane width, inputs include
// denormals, and NaN canaries beyond the logical length verify that no
// kernel reads or writes past its bounds.
#include "simd/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "simd/dispatch.h"

namespace nomloc::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kLengths[] = {1, 2,  3,  4,  5,  6,  7, 8,
                                    9, 15, 16, 17, 31, 63, 100};

std::vector<Target> SupportedTargets() {
  std::vector<Target> out;
  for (Target t :
       {Target::kScalar, Target::kSse2, Target::kNeon, Target::kAvx2}) {
    if (TargetSupported(t)) out.push_back(t);
  }
  return out;
}

std::int64_t UlpDiff(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b) || std::signbit(a) != std::signbit(b))
    return std::numeric_limits<std::int64_t>::max();
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

// Reduction results: |a - b| within `ulps`, or both tiny (reassociated
// sums of denormals may round to zero on different sides).
void ExpectClose(double got, double want, std::int64_t ulps) {
  if (std::abs(got - want) <= 1e-300) return;
  EXPECT_LE(UlpDiff(got, want), ulps) << "got " << got << " want " << want;
}

std::vector<double> RandomVec(common::Rng& rng, std::size_t n,
                              bool with_denormals = false) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.Uniform(-2.0, 2.0);
  if (with_denormals) {
    for (std::size_t i = 0; i < n; i += 3)
      v[i] = std::numeric_limits<double>::denorm_min() * double(i + 1);
  }
  return v;
}

std::vector<std::complex<double>> RandomCplx(common::Rng& rng, std::size_t n,
                                             bool with_denormals = false) {
  std::vector<std::complex<double>> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = {rng.Uniform(-2.0, 2.0), rng.Uniform(-2.0, 2.0)};
  if (with_denormals) {
    for (std::size_t i = 0; i < n; i += 4)
      v[i] = {std::numeric_limits<double>::min() / 2.0,
              std::numeric_limits<double>::denorm_min()};
  }
  return v;
}

class SimdKernelsTest : public ::testing::TestWithParam<Target> {
 protected:
  void SetUp() override {
    table_ = &detail::ScalarKernels();
    ForceTarget(GetParam());
    table_ = &ActiveKernels();
    scalar_ = &detail::ScalarKernels();
  }
  void TearDown() override { ForceTarget(ResolveTarget()); }

  const KernelTable* table_ = nullptr;
  const KernelTable* scalar_ = nullptr;
};

TEST_P(SimdKernelsTest, AxpyBitIdentical) {
  common::Rng rng(0xa1);
  for (std::size_t n : kLengths) {
    const auto x = RandomVec(rng, n, /*with_denormals=*/true);
    auto y = RandomVec(rng, n);
    auto y_scalar = y;
    const double a = rng.Uniform(-3.0, 3.0);
    table_->axpy(n, a, x.data(), y.data());
    scalar_->axpy(n, a, x.data(), y_scalar.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y[i], y_scalar[i]) << i;
  }
}

TEST_P(SimdKernelsTest, ScaleAndInvScaleBitIdentical) {
  common::Rng rng(0xa2);
  for (std::size_t n : kLengths) {
    auto x = RandomVec(rng, n, /*with_denormals=*/true);
    auto x_scalar = x;
    const double a = rng.Uniform(0.5, 3.0);
    table_->scale(n, a, x.data());
    scalar_->scale(n, a, x_scalar.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], x_scalar[i]) << i;
    table_->inv_scale(n, a, x.data());
    scalar_->inv_scale(n, a, x_scalar.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x[i], x_scalar[i]) << i;
  }
}

// One call over `terms` table rows equals the scalar table's call and
// `terms` one-term calls in order, bit for bit: the path sum of
// LinkModel::Synthesize against the one call per path it replaced.
TEST_P(SimdKernelsTest, CplxAxpyBitIdentical) {
  common::Rng rng(0xa3);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t terms : {0, 1, 2, 33}) {
    for (std::size_t n : kLengths) {
      const auto tr = RandomVec(rng, terms * n, /*with_denormals=*/true);
      const auto ti = RandomVec(rng, terms * n);
      const auto br = RandomVec(rng, terms);
      const auto bi = RandomVec(rng, terms, /*with_denormals=*/true);
      auto outr = RandomVec(rng, n);
      auto outi = RandomVec(rng, n, /*with_denormals=*/true);
      auto outr_s = outr;
      auto outi_s = outi;
      auto outr_1 = outr;
      auto outi_1 = outi;
      table_->cplx_axpy(n, terms, br.data(), bi.data(), tr.data(), ti.data(),
                        outr.data(), outi.data());
      scalar_->cplx_axpy(n, terms, br.data(), bi.data(), tr.data(),
                         ti.data(), outr_s.data(), outi_s.data());
      for (std::size_t t = 0; t < terms; ++t) {
        table_->cplx_axpy(n, 1, &br[t], &bi[t], tr.data() + t * n,
                          ti.data() + t * n, outr_1.data(), outi_1.data());
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits(outr[i]), bits(outr_s[i])) << terms << " " << i;
        EXPECT_EQ(bits(outi[i]), bits(outi_s[i])) << terms << " " << i;
        EXPECT_EQ(bits(outr[i]), bits(outr_1[i])) << terms << " " << i;
        EXPECT_EQ(bits(outi[i]), bits(outi_1[i])) << terms << " " << i;
      }
    }
  }
}

TEST_P(SimdKernelsTest, FftPassBitIdentical) {
  common::Rng rng(0xa4);
  const std::size_t n = 32;
  for (std::size_t half : {std::size_t(1), std::size_t(2), std::size_t(4),
                           std::size_t(8), std::size_t(16)}) {
    for (double wsign : {1.0, -1.0}) {
      auto re = RandomVec(rng, n);
      auto im = RandomVec(rng, n);
      auto re_s = re;
      auto im_s = im;
      const auto wr = RandomVec(rng, half);
      const auto wi = RandomVec(rng, half);
      table_->fft_pass(re.data(), im.data(), n, half, wr.data(), wi.data(),
                       wsign);
      scalar_->fft_pass(re_s.data(), im_s.data(), n, half, wr.data(),
                        wi.data(), wsign);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(re[i], re_s[i]) << "half=" << half << " i=" << i;
        EXPECT_EQ(im[i], im_s[i]) << "half=" << half << " i=" << i;
      }
    }
  }
}

TEST_P(SimdKernelsTest, TransposedMatVecBitIdentical) {
  // t_mat_vec is a sequence of per-row axpys: each x[c] sees the same
  // update chain on every target, so it is bit-identical, not just close.
  common::Rng rng(0xa5);
  for (std::size_t cols : {std::size_t(1), std::size_t(5), std::size_t(16),
                           std::size_t(23)}) {
    const std::size_t rows = 11;
    const auto a = RandomVec(rng, rows * cols);
    const auto y = RandomVec(rng, rows);
    std::vector<double> x(cols, 0.0), x_s(cols, 0.0);
    table_->t_mat_vec(a.data(), rows, cols, y.data(), x.data());
    scalar_->t_mat_vec(a.data(), rows, cols, y.data(), x_s.data());
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(x[c], x_s[c]) << c;
  }
}

TEST_P(SimdKernelsTest, InterleaveRoundTripBitIdentical) {
  common::Rng rng(0xa6);
  for (std::size_t n : kLengths) {
    const auto xs = RandomCplx(rng, n, /*with_denormals=*/true);
    std::vector<double> re(n), im(n);
    table_->deinterleave(n, reinterpret_cast<const double*>(xs.data()),
                         nullptr, re.data(), im.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(re[i], xs[i].real());
      EXPECT_EQ(im[i], xs[i].imag());
    }
    // Permuted gather (reversal) matches element-by-element too.
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = n - 1 - i;
    table_->deinterleave(n, reinterpret_cast<const double*>(xs.data()),
                         perm.data(), re.data(), im.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(re[i], xs[n - 1 - i].real());
      EXPECT_EQ(im[i], xs[n - 1 - i].imag());
    }
    std::vector<std::complex<double>> back(n);
    table_->interleave(n, re.data(), im.data(),
                       reinterpret_cast<double*>(back.data()));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(back[i], xs[n - 1 - i]);
  }
}

TEST_P(SimdKernelsTest, DotWithinUlpBound) {
  common::Rng rng(0xb1);
  for (std::size_t n : kLengths) {
    const auto a = RandomVec(rng, n, /*with_denormals=*/true);
    const auto b = RandomVec(rng, n);
    ExpectClose(table_->dot(a.data(), b.data(), n),
                scalar_->dot(a.data(), b.data(), n),
                std::int64_t(8 * (n + 1)));
  }
}

TEST_P(SimdKernelsTest, MatVecWithinUlpBound) {
  common::Rng rng(0xb2);
  const std::size_t rows = 9;
  for (std::size_t cols : {std::size_t(1), std::size_t(7), std::size_t(16),
                           std::size_t(21)}) {
    const auto a = RandomVec(rng, rows * cols);
    const auto x = RandomVec(rng, cols);
    std::vector<double> y(rows), y_s(rows);
    table_->mat_vec(a.data(), rows, cols, x.data(), y.data());
    scalar_->mat_vec(a.data(), rows, cols, x.data(), y_s.data());
    for (std::size_t r = 0; r < rows; ++r)
      ExpectClose(y[r], y_s[r], std::int64_t(8 * (cols + 1)));
  }
}

TEST_P(SimdKernelsTest, PowerSpectrumWithinUlpBound) {
  common::Rng rng(0xb3);
  for (std::size_t n : kLengths) {
    const auto xs = RandomCplx(rng, n, /*with_denormals=*/true);
    std::vector<double> out(n), out_s(n);
    table_->power_spectrum(n, reinterpret_cast<const double*>(xs.data()),
                           out.data());
    scalar_->power_spectrum(n, reinterpret_cast<const double*>(xs.data()),
                            out_s.data());
    // Element-wise, but the SIMD lanes use re^2+im^2 while the scalar
    // rounding is abs(z)^2 — a couple of ULP apart.
    for (std::size_t i = 0; i < n; ++i) ExpectClose(out[i], out_s[i], 4);

    auto acc = RandomVec(rng, n);
    auto acc_s = acc;
    table_->power_spectrum_add(n, reinterpret_cast<const double*>(xs.data()),
                               acc.data());
    scalar_->power_spectrum_add(
        n, reinterpret_cast<const double*>(xs.data()), acc_s.data());
    for (std::size_t i = 0; i < n; ++i) ExpectClose(acc[i], acc_s[i], 8);
  }
}

TEST_P(SimdKernelsTest, MagnitudesWithinUlpBound) {
  common::Rng rng(0xb4);
  for (std::size_t n : kLengths) {
    const auto xs = RandomCplx(rng, n);
    std::vector<double> out(n), out_s(n);
    table_->magnitudes(n, reinterpret_cast<const double*>(xs.data()),
                       out.data());
    scalar_->magnitudes(n, reinterpret_cast<const double*>(xs.data()),
                        out_s.data());
    for (std::size_t i = 0; i < n; ++i) ExpectClose(out[i], out_s[i], 4);
  }
}

TEST_P(SimdKernelsTest, MaxAndSumNormWithinUlpBound) {
  common::Rng rng(0xb5);
  for (std::size_t n : kLengths) {
    const auto xs = RandomCplx(rng, n, /*with_denormals=*/true);
    const double* p = reinterpret_cast<const double*>(xs.data());
    ExpectClose(table_->max_norm(n, p), scalar_->max_norm(n, p), 4);
    ExpectClose(table_->sum_norm(n, p), scalar_->sum_norm(n, p),
                std::int64_t(8 * (n + 1)));
  }
}

// Interleaved Box-Muller input: (1 - Uniform(), Uniform()) pairs, the
// draws Rng::Gaussian() makes.
std::vector<double> UniformPairs(common::Rng& rng, std::size_t pairs) {
  std::vector<double> xs(2 * pairs);
  for (std::size_t k = 0; k < pairs; ++k) {
    xs[2 * k] = 1.0 - rng.Uniform();
    xs[2 * k + 1] = rng.Uniform();
  }
  return xs;
}

// Pairs at the edges of the vector log and sin/cos: u1 at the ends of
// (0, 1] and around the sqrt(1/2) split of the log's reduction; u2 at the
// ends of [0, 1) and within 50 ULP of k/4, where t = 2 pi u2 is near a
// zero of sin or cos.
std::vector<double> EdgePairs() {
  constexpr double kEps = 0x1p-53;
  const double sqrt_half = std::numbers::sqrt2 / 2.0;
  const double split = std::bit_cast<double>(0x3fe6a09e00000000ULL);
  std::vector<double> u1s = {1.0, kEps, 0.5, 1.0 - kEps};
  for (const double c : {sqrt_half, split}) {
    u1s.push_back(std::nextafter(c, 0.0));
    u1s.push_back(c);
    u1s.push_back(std::nextafter(c, 1.0));
  }
  std::vector<double> u2s = {0.0, 1.0 - kEps};
  for (const double quarter : {0.25, 0.5, 0.75}) {
    double below = quarter, above = quarter;
    u2s.push_back(quarter);
    for (int step = 0; step < 50; ++step) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      u2s.push_back(below);
      u2s.push_back(above);
    }
  }
  std::vector<double> xs;
  for (const double u1 : u1s) {
    for (const double u2 : u2s) {
      xs.push_back(u1);
      xs.push_back(u2);
    }
  }
  return xs;
}

TEST_P(SimdKernelsTest, BoxMullerWithinUlpBound) {
  common::Rng rng(0xb6);
  std::vector<double> xs = UniformPairs(rng, std::size_t{1} << 20);
  const std::vector<double> edges = EdgePairs();
  xs.insert(xs.end(), edges.begin(), edges.end());
  auto want = xs;
  table_->box_muller(xs.size() / 2, xs.data());
  scalar_->box_muller(want.size() / 2, want.data());
  std::int64_t worst = 0;
  std::size_t worst_at = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::int64_t ulps = UlpDiff(xs[i], want[i]);
    if (ulps > worst) {
      worst = ulps;
      worst_at = i;
    }
  }
  EXPECT_LE(worst, 4) << "output " << worst_at << ": got " << xs[worst_at]
                      << " want " << want[worst_at];
}

TEST_P(SimdKernelsTest, BoxMullerSplitInvariant) {
  // Each output depends only on its own pair: short calls, and any
  // partition of a batch into consecutive calls, reproduce one call's bits.
  common::Rng rng(0xb7);
  const std::vector<double> in = UniformPairs(rng, 41);
  auto whole = in;
  table_->box_muller(in.size() / 2, whole.data());
  for (std::size_t pairs = 0; pairs <= 9; ++pairs) {
    auto part = in;
    table_->box_muller(pairs, part.data());
    for (std::size_t i = 0; i < 2 * pairs; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(part[i]),
                std::bit_cast<std::uint64_t>(whole[i]))
          << pairs << " pairs, output " << i;
    for (std::size_t i = 2 * pairs; i < part.size(); ++i)
      EXPECT_EQ(part[i], in[i]) << pairs << " pairs wrote output " << i;
  }
  for (int trial = 0; trial < 20; ++trial) {
    auto split = in;
    for (std::size_t at = 0; at < in.size() / 2;) {
      const std::size_t len =
          std::min<std::size_t>(1 + rng.UniformInt(9), in.size() / 2 - at);
      table_->box_muller(len, split.data() + 2 * at);
      at += len;
    }
    for (std::size_t i = 0; i < in.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(split[i]),
                std::bit_cast<std::uint64_t>(whole[i]))
          << "trial " << trial << ", output " << i;
  }
}

TEST(BoxMullerScalar, MatchesRngGaussianBitForBit) {
  common::Rng draws(0xb8), reference(0xb8);
  constexpr std::size_t kPairs = 100000;
  std::vector<double> xs = UniformPairs(draws, kPairs);
  detail::ScalarKernels().box_muller(kPairs, xs.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(xs[i]),
              std::bit_cast<std::uint64_t>(reference.Gaussian()))
        << "output " << i;
  }
}

TEST_P(SimdKernelsTest, NoReadOrWriteBeyondLength) {
  // Inputs carry NaN canaries immediately after the logical length; output
  // canaries use a sentinel.  A kernel that touches the padding either
  // poisons its (finite) result or trips the sentinel check.
  common::Rng rng(0xc1);
  constexpr std::size_t kPad = 8;
  constexpr double kSentinel = 1234.5;
  for (std::size_t n : kLengths) {
    std::vector<double> a = RandomVec(rng, n + kPad);
    std::vector<double> b = RandomVec(rng, n + kPad);
    std::vector<std::complex<double>> xs = RandomCplx(rng, n + kPad);
    for (std::size_t i = n; i < n + kPad; ++i) {
      a[i] = kNaN;
      b[i] = kNaN;
      xs[i] = {kNaN, kNaN};
    }

    EXPECT_TRUE(std::isfinite(table_->dot(a.data(), b.data(), n))) << n;
    EXPECT_TRUE(std::isfinite(
        table_->sum_norm(n, reinterpret_cast<const double*>(xs.data()))))
        << n;
    EXPECT_TRUE(std::isfinite(
        table_->max_norm(n, reinterpret_cast<const double*>(xs.data()))))
        << n;

    std::vector<double> out(n + kPad, kSentinel);
    table_->power_spectrum(n, reinterpret_cast<const double*>(xs.data()),
                           out.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(std::isfinite(out[i]));
    for (std::size_t i = n; i < n + kPad; ++i) EXPECT_EQ(out[i], kSentinel);

    std::vector<double> y(n + kPad, kSentinel);
    table_->axpy(n, 0.5, a.data(), y.data());
    for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(std::isfinite(y[i]));
    for (std::size_t i = n; i < n + kPad; ++i) EXPECT_EQ(y[i], kSentinel);

    // Three rows of a terms x n table: nothing past the last row is read
    // and nothing past n is written.
    constexpr std::size_t kTerms = 3;
    std::vector<double> tr = RandomVec(rng, kTerms * n + kPad);
    std::vector<double> ti = RandomVec(rng, kTerms * n + kPad);
    std::vector<double> br = RandomVec(rng, kTerms + kPad);
    std::vector<double> bi = RandomVec(rng, kTerms + kPad);
    for (std::size_t i = kTerms * n; i < tr.size(); ++i) tr[i] = ti[i] = kNaN;
    for (std::size_t i = kTerms; i < br.size(); ++i) br[i] = bi[i] = kNaN;
    std::vector<double> outr(n + kPad, kSentinel);
    std::vector<double> outi(n + kPad, kSentinel);
    table_->cplx_axpy(n, kTerms, br.data(), bi.data(), tr.data(), ti.data(),
                      outr.data(), outi.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(outr[i]));
      EXPECT_TRUE(std::isfinite(outi[i]));
    }
    for (std::size_t i = n; i < n + kPad; ++i) {
      EXPECT_EQ(outr[i], kSentinel);
      EXPECT_EQ(outi[i], kSentinel);
    }

    // In place over n pairs: the 2n doubles after them stay untouched.
    std::vector<double> pairs = UniformPairs(rng, n);
    pairs.resize(4 * n + kPad, kSentinel);
    table_->box_muller(n, pairs.data());
    for (std::size_t i = 0; i < 2 * n; ++i)
      EXPECT_TRUE(std::isfinite(pairs[i]));
    for (std::size_t i = 2 * n; i < pairs.size(); ++i)
      EXPECT_EQ(pairs[i], kSentinel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTargets, SimdKernelsTest, ::testing::ValuesIn(SupportedTargets()),
    [](const ::testing::TestParamInfo<Target>& info) {
      return std::string(TargetName(info.param));
    });

}  // namespace
}  // namespace nomloc::simd

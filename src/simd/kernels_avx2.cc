// AVX2 kernel table (256-bit, 4 double lanes).  Compiled with -mavx2
// (see src/simd/CMakeLists.txt); only ever called after runtime dispatch
// confirms CPU support, so the rest of the binary stays baseline-ISA.
// No FMA intrinsics are used: separate mul/add keeps every element-wise
// kernel rounding-identical to the scalar table.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numbers>

namespace nomloc::simd::avx2_impl {
namespace {

// Vector Box-Muller, four pairs per step.  The log, the reduction by pi/2
// and the sin/cos kernels port fdlibm (e_log.c in its branch-free FreeBSD
// form, the medium case of e_rem_pio2.c, k_sin.c and k_cos.c), and the
// outputs stay within 4 ULP of the scalar table
// (tests/simd_kernels_test.cc).  Inputs are Box-Muller uniforms, so
// u1 is a positive normal number and t = 2 pi u2 lies in [0, 2 pi): no
// lane needs the zero, subnormal, negative, huge or non-finite cases.

// e_log.c
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76
constexpr double kLg1 = 6.666666666666735130e-01;      // 0x3fe5555555555593
constexpr double kLg2 = 3.999999999940941908e-01;      // 0x3fd999999997fa04
constexpr double kLg3 = 2.857142874366239149e-01;      // 0x3fd2492494229359
constexpr double kLg4 = 2.222219843214978396e-01;      // 0x3fcc71c51d8e78af
constexpr double kLg5 = 1.818357216161805012e-01;      // 0x3fc7466496cb03de
constexpr double kLg6 = 1.531383769920937332e-01;      // 0x3fc39a09d078c69f
constexpr double kLg7 = 1.479819860511658591e-01;      // 0x3fc2f112df3e5244
// e_rem_pio2.c: pi/2 = kPio2_1 + kPio2_2 + kPio2_2t to about 118 bits; the
// first two parts have 33 significant bits, so n * part is exact.
constexpr double kInvPio2 = 6.36619772367581382433e-01;  // 0x3fe45f306dc9c883
constexpr double kPio2_1 = 1.57079632673412561417e+00;   // 0x3ff921fb54400000
constexpr double kPio2_2 = 6.07710050630396597660e-11;   // 0x3dd0b4611a600000
constexpr double kPio2_2t = 2.02226624879595063154e-21;  // 0x3ba3198a2e037073
// k_sin.c
constexpr double kS1 = -1.66666666666666324348e-01;  // 0xbfc5555555555549
constexpr double kS2 = 8.33333333332248946124e-03;   // 0x3f8111111110f8a6
constexpr double kS3 = -1.98412698298579493134e-04;  // 0xbf2a01a019c161d5
constexpr double kS4 = 2.75573137070700676789e-06;   // 0x3ec71de357b1fe7d
constexpr double kS5 = -2.50507602534068634195e-08;  // 0xbe5ae5e68a2b9ceb
constexpr double kS6 = 1.58969099521155010221e-10;   // 0x3de5d93a5acfd57c
// k_cos.c
constexpr double kC1 = 4.16666666666666019037e-02;   // 0x3fa555555555554c
constexpr double kC2 = -1.38888888888741095749e-03;  // 0xbf56c16c16c15177
constexpr double kC3 = 2.48015872894767294178e-05;   // 0x3efa01a019cb1590
constexpr double kC4 = -2.75573143513906633035e-07;  // 0xbe927e4f809c52ad
constexpr double kC5 = 2.08757232129817482790e-09;   // 0x3e21ee9ebdb4b1c4
constexpr double kC6 = -1.13596475577881948265e-11;  // 0xbda8fae9be8838d4

// Adding 1.5 * 2^52 rounds a small non-negative double to an integer that
// then sits in the low mantissa bits.
constexpr double kRoundShift = 0x1.8p52;

// The arithmetic below uses GCC/Clang vector operators on __m256d, which
// apply a scalar operand to every lane; each expression keeps fdlibm's
// evaluation order.

// Natural log of positive normal lanes.
__m256d Log(__m256d x) {
  // Split x = 2^k * m with m in [sqrt(2)/2, sqrt(2)): bias the high word so
  // that the exponent field carries k, then rebuild m from the mantissa.
  constexpr std::int64_t kSqrtHalfHigh = std::int64_t(0x3fe6a09e) << 32;
  constexpr std::int64_t kOneHigh = std::int64_t(0x3ff00000) << 32;
  const __m256i bits =
      _mm256_add_epi64(_mm256_castpd_si256(x),
                       _mm256_set1_epi64x(kOneHigh - kSqrtHalfHigh));
  const __m256i biased_k = _mm256_srli_epi64(bits, 52);
  const __m256d m = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(kSqrtHalfHigh)));
  // k as a double: biased_k < 2^52, so OR-ing it into 2^52 is exact.
  const __m256d dk =
      _mm256_castsi256_pd(_mm256_or_si256(
          biased_k, _mm256_castpd_si256(_mm256_set1_pd(0x1p52)))) -
      (0x1p52 + 1023.0);

  const __m256d f = m - 1.0;
  const __m256d hfsq = 0.5 * f * f;
  const __m256d s = f / (2.0 + f);
  const __m256d z = s * s;
  const __m256d w = z * z;
  const __m256d t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const __m256d t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const __m256d r = t2 + t1;
  return s * (hfsq + r) + dk * kLn2Lo - hfsq + f + dk * kLn2Hi;
}

// Writes sin(t) and cos(t) for t in [0, 2 pi).
void SinCos(__m256d t, __m256d& sin_out, __m256d& cos_out) {
  // n = nearest integer to t * 2/pi; y0 + y1 = t - n pi/2 in two stages.
  const __m256d shifted = t * kInvPio2 + kRoundShift;
  const __m256d fn = shifted - kRoundShift;
  const __m256i n = _mm256_castpd_si256(shifted);
  const __m256d r0 = t - fn * kPio2_1;
  const __m256d w0 = fn * kPio2_2;
  const __m256d r1 = r0 - w0;
  const __m256d w1 = fn * kPio2_2t - ((r0 - r1) - w0);
  const __m256d y0 = r1 - w1;
  const __m256d y1 = (r1 - y0) - w1;

  const __m256d z = y0 * y0;
  const __m256d w = z * z;
  // k_sin(y0, y1, 1).
  const __m256d sr = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const __m256d v = z * y0;
  const __m256d sin_y = y0 - ((z * (0.5 * y1 - v * sr) - y1) - v * kS1);
  // k_cos(y0, y1).
  const __m256d cr = z * (kC1 + z * (kC2 + z * kC3)) +
                     w * w * (kC4 + z * (kC5 + z * kC6));
  const __m256d hz = 0.5 * z;
  const __m256d one_hz = 1.0 - hz;
  const __m256d cos_y = one_hz + (((1.0 - one_hz) - hz) + (z * cr - y0 * y1));

  // Quadrant n mod 4: odd n swaps sin and cos; bit 1 of n negates sin and
  // bit 1 of n + 1 negates cos.  blendv reads each lane's sign bit.
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256d odd = _mm256_castsi256_pd(_mm256_slli_epi64(n, 63));
  const __m256d sin_neg =
      _mm256_castsi256_pd(_mm256_and_si256(_mm256_slli_epi64(n, 62), sign));
  const __m256d cos_neg = _mm256_castsi256_pd(_mm256_and_si256(
      _mm256_slli_epi64(_mm256_add_epi64(n, _mm256_set1_epi64x(1)), 62),
      sign));
  sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_y, cos_y, odd), sin_neg);
  cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_y, sin_y, odd), cos_neg);
}

// Four interleaved pairs at p, in place.
void BoxMuller4(double* p) {
  const __m256d lo = _mm256_loadu_pd(p);
  const __m256d hi = _mm256_loadu_pd(p + 4);
  // Lanes hold pairs 0, 2, 1, 3; the stores below undo that order.
  const __m256d u1 = _mm256_unpacklo_pd(lo, hi);
  const __m256d u2 = _mm256_unpackhi_pd(lo, hi);
  const __m256d mag = _mm256_sqrt_pd(-2.0 * Log(u1));
  __m256d sin_t, cos_t;
  SinCos(2.0 * std::numbers::pi * u2, sin_t, cos_t);
  const __m256d x = mag * cos_t;
  const __m256d y = mag * sin_t;
  _mm256_storeu_pd(p, _mm256_unpacklo_pd(x, y));
  _mm256_storeu_pd(p + 4, _mm256_unpackhi_pd(x, y));
}

void BoxMullerK(std::size_t pairs, double* xs) {
  std::size_t i = 0;
  for (; i + 4 <= pairs; i += 4) BoxMuller4(xs + 2 * i);
  if (i == pairs) return;
  // The last pairs run through the same lanes, padded with valid (1, 0)
  // pairs, so a pair's bits never depend on where a batch was split.
  double pad[8] = {1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  const std::size_t tail_bytes = 2 * (pairs - i) * sizeof(double);
  std::memcpy(pad, xs + 2 * i, tail_bytes);
  BoxMuller4(pad);
  std::memcpy(xs + 2 * i, pad, tail_bytes);
}

}  // namespace
}  // namespace nomloc::simd::avx2_impl

#define NOMLOC_VEC_AVX2 1
#define NOMLOC_SIMD_NS avx2_impl
#define NOMLOC_SIMD_TARGET_ENUM Target::kAvx2
#define NOMLOC_SIMD_TABLE_FN Avx2Kernels
#include "simd/kernels_body.inc"

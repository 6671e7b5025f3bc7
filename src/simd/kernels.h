// Portable SIMD kernel layer — the compute substrate under the DSP and LP
// hot loops.
//
// Each kernel exists in one variant per instruction-set target (scalar,
// SSE2, AVX2, NEON), compiled in its own translation unit with the right
// -m flags and exposed through a KernelTable of function pointers.  The
// table in use is resolved once at startup from the CPU's capabilities
// (see dispatch.h); every call site goes through the inline wrappers
// below, which also maintain per-kernel call counters for
// `nomloc_sim --metrics`.
//
// Numerical contract (see DESIGN.md "SIMD kernel layer"):
//   * The scalar table is bit-identical to the pre-SIMD loops it replaced
//     (same operation order, no FMA contraction) — NOMLOC_FORCE_SCALAR=1
//     reproduces historical results exactly.
//   * Element-wise kernels (axpy, scale, power_spectrum, cplx_axpy,
//     fft_pass, …) are bit-identical across targets: each output lane is
//     the same mul/add sequence, just computed W lanes at a time.
//     cplx_axpy's term count keeps that: each lane adds its terms in
//     order, so one call over many terms rounds like one call per term.
//   * Reduction kernels (dot, sum_norm, max_norm, mat_vec rows) reassociate
//     the sum across lanes; results match scalar to a tested bound
//     (tests/simd_kernels_test.cc).
//   * box_muller evaluates log, sqrt and sin/cos.  Its scalar entry (also
//     the SSE2 and NEON one) is bit-identical to common::Rng::Gaussian();
//     its vector entries match the scalar entry within a tested ULP bound.
#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>

namespace nomloc::simd {

/// Instruction-set targets, in increasing preference order.
enum class Target : int { kScalar = 0, kSse2 = 1, kNeon = 2, kAvx2 = 3 };

/// One function pointer per kernel.  `xs` parameters are interleaved
/// complex data (re, im, re, im, …); `re`/`im`/`tr`/`ti` parameters are
/// split-complex (SoA) arrays.
struct KernelTable {
  Target target;

  /// sum_i a[i] * b[i].
  double (*dot)(const double* a, const double* b, std::size_t n);
  /// y[i] += a * x[i].
  void (*axpy)(std::size_t n, double a, const double* x, double* y);
  /// x[i] *= a.
  void (*scale)(std::size_t n, double a, double* x);
  /// x[i] /= d  (division, not multiplication by 1/d — matches the
  /// historical inverse-FFT and simplex-pivot rounding).
  void (*inv_scale)(std::size_t n, double d, double* x);
  /// y = A x for row-major A (rows x cols); y must hold `rows` doubles.
  void (*mat_vec)(const double* a, std::size_t rows, std::size_t cols,
                  const double* x, double* y);
  /// x += A^T y for row-major A; x must be pre-zeroed (`cols` doubles).
  void (*t_mat_vec)(const double* a, std::size_t rows, std::size_t cols,
                    const double* y, double* x);
  /// out[i] = re_i^2 + im_i^2 over n interleaved complexes.
  void (*power_spectrum)(std::size_t n, const double* xs, double* out);
  /// out[i] += re_i^2 + im_i^2 (non-coherent MIMO profile accumulation).
  void (*power_spectrum_add)(std::size_t n, const double* xs, double* out);
  /// out[i] = |x_i| (scalar path uses std::abs for historical rounding).
  void (*magnitudes)(std::size_t n, const double* xs, double* out);
  /// max_i (re_i^2 + im_i^2); n >= 1.  Fused max-tap PDP extraction.
  double (*max_norm)(std::size_t n, const double* xs);
  /// sum_i (re_i^2 + im_i^2).  Fused total-power PDP extraction.
  double (*sum_norm)(std::size_t n, const double* xs);
  /// One radix-2 butterfly stage over split-complex data of length n with
  /// half-length `half`: for every block and k in [0, half),
  ///   v = x[i+k+half] * (wr[k], wsign*wi[k]);  x[i+k] = u + v;
  ///   x[i+k+half] = u - v.
  void (*fft_pass)(double* re, double* im, std::size_t n, std::size_t half,
                   const double* wr, const double* wi, double wsign);
  /// Split-complex axpy over the `terms` rows of a row-major terms x n
  /// table: out[i] += sum_t (br[t], bi[t]) * (tr[t*n + i], ti[t*n + i]).
  /// Each element adds its terms in order t = 0, 1, …, so one call equals
  /// `terms` one-term calls in sequence, bit for bit.
  void (*cplx_axpy)(std::size_t n, std::size_t terms, const double* br,
                    const double* bi, const double* tr, const double* ti,
                    double* outr, double* outi);
  /// Interleaved -> split-complex copy, with an optional source
  /// permutation (perm == nullptr means identity): re[i] = xs[2*p(i)].
  void (*deinterleave)(std::size_t n, const double* xs,
                       const std::size_t* perm, double* re, double* im);
  /// Split-complex -> interleaved copy.
  void (*interleave)(std::size_t n, const double* re, const double* im,
                     double* xs);
  /// Box-Muller in place over `pairs` interleaved (u1, u2) pairs with u1
  /// in (0, 1] and u2 in [0, 1): each pair becomes (r cos t, r sin t) with
  /// r = sqrt(-2 log u1) and t = 2 pi u2.  Each output depends only on its
  /// own pair, so any split of a batch gives the same bits.
  void (*box_muller)(std::size_t pairs, double* xs);
};

/// The kernel table selected by runtime dispatch (dispatch.h).  First call
/// resolves the target; later calls are one atomic load.
const KernelTable& ActiveKernels();

/// Per-kernel call counters (relaxed atomics in per-thread stripes, summed
/// into common::metrics by PublishMetrics()).
enum class KernelId : int {
  kDot = 0,
  kAxpy,
  kScale,
  kInvScale,
  kMatVec,
  kTMatVec,
  kPowerSpectrum,
  kPowerSpectrumAdd,
  kMagnitudes,
  kMaxNorm,
  kSumNorm,
  kFftPass,
  kCplxAxpy,
  kDeinterleave,
  kInterleave,
  kBoxMuller,
  kCount
};

/// Kernel name as used in the `simd.kernel.calls{kernel=…}` metric label.
const char* KernelName(KernelId id);

namespace detail {

/// One thread's call counters, on cache lines no other stripe shares, so
/// threads calling kernels concurrently never write the same line.
struct alignas(64) CallStripe {
  std::atomic<std::uint64_t> calls[std::size_t(KernelId::kCount)] = {};
};

/// The calling thread's stripe.  Threads take stripes from a fixed pool of
/// 8 on their first kernel call, in that order, so the ninth thread shares
/// the first thread's stripe, and so on.  Every increment is an atomic
/// add, so a shared stripe still counts exactly.
CallStripe& ThreadCallStripe() noexcept;

/// Calls of `id` so far, summed over every stripe.
std::uint64_t CallCount(KernelId id) noexcept;

inline void Count(KernelId id) noexcept {
  ThreadCallStripe().calls[std::size_t(id)].fetch_add(
      1, std::memory_order_relaxed);
}

// Per-target tables.  Only the variants compiled into this build are
// defined; dispatch.cc gates references on the NOMLOC_SIMD_HAVE_* macros.
const KernelTable& ScalarKernels();
const KernelTable& Sse2Kernels();
const KernelTable& Avx2Kernels();
const KernelTable& NeonKernels();

}  // namespace detail

// ---------------------------------------------------------------------------
// Call-site wrappers.  These are the only entry points the rest of the
// code base uses; they add the call accounting and centralise the
// interleaved-complex pointer casts (std::complex<double> is
// array-layout-compatible with double[2]).

inline double Dot(const double* a, const double* b, std::size_t n) {
  detail::Count(KernelId::kDot);
  return ActiveKernels().dot(a, b, n);
}

inline void Axpy(std::size_t n, double a, const double* x, double* y) {
  detail::Count(KernelId::kAxpy);
  ActiveKernels().axpy(n, a, x, y);
}

inline void Scale(std::size_t n, double a, double* x) {
  detail::Count(KernelId::kScale);
  ActiveKernels().scale(n, a, x);
}

inline void InvScale(std::size_t n, double d, double* x) {
  detail::Count(KernelId::kInvScale);
  ActiveKernels().inv_scale(n, d, x);
}

inline void MatVec(const double* a, std::size_t rows, std::size_t cols,
                   const double* x, double* y) {
  detail::Count(KernelId::kMatVec);
  ActiveKernels().mat_vec(a, rows, cols, x, y);
}

inline void TMatVec(const double* a, std::size_t rows, std::size_t cols,
                    const double* y, double* x) {
  detail::Count(KernelId::kTMatVec);
  ActiveKernels().t_mat_vec(a, rows, cols, y, x);
}

inline void PowerSpectrum(std::size_t n, const std::complex<double>* xs,
                          double* out) {
  detail::Count(KernelId::kPowerSpectrum);
  ActiveKernels().power_spectrum(n, reinterpret_cast<const double*>(xs), out);
}

inline void PowerSpectrumAdd(std::size_t n, const std::complex<double>* xs,
                             double* out) {
  detail::Count(KernelId::kPowerSpectrumAdd);
  ActiveKernels().power_spectrum_add(n, reinterpret_cast<const double*>(xs),
                                     out);
}

inline void Magnitudes(std::size_t n, const std::complex<double>* xs,
                       double* out) {
  detail::Count(KernelId::kMagnitudes);
  ActiveKernels().magnitudes(n, reinterpret_cast<const double*>(xs), out);
}

inline double MaxNorm(std::size_t n, const std::complex<double>* xs) {
  detail::Count(KernelId::kMaxNorm);
  return ActiveKernels().max_norm(n, reinterpret_cast<const double*>(xs));
}

inline double SumNorm(std::size_t n, const std::complex<double>* xs) {
  detail::Count(KernelId::kSumNorm);
  return ActiveKernels().sum_norm(n, reinterpret_cast<const double*>(xs));
}

inline void FftPass(double* re, double* im, std::size_t n, std::size_t half,
                    const double* wr, const double* wi, double wsign) {
  detail::Count(KernelId::kFftPass);
  ActiveKernels().fft_pass(re, im, n, half, wr, wi, wsign);
}

inline void CplxAxpy(std::size_t n, std::size_t terms, const double* br,
                     const double* bi, const double* tr, const double* ti,
                     double* outr, double* outi) {
  detail::Count(KernelId::kCplxAxpy);
  ActiveKernels().cplx_axpy(n, terms, br, bi, tr, ti, outr, outi);
}

inline void Deinterleave(std::size_t n, const std::complex<double>* xs,
                         const std::size_t* perm, double* re, double* im) {
  detail::Count(KernelId::kDeinterleave);
  ActiveKernels().deinterleave(n, reinterpret_cast<const double*>(xs), perm,
                               re, im);
}

inline void Interleave(std::size_t n, const double* re, const double* im,
                       std::complex<double>* xs) {
  detail::Count(KernelId::kInterleave);
  ActiveKernels().interleave(n, re, im, reinterpret_cast<double*>(xs));
}

inline void BoxMuller(std::size_t pairs, double* xs) {
  detail::Count(KernelId::kBoxMuller);
  ActiveKernels().box_muller(pairs, xs);
}

}  // namespace nomloc::simd

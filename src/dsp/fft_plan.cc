#include "dsp/fft_plan.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"
#include "common/metrics.h"
#include "dsp/fft.h"
#include "simd/kernels.h"

namespace nomloc::dsp {

namespace {

// Bit-reversal permutation of [0, n) for power-of-two n, computed with the
// same incremental carry walk the in-place transform uses.
std::vector<std::size_t> BitReversal(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    rev[i] = j;
  }
  return rev;
}

// Forward twiddles e^{-j 2 pi k / len} for len = 2, 4, …, n, concatenated;
// the stage with half-length h = len/2 starts at offset h - 1.
std::vector<Cplx> ForwardTwiddles(std::size_t n) {
  std::vector<Cplx> tw;
  tw.reserve(n > 0 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi * double(k) / double(len);
      tw.emplace_back(std::cos(ang), std::sin(ang));
    }
  }
  return tw;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n), pow2_(IsPowerOfTwo(n)) {
  NOMLOC_REQUIRE(n >= 1);
  const std::size_t grid = pow2_ ? n_ : NextPowerOfTwo(2 * n_ - 1);
  bitrev_ = BitReversal(grid);
  twiddle_ = ForwardTwiddles(grid);
  twiddle_re_.resize(twiddle_.size());
  twiddle_im_.resize(twiddle_.size());
  for (std::size_t k = 0; k < twiddle_.size(); ++k) {
    twiddle_re_[k] = twiddle_[k].real();
    twiddle_im_[k] = twiddle_[k].imag();
  }
  if (pow2_) return;

  m_ = grid;
  // Chirp factors: forward uses c_k = e^{-j pi k^2 / n} so the DFT kernel
  // factors as e^{-j2pi kt/n} = c_k c_t conj(c_{k-t}); the inverse
  // conjugates everything.  k^2 mod 2n keeps the angle argument small.
  chirp_fwd_.resize(n_);
  chirp_inv_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const double kk = double((k * k) % (2 * n_));
    const double ang = std::numbers::pi * kk / double(n_);
    chirp_fwd_[k] = Cplx(std::cos(ang), -std::sin(ang));
    chirp_inv_[k] = std::conj(chirp_fwd_[k]);
  }
  // Convolution kernels b[k] = conj(c_k) (mirrored into the tail),
  // transformed once here instead of once per frame.
  auto make_kernel = [&](const std::vector<Cplx>& chirp) {
    std::vector<Cplx> b(m_, Cplx(0.0, 0.0));
    for (std::size_t k = 0; k < n_; ++k) {
      const Cplx conj = std::conj(chirp[k]);
      b[k] = conj;
      if (k != 0) b[m_ - k] = conj;
    }
    Radix2(b, /*inverse=*/false);
    return b;
  };
  kernel_fwd_ = make_kernel(chirp_fwd_);
  kernel_inv_ = make_kernel(chirp_inv_);
}

void FftPlan::Radix2(std::span<Cplx> data, bool inverse) const {
  const std::size_t n = data.size();
  NOMLOC_ASSERT(n == bitrev_.size());
  if (n == 1) return;

  // The split-complex path only pays off once a butterfly stage spans at
  // least one vector width; tiny transforms stay on the interleaved loop.
  if (simd::ActiveKernels().target != simd::Target::kScalar && n >= 8) {
    Radix2Simd(data, inverse);
    return;
  }

  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  const Cplx* stage_tw = twiddle_.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Cplx w =
            inverse ? std::conj(stage_tw[k]) : stage_tw[k];
        const Cplx u = data[i + k];
        const Cplx v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    stage_tw += half;
  }
  if (inverse) {
    for (Cplx& x : data) x /= double(n);
  }
}

void FftPlan::Radix2Simd(std::span<Cplx> data, bool inverse) const {
  const std::size_t n = data.size();
  // Split-complex scratch, reused across calls on each thread.  The
  // deinterleave applies the bit-reversal permutation in the same pass
  // (bitrev_ is an involution, so gathering data[bitrev_[i]] produces the
  // exact array the swap loop in Radix2 would).
  thread_local std::vector<double> re_scratch;
  thread_local std::vector<double> im_scratch;
  if (re_scratch.size() < n) {
    re_scratch.resize(n);
    im_scratch.resize(n);
  }
  double* re = re_scratch.data();
  double* im = im_scratch.data();
  simd::Deinterleave(n, data.data(), bitrev_.data(), re, im);

  // The inverse transform conjugates every twiddle; FftPass folds that
  // into wsign so one table serves both directions.
  const double wsign = inverse ? -1.0 : 1.0;
  const double* twr = twiddle_re_.data();
  const double* twi = twiddle_im_.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    simd::FftPass(re, im, n, half, twr, twi, wsign);
    twr += half;
    twi += half;
  }
  if (inverse) {
    // n is a power of two, so 1/n is exact and x * (1/n) rounds the same
    // real number as x / n, subnormal results included: the division's
    // bits at a multiply's cost.
    const double inv_n = 1.0 / double(n);
    simd::Scale(n, inv_n, re);
    simd::Scale(n, inv_n, im);
  }
  simd::Interleave(n, re, im, data.data());
}

void FftPlan::Chirp(std::span<Cplx> data, bool inverse) const {
  // Scratch reused across calls on each thread; zero per-call allocation
  // once the high-water mark is reached.
  thread_local std::vector<Cplx> scratch;
  scratch.assign(m_, Cplx(0.0, 0.0));

  const std::vector<Cplx>& chirp = inverse ? chirp_inv_ : chirp_fwd_;
  const std::vector<Cplx>& kernel = inverse ? kernel_inv_ : kernel_fwd_;

  for (std::size_t k = 0; k < n_; ++k) scratch[k] = data[k] * chirp[k];
  Radix2(scratch, /*inverse=*/false);
  for (std::size_t k = 0; k < m_; ++k) scratch[k] *= kernel[k];
  Radix2(scratch, /*inverse=*/true);
  for (std::size_t k = 0; k < n_; ++k) data[k] = scratch[k] * chirp[k];
  if (inverse) {
    for (std::size_t k = 0; k < n_; ++k) data[k] /= double(n_);
  }
}

void FftPlan::Forward(std::span<Cplx> data) const {
  NOMLOC_REQUIRE(data.size() == n_);
  if (pow2_) {
    Radix2(data, /*inverse=*/false);
  } else {
    Chirp(data, /*inverse=*/false);
  }
}

void FftPlan::Inverse(std::span<Cplx> data) const {
  NOMLOC_REQUIRE(data.size() == n_);
  if (pow2_) {
    Radix2(data, /*inverse=*/true);
  } else {
    Chirp(data, /*inverse=*/true);
  }
}

FftPlanCache& FftPlanCache::Global() {
  static FftPlanCache cache;
  return cache;
}

std::shared_ptr<const FftPlan> FftPlanCache::Plan(std::size_t n) {
  NOMLOC_REQUIRE(n >= 1);
  auto& registry = common::MetricRegistry::Global();
  static auto& hits = registry.Counter("dsp.fft.plan.hits");
  static auto& misses = registry.Counter("dsp.fft.plan.misses");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = plans_.find(n);
    if (it != plans_.end()) {
      hits.Increment();
      return it->second;
    }
  }
  // Build outside the lock: plan construction runs its own FFTs, and two
  // threads racing on the same length build identical plans anyway.
  misses.Increment();
  auto plan = std::make_shared<const FftPlan>(n);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = plans_.emplace(n, std::move(plan));
  (void)inserted;  // The loser adopts the winner's identical plan.
  return it->second;
}

void FftPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

std::size_t FftPlanCache::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

}  // namespace nomloc::dsp

// Deterministic random number generation.
//
// Every stochastic component of the library (channel fading, AWGN, mobility
// walks, injected position error) draws from an explicitly seeded Rng so
// that experiments are reproducible bit-for-bit across runs.  The core
// generator is xoshiro256++ (Blackman & Vigna), seeded through splitmix64.
#pragma once

#include <array>
#include <bit>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace nomloc::common {

/// splitmix64 step; used for seeding and cheap hashing of stream ids.
std::uint64_t SplitMix64(std::uint64_t& state) noexcept;

/// xoshiro256++ PRNG with convenience distributions.
///
/// Satisfies the UniformRandomBitGenerator concept, so it also plugs into
/// <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds deterministically from `seed` (any value, including 0, is fine).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit value.  Inline, like Uniform(): the channel draws
  /// about a hundred uniforms per simulated packet.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Derives an independent child stream; `stream_id` selects the stream.
  /// Children with distinct ids are statistically independent of the
  /// parent and of each other (seeded via splitmix64 of state + id).
  Rng Fork(std::uint64_t stream_id) const noexcept;

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double Uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).  Requires lo <= hi.
  double Uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Requires n > 0.  Unbiased (rejection).
  std::uint64_t UniformInt(std::uint64_t n);
  /// Standard normal via Box–Muller (cached second variate).
  double Gaussian() noexcept;
  /// True when the next Gaussian() returns the cached second variate of the
  /// last Box–Muller pair instead of drawing a new pair.
  bool HasCachedGaussian() const noexcept { return has_cached_gaussian_; }
  /// Normal with the given mean and standard deviation (sigma >= 0).
  double Gaussian(double mean, double sigma);
  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  std::complex<double> ComplexGaussian(double variance);
  /// Uniform point in the closed disc of radius r centred at the origin.
  /// Returned as {x, y}.
  std::array<double, 2> UniformDisc(double r);
  /// Uniform angle in [0, 2*pi).
  double UniformAngle() noexcept;
  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) noexcept;
  /// Exponential with the given mean (> 0).
  double Exponential(double mean);
  /// Samples an index from a discrete distribution given non-negative
  /// weights (need not be normalised; at least one must be positive).
  std::size_t Categorical(std::span<const double> weights);
  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = UniformInt(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace nomloc::common

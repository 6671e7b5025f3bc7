#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/assert.h"

namespace nomloc::common {

std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::Fork(std::uint64_t stream_id) const noexcept {
  std::uint64_t sm =
      s_[0] ^ std::rotl(stream_id, 32) ^ 0xd1b54a32d192ed03ULL;
  (void)SplitMix64(sm);
  return Rng(SplitMix64(sm) ^ stream_id);
}

double Rng::Uniform(double lo, double hi) {
  NOMLOC_REQUIRE(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  NOMLOC_REQUIRE(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::Gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller; u1 in (0,1] to keep log finite.
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  double ang = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = mag * std::sin(ang);
  has_cached_gaussian_ = true;
  return mag * std::cos(ang);
}

double Rng::Gaussian(double mean, double sigma) {
  NOMLOC_REQUIRE(sigma >= 0.0);
  return mean + sigma * Gaussian();
}

std::complex<double> Rng::ComplexGaussian(double variance) {
  NOMLOC_REQUIRE(variance >= 0.0);
  const double s = std::sqrt(variance / 2.0);
  return {s * Gaussian(), s * Gaussian()};
}

std::array<double, 2> Rng::UniformDisc(double r) {
  NOMLOC_REQUIRE(r >= 0.0);
  // Inverse-CDF radius keeps the density uniform over the disc area.
  const double rad = r * std::sqrt(Uniform());
  const double ang = UniformAngle();
  return {rad * std::cos(ang), rad * std::sin(ang)};
}

double Rng::UniformAngle() noexcept {
  return 2.0 * std::numbers::pi * Uniform();
}

bool Rng::Bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

double Rng::Exponential(double mean) {
  NOMLOC_REQUIRE(mean > 0.0);
  return -mean * std::log(1.0 - Uniform());
}

std::size_t Rng::Categorical(std::span<const double> weights) {
  NOMLOC_REQUIRE(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    NOMLOC_REQUIRE(w >= 0.0);
    total += w;
  }
  NOMLOC_REQUIRE(total > 0.0);
  double u = Uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace nomloc::common

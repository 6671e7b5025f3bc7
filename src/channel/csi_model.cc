#include "channel/csi_model.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "channel/propagation_cache.h"
#include "common/assert.h"
#include "common/metrics.h"
#include "dsp/ofdm.h"
#include "simd/kernels.h"

namespace nomloc::channel {

using dsp::Cplx;
using dsp::CsiFrame;

namespace {

// Circularly-symmetric complex Gaussian with per-component standard
// deviation `sigma`: the same draws, in the same order, and the same bits
// as rng.ComplexGaussian(v) with sigma = sqrt(v / 2).
Cplx ComplexNormal(common::Rng& rng, double sigma) {
  return {sigma * rng.Gaussian(), sigma * rng.Gaussian()};
}

// Writes the values that out.size() calls to rng.Gaussian() return, in
// their order, and leaves `rng` where those calls would.  The uniform
// pairs between a cached first variate and an odd last draw go through one
// simd::BoxMuller call: its scalar entry is Gaussian()'s arithmetic, and a
// vector entry moves only the last bits (simd/kernels.h).
void FillGaussian(common::Rng& rng, std::span<double> out) {
  std::size_t i = 0;
  if (!out.empty() && rng.HasCachedGaussian()) out[i++] = rng.Gaussian();
  const std::size_t pairs = (out.size() - i) / 2;
  double* xs = out.data() + i;
  for (std::size_t k = 0; k < pairs; ++k) {
    xs[2 * k] = 1.0 - rng.Uniform();  // u1 in (0, 1], as Gaussian() draws.
    xs[2 * k + 1] = rng.Uniform();
  }
  simd::BoxMuller(pairs, xs);
  i += 2 * pairs;
  if (i < out.size()) out[i] = rng.Gaussian();  // Caches its partner.
}

// Digest of the ChannelConfig fields a ToneTable depends on.
std::uint64_t ToneDigest(const ChannelConfig& c) noexcept {
  std::uint64_t state = 0x746f6e65735f7631ull;  // Arbitrary fixed seed.
  std::uint64_t digest = 0;
  for (const std::uint64_t word :
       {std::bit_cast<std::uint64_t>(c.bandwidth_hz),
        std::uint64_t(c.fft_size), std::uint64_t(c.intel5300_grouping),
        std::bit_cast<std::uint64_t>(c.carrier_hz),
        std::uint64_t(c.rx_antennas),
        std::bit_cast<std::uint64_t>(c.antenna_spacing_wavelengths)}) {
    state ^= word;
    digest = common::SplitMix64(state);
  }
  return digest;
}

}  // namespace

LinkModel::LinkModel(std::vector<PropagationPath> paths,
                     const ChannelConfig& config)
    : LinkModel(std::move(paths), config, std::make_shared<ToneTable>()) {}

LinkModel::LinkModel(std::vector<PropagationPath> paths,
                     const ChannelConfig& config,
                     std::shared_ptr<ToneTable> tones)
    : paths_(std::move(paths)), config_(config), tones_(std::move(tones)) {
  NOMLOC_REQUIRE(!paths_.empty());
  NOMLOC_REQUIRE(config_.rx_antennas >= 1);
  NOMLOC_REQUIRE(config_.antenna_spacing_wavelengths > 0.0);
  subcarriers_ = config_.intel5300_grouping ? CsiFrame::Intel5300Indices()
                                            : CsiFrame::Ht20Indices();
  amp_.reserve(paths_.size());
  delay_s_.reserve(paths_.size());
  los_amp_.reserve(paths_.size());
  diffuse_sigma_.reserve(paths_.size());
  const double k_direct = common::FromDb(config_.rician_k_db);
  const double k_bounce = common::FromDb(config_.bounce_rician_k_db);
  for (const PropagationPath& p : paths_) {
    const double rx_dbm = config_.tx_power_dbm - p.loss_db;
    amp_.push_back(std::sqrt(common::DbmToMilliwatts(rx_dbm)));
    delay_s_.push_back(p.DelayS());
    // The direct path keeps a strong deterministic component (Rician);
    // bounced paths default to (near-)Rayleigh but can be made stable for
    // static-environment studies via bounce_rician_k_db.
    const double k = p.is_direct ? k_direct : k_bounce;
    // Rng::ComplexGaussian's variance check, made once per link: a NaN K
    // or noise floor throws here, before any frame is built.
    const double diffuse_variance = 1.0 / (k + 1.0);
    NOMLOC_REQUIRE(diffuse_variance >= 0.0);
    los_amp_.push_back(std::sqrt(k / (k + 1.0)));
    diffuse_sigma_.push_back(std::sqrt(diffuse_variance / 2.0));
  }
  const double rho = config_.fading_correlation;
  innovation_ = std::sqrt(1.0 - rho * rho);
  noise_variance_mw_ = common::DbmToMilliwatts(config_.noise_floor_dbm);
  NOMLOC_REQUIRE(noise_variance_mw_ >= 0.0);
  noise_sigma_ = std::sqrt(noise_variance_mw_ / 2.0);
}

std::size_t LinkModel::ToneBytes() const noexcept {
  const std::size_t paths = paths_.size();
  return sizeof(ToneTable) +
         2 * paths * subcarriers_.size() * sizeof(double) +
         std::size_t(config_.rx_antennas) * paths * sizeof(Cplx);
}

const ToneTable& LinkModel::Tones() const {
  // Delay and carrier phasor tables: cos/sin of the exact angles Synthesize
  // used to recompute per packet, so the hot loop is a pure complex axpy.
  // Values are bit-identical to the historical per-call trigonometry.
  // Every link sharing the table has the same paths and tone
  // configuration, so whichever fills it writes the same values.
  std::call_once(tones_->once, [this] {
    static auto& built =
        common::MetricRegistry::Global().Counter("channel.tones.built");
    built.Increment();
    const double df = config_.bandwidth_hz / double(config_.fft_size);
    const std::size_t stride = subcarriers_.size();
    tones_->re.resize(paths_.size() * stride);
    tones_->im.resize(paths_.size() * stride);
    for (std::size_t p = 0; p < paths_.size(); ++p) {
      for (std::size_t i = 0; i < stride; ++i) {
        const double f = double(subcarriers_[i]) * df;
        const double ang = -2.0 * std::numbers::pi * f * delay_s_[p];
        tones_->re[p * stride + i] = std::cos(ang);
        tones_->im[p * stride + i] = std::sin(ang);
      }
    }
    const std::size_t paths = paths_.size();
    tones_->carrier.resize(std::size_t(config_.rx_antennas) * paths);
    for (int antenna = 0; antenna < config_.rx_antennas; ++antenna) {
      for (std::size_t p = 0; p < paths; ++p) {
        // Deterministic carrier phase of the path, plus the uniform-linear-
        // array offset of this antenna: 2*pi*spacing*m*cos(aoa).
        const double array_phase =
            2.0 * std::numbers::pi * config_.antenna_spacing_wavelengths *
            double(antenna) * std::cos(paths_[p].aoa_rad);
        const double carrier_phase =
            -2.0 * std::numbers::pi * config_.carrier_hz * delay_s_[p] +
            array_phase;
        tones_->carrier[std::size_t(antenna) * paths + p] =
            Cplx(std::cos(carrier_phase), std::sin(carrier_phase));
      }
    }
  });
  return *tones_;
}

std::vector<Cplx> LinkModel::DrawGains(common::Rng& rng) const {
  std::vector<Cplx> gains;
  gains.reserve(paths_.size());
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    gains.push_back(Cplx(los_amp_[p], 0.0) +
                    ComplexNormal(rng, diffuse_sigma_[p]));
  }
  return gains;
}

void LinkModel::Synthesize(std::span<const Cplx> gains,
                           std::span<const double> noise, int antenna,
                           std::span<Cplx> out) const {
  NOMLOC_REQUIRE(gains.empty() || gains.size() == paths_.size());
  NOMLOC_REQUIRE(antenna >= 0 && antenna < config_.rx_antennas);
  const std::size_t paths = paths_.size();
  const std::size_t stride = subcarriers_.size();
  NOMLOC_REQUIRE(noise.empty() || noise.size() == 2 * stride);
  NOMLOC_REQUIRE(out.size() == stride);
  const ToneTable& tones = Tones();
  const Cplx* carrier = tones.carrier.data() + std::size_t(antenna) * paths;

  // Per-path bases and split-complex accumulators, reused across packets
  // on each thread.
  struct Scratch {
    std::vector<double> base_re, base_im, acc_re, acc_im;
  };
  thread_local Scratch s;
  s.base_re.resize(paths);
  s.base_im.resize(paths);
  for (std::size_t p = 0; p < paths; ++p) {
    const Cplx gain = gains.empty() ? Cplx(1.0, 0.0) : gains[p];
    // Kept as (gain * amp) * carrier: folding amp into the table would
    // round differently.
    const Cplx base = gain * amp_[p] * carrier[p];
    s.base_re[p] = base.real();
    s.base_im[p] = base.imag();
  }
  s.acc_re.assign(stride, 0.0);
  s.acc_im.assign(stride, 0.0);
  // values[i] = sum_p base_p * tone(p, i), adding the paths in order.
  simd::CplxAxpy(stride, paths, s.base_re.data(), s.base_im.data(),
                 tones.re.data(), tones.im.data(), s.acc_re.data(),
                 s.acc_im.data());
  simd::Interleave(stride, s.acc_re.data(), s.acc_im.data(), out.data());

  if (!noise.empty()) {
    for (std::size_t i = 0; i < stride; ++i) {
      out[i] += Cplx(noise_sigma_ * noise[2 * i],
                     noise_sigma_ * noise[2 * i + 1]);
    }
  }
}

CsiFrame LinkModel::MakeFrame(std::vector<Cplx> values) const {
  auto frame = CsiFrame::Create(subcarriers_, std::move(values),
                                config_.fft_size);
  NOMLOC_ASSERT(frame.ok());
  return std::move(frame).value();
}

void LinkModel::SamplePacket(common::Rng& rng, int antenna,
                             std::span<Cplx> diffuse, bool first,
                             std::span<Cplx> out) const {
  const std::size_t paths = paths_.size();
  // One packet's draws and gains, reused across packets on each thread
  // (about 1 KB on a lab link).
  thread_local std::vector<double> draws;
  thread_local std::vector<Cplx> gains;
  draws.resize(2 * (paths + subcarriers_.size()));
  gains.resize(paths);
  FillGaussian(rng, draws);

  const double rho = config_.fading_correlation;
  for (std::size_t p = 0; p < paths; ++p) {
    // ComplexNormal(rng, diffuse_sigma_[p])'s value and rounding.
    const Cplx z(diffuse_sigma_[p] * draws[2 * p],
                 diffuse_sigma_[p] * draws[2 * p + 1]);
    if (diffuse.empty()) {
      gains[p] = Cplx(los_amp_[p], 0.0) + z;
    } else {
      diffuse[p] = first ? z : rho * diffuse[p] + innovation_ * z;
      gains[p] = Cplx(los_amp_[p], 0.0) + diffuse[p];
    }
  }
  Synthesize(gains, std::span<const double>(draws).subspan(2 * paths),
             antenna, out);
}

CsiFrame LinkModel::SampleFrame(common::Rng& rng, int antenna,
                                std::span<Cplx> diffuse, bool first) const {
  std::vector<Cplx> values(subcarriers_.size());
  SamplePacket(rng, antenna, diffuse, first, values);
  return MakeFrame(std::move(values));
}

CsiFrame LinkModel::Sample(common::Rng& rng) const {
  return SampleFrame(rng, 0, {}, false);
}

std::vector<CsiFrame> LinkModel::SampleBatch(std::size_t count,
                                             common::Rng& rng) const {
  std::vector<Cplx> block;
  SampleBlock(count, rng, block);
  const std::size_t stride = subcarriers_.size();
  std::vector<CsiFrame> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto row = block.begin() + std::ptrdiff_t(i * stride);
    out.push_back(MakeFrame({row, row + std::ptrdiff_t(stride)}));
  }
  return out;
}

void LinkModel::SampleBlock(std::size_t count, common::Rng& rng,
                            std::vector<Cplx>& block) const {
  NOMLOC_REQUIRE(count >= 1);
  const double rho = config_.fading_correlation;
  NOMLOC_REQUIRE(rho >= 0.0 && rho < 1.0);
  static auto& synthesize_timer =
      common::MetricRegistry::Global().Timer("channel.synthesize");
  common::StageTrace trace(synthesize_timer);
  const std::size_t stride = subcarriers_.size();
  block.resize(count * stride);
  // AR(1) Gauss-Markov evolution of the *diffuse* fading component: the
  // deterministic Rician mean stays fixed, the scattered part decorrelates
  // at rate rho per packet, preserving the marginal distribution.
  std::vector<Cplx> diffuse(rho == 0.0 ? 0 : paths_.size());
  for (std::size_t i = 0; i < count; ++i) {
    SamplePacket(rng, 0, diffuse, i == 0,
                 std::span<Cplx>(block).subspan(i * stride, stride));
  }
}

MimoCsiFrame LinkModel::SampleMimo(common::Rng& rng) const {
  // Spatially-uncorrelated fading model for >= lambda/2 spacing: the
  // deterministic (LOS) component is shared across the array (up to the
  // per-antenna array phase applied in Synthesize); the diffuse component
  // is drawn independently per antenna — that independence is what makes
  // antenna diversity pay off.
  MimoCsiFrame frame;
  frame.reserve(std::size_t(config_.rx_antennas));
  for (int antenna = 0; antenna < config_.rx_antennas; ++antenna)
    frame.push_back(SampleFrame(rng, antenna, {}, false));
  return frame;
}

std::vector<MimoCsiFrame> LinkModel::SampleMimoBatch(std::size_t count,
                                                     common::Rng& rng) const {
  NOMLOC_REQUIRE(count >= 1);
  const double rho = config_.fading_correlation;
  NOMLOC_REQUIRE(rho >= 0.0 && rho < 1.0);
  static auto& synthesize_timer =
      common::MetricRegistry::Global().Timer("channel.synthesize");
  common::StageTrace trace(synthesize_timer);
  // SampleBatch's AR(1) recursion with one diffuse state per antenna.
  const std::size_t state = rho == 0.0 ? 0 : paths_.size();
  std::vector<Cplx> diffuse(std::size_t(config_.rx_antennas) * state);
  std::vector<MimoCsiFrame> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    MimoCsiFrame packet;
    packet.reserve(std::size_t(config_.rx_antennas));
    for (int antenna = 0; antenna < config_.rx_antennas; ++antenna) {
      packet.push_back(SampleFrame(
          rng, antenna,
          std::span<Cplx>(diffuse).subspan(std::size_t(antenna) * state,
                                           state),
          i == 0));
    }
    out.push_back(std::move(packet));
  }
  return out;
}

CsiFrame LinkModel::MeanResponse() const {
  std::vector<Cplx> values(subcarriers_.size());
  Synthesize({}, {}, 0, values);
  return MakeFrame(std::move(values));
}

std::vector<Cplx> LinkModel::SampleImpulseResponse(
    common::Rng* rng, std::size_t max_taps, double lead_in_samples) const {
  NOMLOC_REQUIRE(max_taps >= 1);
  NOMLOC_REQUIRE(lead_in_samples >= 0.0);
  const double sample_rate = config_.bandwidth_hz;
  std::vector<Cplx> gains;
  if (rng != nullptr) gains = DrawGains(*rng);

  std::vector<Cplx> taps(max_taps, Cplx(0.0, 0.0));
  for (std::size_t p = 0; p < paths_.size(); ++p) {
    const Cplx gain = gains.empty() ? Cplx(1.0, 0.0) : gains[p];
    const double carrier_phase =
        -2.0 * std::numbers::pi * config_.carrier_hz * delay_s_[p];
    const Cplx a = gain * amp_[p] *
                   Cplx(std::cos(carrier_phase), std::sin(carrier_phase));
    // Fractional delay by windowed-sinc interpolation: the band-limited
    // sampling of a delayed impulse.  (A naive two-tap linear split would
    // act as a triangular low-pass and crush the band edges, visibly
    // biasing the PDP — see tests/dsp_ofdm_test.cc.)
    const double pos = delay_s_[p] * sample_rate + lead_in_samples;
    constexpr int kHalfKernel = 8;
    const int center = int(std::lround(pos));
    for (int n = center - kHalfKernel; n <= center + kHalfKernel; ++n) {
      if (n < 0 || std::size_t(n) >= max_taps) continue;
      const double x = double(n) - pos;
      const double sinc =
          x == 0.0 ? 1.0
                   : std::sin(std::numbers::pi * x) / (std::numbers::pi * x);
      // Hann window over the kernel support tapers the truncation.
      const double w =
          0.5 * (1.0 + std::cos(std::numbers::pi * x / (kHalfKernel + 1)));
      taps[std::size_t(n)] += a * sinc * w;
    }
    // Paths beyond the window are dropped (they are below the cutoff in
    // any realistic configuration).
  }
  return taps;
}

common::Result<dsp::CsiFrame> LinkModel::MeasurePhyCsi(
    common::Rng* rng) const {
  dsp::OfdmConfig ofdm;
  ofdm.fft_size = config_.fft_size;
  ofdm.subcarriers = subcarriers_;

  // One dummy data symbol keeps the burst well-formed; only the training
  // symbol matters for CSI.
  const std::vector<Cplx> payload(subcarriers_.size(), Cplx(1.0, 0.0));
  NOMLOC_ASSIGN_OR_RETURN(dsp::OfdmBurst burst,
                          dsp::ModulateBurst(payload, ofdm));

  // A small lead-in keeps the fractional-delay kernel's precursor inside
  // the tap window; the receiver synchronises the same amount later.
  constexpr std::size_t kLeadIn = 4;
  const std::vector<Cplx> taps = SampleImpulseResponse(
      rng, std::size_t(ofdm.cyclic_prefix), double(kLeadIn));
  // Per-sample time-domain noise variance that matches the direct model's
  // per-subcarrier floor: an N-point FFT scales noise power by N.
  const double time_noise =
      rng != nullptr ? noise_variance_mw_ / double(config_.fft_size) : 0.0;
  common::Rng null_rng(0);
  const std::vector<Cplx> rx = dsp::ApplyChannel(
      burst.waveform, taps, time_noise, rng != nullptr ? *rng : null_rng);

  NOMLOC_ASSIGN_OR_RETURN(
      dsp::DemodResult demod,
      dsp::DemodulateBurst(std::span<const Cplx>(rx).subspan(kLeadIn),
                           burst.data_symbol_count, ofdm));
  return demod.csi;
}

LinkModel CsiSimulator::MakeLink(geometry::Vec2 tx, geometry::Vec2 rx) const {
  // Memoized: repeated links (every frame of a measurement epoch) skip the
  // ray trace entirely.  Copying the cached path list into the LinkModel is
  // a few dozen PODs — negligible next to the trace it replaces.  The tone
  // table is memoized beside the trace, so a link met again in a later fix
  // skips its trigonometry too.
  PropagationCache& cache = PropagationCache::Global();
  LinkModel link(*cache.Trace(*env_, tx, rx, config_.propagation), config_,
                 nullptr);
  link.tones_ = cache.Tones(*env_, tx, rx, config_.propagation,
                            ToneDigest(config_), link.ToneBytes());
  return link;
}

dsp::CsiFrame CsiSimulator::SampleOne(geometry::Vec2 tx, geometry::Vec2 rx,
                                      common::Rng& rng) const {
  return MakeLink(tx, rx).Sample(rng);
}

}  // namespace nomloc::channel

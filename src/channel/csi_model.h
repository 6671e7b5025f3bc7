// CSI synthesis: converts a traced multipath PathSet into the 802.11n
// frequency-domain channel state information a receiver would report.
//
//   H(f_k) = sum_p  g_p · a_p · e^{-j 2π (f_c + f_k) τ_p}  +  n_k
//
// where a_p is the deterministic path amplitude (from loss_db), τ_p the
// path delay, g_p per-packet small-scale fading (Rician for the direct
// path, Rayleigh for reflections/scatter), and n_k complex AWGN set by the
// noise floor.  This is the standard wideband multipath baseband model;
// it reproduces the LOS/NLOS power-delay dichotomy of the paper's Fig. 3.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "channel/environment.h"
#include "channel/propagation.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/csi.h"
#include "dsp/ofdm.h"

namespace nomloc::channel {

struct ChannelConfig {
  double carrier_hz = common::kDefaultCarrierHz;
  double bandwidth_hz = common::kBandwidth20MHz;
  int fft_size = common::kOfdmFftSize;
  double tx_power_dbm = 15.0;
  /// Per-subcarrier noise power.
  double noise_floor_dbm = -92.0;
  /// Rician K-factor of the direct path when it has line of sight [dB].
  double rician_k_db = 12.0;
  /// Rician K-factor of bounced (reflected/scattered) paths [dB].  The
  /// default ~-60 dB is effectively Rayleigh — each packet sees a fresh
  /// draw, modelling ambient motion.  Device-free sensing tests raise it
  /// to model a truly static room whose multipath is temporally stable.
  double bounce_rician_k_db = -60.0;
  /// AR(1) correlation of the small-scale fading between consecutive
  /// packets of a batch (SampleBatch, and each antenna of
  /// SampleMimoBatch), in [0, 1).  0 = i.i.d. (fast fading / sparse
  /// sampling); values near 1 model packets sent well within the channel
  /// coherence time, which slows the averaging gain of large batches
  /// (bench/abl_coherence).
  double fading_correlation = 0.0;
  /// Report CSI on the Intel-5300 30-tone grid (paper hardware) instead of
  /// the full 56-tone HT20 grid.
  bool intel5300_grouping = true;
  /// Receive antennas at each AP (the Intel 5300 has 3), modelled as a
  /// uniform linear array along +x.  Per-path antenna phase offsets follow
  /// the path's angle of arrival; antennas share large-scale gains but see
  /// independent per-antenna noise.
  int rx_antennas = 1;
  /// ULA element spacing in carrier wavelengths (0.5 typical).
  double antenna_spacing_wavelengths = 0.5;
  PropagationConfig propagation;
};

/// One packet's CSI across all receive antennas (size = rx_antennas).
using MimoCsiFrame = std::vector<dsp::CsiFrame>;

/// A fixed TX–RX link: traced paths plus precomputed per-path baseband
/// parameters.  Sampling a packet re-draws fading and noise only, so
/// batches of thousands of packets (the paper's PING flood) are cheap.
class LinkModel {
 public:
  LinkModel(std::vector<PropagationPath> paths, const ChannelConfig& config);

  /// CSI for one received packet (antenna 0 when rx_antennas > 1).
  dsp::CsiFrame Sample(common::Rng& rng) const;

  /// CSI for `count` packets (count >= 1), antenna 0.
  std::vector<dsp::CsiFrame> SampleBatch(std::size_t count,
                                         common::Rng& rng) const;

  /// One packet across every receive antenna (size = config.rx_antennas).
  /// The deterministic (Rician LOS) component is shared across the array;
  /// diffuse fading and noise are independent per antenna (spatially
  /// uncorrelated fading, valid for >= lambda/2 spacing).
  MimoCsiFrame SampleMimo(common::Rng& rng) const;

  /// `count` packets across every antenna; with fading_correlation > 0
  /// each antenna's diffuse fading evolves as its own AR(1) process.
  std::vector<MimoCsiFrame> SampleMimoBatch(std::size_t count,
                                            common::Rng& rng) const;

  std::span<const PropagationPath> Paths() const noexcept { return paths_; }

  /// Deterministic (fading-free, noise-free) frequency response — useful
  /// for tests and for the Fig. 3 delay-profile bench.
  dsp::CsiFrame MeanResponse() const;

  /// Discrete-time impulse response at the channel sample rate
  /// (1/bandwidth), with one per-packet fading draw applied; fractional
  /// path delays are rendered by windowed-sinc interpolation.  Pass
  /// nullptr for the deterministic (unit-gain) taps.  `lead_in_samples`
  /// shifts every path later by that many samples so the interpolation
  /// kernel's precursor tail is not clipped at n = 0 (the receiver then
  /// synchronises `lead_in_samples` later to compensate).
  std::vector<dsp::Cplx> SampleImpulseResponse(
      common::Rng* rng, std::size_t max_taps = 32,
      double lead_in_samples = 0.0) const;

  /// CSI measured through the *full PHY chain* instead of the direct
  /// frequency-domain synthesis: an OFDM training burst (dsp/ofdm.h) is
  /// convolved with this link's impulse response, noise is added at the
  /// configured floor, and the receiver's least-squares channel estimate
  /// is returned — exactly how the paper's Intel 5300 produces CSI.
  /// Pass nullptr for the deterministic chain (no fading, no noise),
  /// directly comparable to MeanResponse().
  common::Result<dsp::CsiFrame> MeasurePhyCsi(common::Rng* rng) const;

 private:
  /// Builds a frame from explicit per-path complex gains (empty = unit
  /// gains) for the given antenna index, adding AWGN from `noise`: two
  /// standard normals per subcarrier (re, im), or none for a noise-free
  /// frame.
  dsp::CsiFrame Synthesize(std::span<const dsp::Cplx> gains,
                           std::span<const double> noise,
                           int antenna = 0) const;
  /// One packet on `antenna` from one block of Gaussian draws, in the
  /// order the golden tests pin: two per path (the diffuse fading), then
  /// two per subcarrier (the noise).  With `diffuse` empty the fading is
  /// i.i.d.; otherwise `diffuse` is the antenna's AR(1) state per path,
  /// which the `first` packet's draws seed and later packets' draws drive.
  dsp::CsiFrame SamplePacket(common::Rng& rng, int antenna,
                             std::span<dsp::Cplx> diffuse, bool first) const;
  /// Draws one i.i.d. Rician/Rayleigh gain per path.
  std::vector<dsp::Cplx> DrawGains(common::Rng& rng) const;

  std::vector<PropagationPath> paths_;
  ChannelConfig config_;
  std::vector<int> subcarriers_;
  std::vector<double> amp_;        ///< Linear per-path amplitude [sqrt(mW)].
  std::vector<double> delay_s_;
  /// Rician fading per path with factor K (K = 0 is Rayleigh): the gain is
  /// los_amp_ = sqrt(K/(K+1)) plus a complex Gaussian of variance 1/(K+1),
  /// drawn with per-component standard deviation diffuse_sigma_ =
  /// sqrt((1/(K+1))/2).  Both are fixed per link, so packets only draw.
  std::vector<double> los_amp_;
  std::vector<double> diffuse_sigma_;
  /// AR(1) innovation weight sqrt(1 - rho^2) of fading_correlation rho;
  /// only batches read it, and they reject rho outside [0, 1).
  double innovation_ = 1.0;
  /// Tables that depend on the link but not on the packet, built lazily on
  /// the first synthesized packet (links that are traced but never sampled
  /// skip the trigonometry) and shared across copies; afterwards packet
  /// synthesis runs trigonometry-free through simd::CplxAxpy.
  struct ToneTable {
    std::once_flag once;
    /// Per-path per-subcarrier delay phasors e^{-j 2π f_k τ_p},
    /// split-complex with stride subcarriers_.size().
    std::vector<double> re;
    std::vector<double> im;
    /// Per-antenna per-path carrier phasors e^{j φ_{m,p}} with
    /// φ_{m,p} = -2π f_c τ_p + 2π d m cos(aoa_p), indexed
    /// [antenna * paths + path].
    std::vector<dsp::Cplx> carrier;
  };
  const ToneTable& Tones() const;
  std::shared_ptr<ToneTable> tones_;
  double noise_variance_mw_ = 0.0;
  /// Per-component standard deviation of the AWGN, sqrt(noise_variance/2).
  double noise_sigma_ = 0.0;
};

/// Factory for LinkModels over one environment.
class CsiSimulator {
 public:
  /// The environment must outlive the simulator.
  CsiSimulator(const IndoorEnvironment& env, ChannelConfig config)
      : env_(&env), config_(std::move(config)) {}

  const ChannelConfig& Config() const noexcept { return config_; }
  const IndoorEnvironment& Environment() const noexcept { return *env_; }

  /// Traces paths and builds the per-link sampler.
  LinkModel MakeLink(geometry::Vec2 tx, geometry::Vec2 rx) const;

  /// Convenience: one packet on a throwaway link.
  dsp::CsiFrame SampleOne(geometry::Vec2 tx, geometry::Vec2 rx,
                          common::Rng& rng) const;

 private:
  const IndoorEnvironment* env_;
  ChannelConfig config_;
};

}  // namespace nomloc::channel

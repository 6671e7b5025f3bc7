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
#include <span>
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

/// A link's phasor tables: they depend on its traced paths and on the
/// tone-relevant ChannelConfig fields (bandwidth, FFT size, grouping,
/// carrier, antennas, spacing) but not on the packet.  Filled on the
/// first synthesized packet, so links that are traced but never sampled
/// skip the trigonometry; afterwards packet synthesis is trigonometry-free.
/// CsiSimulator::MakeLink shares one table among every link over the same
/// traced paths and tone configuration (PropagationCache::Tones), so a
/// link rebuilt fix after fix fills it once; copies of a LinkModel share
/// its table too.  Each fill counts one channel.tones.built.
struct ToneTable {
  std::once_flag once;
  /// Per-path per-subcarrier delay phasors e^{-j 2π f_k τ_p},
  /// split-complex, one row of subcarriers per path.
  std::vector<double> re;
  std::vector<double> im;
  /// Per-antenna per-path carrier phasors e^{j φ_{m,p}} with
  /// φ_{m,p} = -2π f_c τ_p + 2π d m cos(aoa_p), indexed
  /// [antenna * paths + path].
  std::vector<dsp::Cplx> carrier;
};

/// A fixed TX–RX link: traced paths plus precomputed per-path baseband
/// parameters.  Sampling a packet re-draws fading and noise only, so
/// batches of thousands of packets (the paper's PING flood) are cheap.
class LinkModel {
 public:
  /// A link with its own tone table.
  LinkModel(std::vector<PropagationPath> paths, const ChannelConfig& config);

  /// CSI for one received packet (antenna 0 when rx_antennas > 1).
  dsp::CsiFrame Sample(common::Rng& rng) const;

  /// CSI for `count` packets (count >= 1), antenna 0: SampleBlock's
  /// values, one frame per packet.
  std::vector<dsp::CsiFrame> SampleBatch(std::size_t count,
                                         common::Rng& rng) const;

  /// The CSI values of `count` packets (count >= 1) on antenna 0,
  /// packet-major in `block` (resized to count * Subcarriers().size()),
  /// with no frame per packet: what dsp::PdpOfBlock reads.  One
  /// channel.synthesize span; a reused block allocates nothing.
  void SampleBlock(std::size_t count, common::Rng& rng,
                   std::vector<dsp::Cplx>& block) const;

  /// The subcarrier indices of every frame and block row of this link.
  std::span<const int> Subcarriers() const noexcept { return subcarriers_; }

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
  friend class CsiSimulator;
  /// A link on the tone table `tones` (null: the caller sets tones_).
  LinkModel(std::vector<PropagationPath> paths, const ChannelConfig& config,
            std::shared_ptr<ToneTable> tones);

  /// Writes one packet's CSI values into `out` (one per subcarrier) from
  /// explicit per-path complex gains (empty = unit gains) for the given
  /// antenna, adding AWGN from `noise`: two standard normals per
  /// subcarrier (re, im), or none for a noise-free packet.  The path sum
  /// is one simd::CplxAxpy call over the tone table.
  void Synthesize(std::span<const dsp::Cplx> gains,
                  std::span<const double> noise, int antenna,
                  std::span<dsp::Cplx> out) const;
  /// One packet on `antenna` into `out`, from one block of Gaussian draws,
  /// in the order the golden tests pin: two per path (the diffuse fading),
  /// then two per subcarrier (the noise).  With `diffuse` empty the fading
  /// is i.i.d.; otherwise `diffuse` is the antenna's AR(1) state per path,
  /// which the `first` packet's draws seed and later packets' draws drive.
  void SamplePacket(common::Rng& rng, int antenna,
                    std::span<dsp::Cplx> diffuse, bool first,
                    std::span<dsp::Cplx> out) const;
  /// SamplePacket as a frame.
  dsp::CsiFrame SampleFrame(common::Rng& rng, int antenna,
                            std::span<dsp::Cplx> diffuse, bool first) const;
  /// A frame on this link's grid.
  dsp::CsiFrame MakeFrame(std::vector<dsp::Cplx> values) const;
  /// Draws one i.i.d. Rician/Rayleigh gain per path.
  std::vector<dsp::Cplx> DrawGains(common::Rng& rng) const;
  /// The table, filled on first use.
  const ToneTable& Tones() const;
  /// Bytes this link's tone table holds once filled.
  std::size_t ToneBytes() const noexcept;

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

  /// Traces paths (memoized) and builds the per-link sampler on the tone
  /// table shared by every link over those paths and this tone
  /// configuration (PropagationCache::Tones).
  LinkModel MakeLink(geometry::Vec2 tx, geometry::Vec2 rx) const;

  /// Convenience: one packet on a throwaway link.
  dsp::CsiFrame SampleOne(geometry::Vec2 tx, geometry::Vec2 rx,
                          common::Rng& rng) const;

 private:
  const IndoorEnvironment* env_;
  ChannelConfig config_;
};

}  // namespace nomloc::channel

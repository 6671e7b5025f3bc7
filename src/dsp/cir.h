// Channel impulse response and power-of-direct-path (PDP) extraction.
//
// Paper §IV-A: frequency-domain CSI is IFFT'd into the time-domain channel
// impulse response; the *power of the direct path* is approximated by the
// maximum tap of the power-delay profile, which is robust to NLOS (the
// attenuated first tap is simply no longer the maximum) and filters
// multipath (all other reflections are ignored).
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "dsp/csi.h"

namespace nomloc::dsp {

/// Time-domain taps obtained from one CSI frame.
struct ChannelImpulseResponse {
  std::vector<Cplx> taps;   ///< h[n], n = 0..fft_size-1.
  double tap_spacing_s = 0; ///< Delay resolution, 1/bandwidth (50 ns @20 MHz).

  /// |h[n]|^2 series (the power-delay profile).
  std::vector<double> PowerProfile() const;
  /// Delay of tap n in seconds.
  double DelayOf(std::size_t n) const noexcept {
    return double(n) * tap_spacing_s;
  }
};

/// IFFT of the frame placed on its full FFT grid.  `bandwidth_hz` sets the
/// tap spacing (fft_size bins span exactly the channel bandwidth).
ChannelImpulseResponse CsiToCir(const CsiFrame& frame, double bandwidth_hz);

/// CsiToCir into a caller-owned CIR: `out.taps` is reused as the FFT grid
/// and transformed in place (plan-cached, see dsp/fft_plan.h), so batch
/// extraction performs zero per-frame allocations in steady state.
/// Bit-identical to the allocating overload.
void CsiToCir(const CsiFrame& frame, double bandwidth_hz,
              ChannelImpulseResponse& out);

/// How PdpEstimate picks the direct-path power from a power profile.
enum class PdpMethod {
  kMaxTap,     ///< Paper's choice: max |h[n]|^2.
  kFirstPath,  ///< First tap within `first_path_threshold_db` of the max.
  kTotalPower, ///< Sum over all taps (RSS-like; ablation baseline).
};

struct PdpOptions {
  PdpMethod method = PdpMethod::kMaxTap;
  /// kFirstPath: a tap counts as the first path when its power is within
  /// this many dB below the profile maximum.
  double first_path_threshold_db = 10.0;
};

/// Direct-path power of one CIR according to `options`.  Requires
/// non-empty taps.
double PdpOfCir(const ChannelImpulseResponse& cir, const PdpOptions& options);

/// The PDP pick applied directly to a |h[n]|^2 power profile (what
/// PdpOfCir computes after squaring the taps).  Requires a non-empty
/// profile.  Exposed so batch loops can reuse one profile buffer.
double PdpOfProfile(std::span<const double> profile,
                    const PdpOptions& options);

/// Averages the PDP over a batch of CSI frames (one per received packet).
/// Frames are converted to CIRs individually so per-packet noise and
/// fading average out, mirroring the paper's thousands-of-PINGs procedure.
/// Requires a non-empty batch.
double PdpOfBatch(std::span<const CsiFrame> frames, double bandwidth_hz,
                  const PdpOptions& options = {});

/// PdpOfBatch without frames: the mean PDP of a block of SISO packets
/// stored packet-major, packet p's CSI values at
/// block[p * indices.size() ...], all on the subcarriers `indices` of one
/// fft_size grid (CsiFrame's index rules).  Bit-identical to PdpOfBatch
/// over the frames those values would make, and counted the same way (one
/// dsp.pdp.batches{mode=siso}, one dsp.pdp.frames per packet, one
/// dsp.pdp.extract span), with one FFT-plan lookup per block.  Requires a
/// non-empty block of whole packets.
double PdpOfBlock(std::span<const Cplx> block, std::span<const int> indices,
                  int fft_size, double bandwidth_hz,
                  const PdpOptions& options = {});

/// PdpOfBatch with input hardening for untrusted capture data: a batch
/// whose CSI values contain NaN/Inf, or whose frames are entirely zero
/// (no channel energy — the PDP would be 0 and the pairwise ratio
/// w_ij = f(P_i/P_j) downstream would divide by it), yields a typed
/// kDataCorruption error instead of propagating NaN into the judgement
/// weights.  Every rejected batch increments the `pdp.rejected_links`
/// counter.  Bit-identical to PdpOfBatch on healthy input.
common::Result<double> PdpOfBatchChecked(std::span<const CsiFrame> frames,
                                         double bandwidth_hz,
                                         const PdpOptions& options = {});

/// Multi-antenna PDP with non-coherent combining: per packet, the
/// antennas' power-delay profiles are summed tap-by-tap before the pick
/// (so a fade on one antenna is covered by the others), then averaged
/// across packets.  Each element of `packets` is one packet's frames, one
/// per antenna; all packets must have the same non-zero antenna count and
/// identical grids.
double PdpOfMimoBatch(std::span<const std::vector<CsiFrame>> packets,
                      double bandwidth_hz, const PdpOptions& options = {});

}  // namespace nomloc::dsp

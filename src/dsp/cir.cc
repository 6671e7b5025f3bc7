#include "dsp/cir.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/assert.h"
#include "common/metrics.h"
#include "common/units.h"
#include "dsp/fft.h"
#include "dsp/fft_plan.h"
#include "simd/kernels.h"

namespace nomloc::dsp {

namespace {

// Fused tap->PDP extraction: max-tap and total-power reduce straight over
// the complex taps (simd::MaxNorm / simd::SumNorm), skipping the profile
// materialization entirely.  First-path needs the full profile for the
// threshold scan, so it keeps the two-step shape.  Values are identical to
// PowerSpectrum + PdpOfProfile: the reductions visit the same per-tap
// norms in the same order.
double PdpOfTaps(std::span<const Cplx> taps, const PdpOptions& options,
                 std::vector<double>& profile) {
  NOMLOC_REQUIRE(!taps.empty());
  switch (options.method) {
    case PdpMethod::kMaxTap:
      return simd::MaxNorm(taps.size(), taps.data());
    case PdpMethod::kTotalPower:
      return simd::SumNorm(taps.size(), taps.data());
    case PdpMethod::kFirstPath:
      PowerSpectrum(taps, profile);
      return PdpOfProfile(profile, options);
  }
  NOMLOC_ASSERT(false);
  return 0.0;
}

// One SISO packet's PDP: its tones placed on the plan's grid as
// CsiFrame::ToFftGrid places them, one inverse transform, then the pick.
// CsiToCir + PdpOfTaps, bit for bit.
double PacketPdp(const FftPlan& plan, std::span<const int> indices,
                 const Cplx* values, const PdpOptions& options,
                 std::vector<Cplx>& grid, std::vector<double>& profile) {
  const int n = int(plan.Size());
  grid.assign(plan.Size(), Cplx(0.0, 0.0));
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const int k = indices[i];
    grid[std::size_t(k >= 0 ? k : n + k)] = values[i];
  }
  plan.Inverse(grid);
  return PdpOfTaps(grid, options, profile);
}

// Counts one SISO batch of `frames` packets and returns the timer of its
// extraction span.
common::MetricTimer& CountSisoBatch(std::size_t frames) {
  auto& registry = common::MetricRegistry::Global();
  static auto& batches = registry.Counter("dsp.pdp.batches", "mode=siso");
  static auto& frame_count = registry.Counter("dsp.pdp.frames");
  static auto& extract_timer = registry.Timer("dsp.pdp.extract");
  batches.Increment();
  frame_count.Increment(frames);
  return extract_timer;
}

}  // namespace

std::vector<double> ChannelImpulseResponse::PowerProfile() const {
  return PowerSpectrum(taps);
}

ChannelImpulseResponse CsiToCir(const CsiFrame& frame, double bandwidth_hz) {
  ChannelImpulseResponse cir;
  CsiToCir(frame, bandwidth_hz, cir);
  return cir;
}

void CsiToCir(const CsiFrame& frame, double bandwidth_hz,
              ChannelImpulseResponse& out) {
  NOMLOC_REQUIRE(bandwidth_hz > 0.0);
  frame.ToFftGrid(out.taps);
  IfftInPlace(std::span<Cplx>(out.taps));
  out.tap_spacing_s = 1.0 / bandwidth_hz;
}

double PdpOfCir(const ChannelImpulseResponse& cir, const PdpOptions& options) {
  NOMLOC_REQUIRE(!cir.taps.empty());
  std::vector<double> profile;
  return PdpOfTaps(cir.taps, options, profile);
}

double PdpOfProfile(std::span<const double> profile,
                    const PdpOptions& options) {
  NOMLOC_REQUIRE(!profile.empty());
  switch (options.method) {
    case PdpMethod::kMaxTap:
      return *std::max_element(profile.begin(), profile.end());
    case PdpMethod::kFirstPath: {
      const double peak = *std::max_element(profile.begin(), profile.end());
      const double floor =
          peak * common::FromDb(-options.first_path_threshold_db);
      for (double p : profile)
        if (p >= floor) return p;
      return peak;  // Unreachable unless profile is all zero.
    }
    case PdpMethod::kTotalPower: {
      double sum = 0.0;
      for (double p : profile) sum += p;
      return sum;
    }
  }
  NOMLOC_ASSERT(false);
  return 0.0;
}

double PdpOfBatch(std::span<const CsiFrame> frames, double bandwidth_hz,
                  const PdpOptions& options) {
  NOMLOC_REQUIRE(!frames.empty());
  NOMLOC_REQUIRE(bandwidth_hz > 0.0);
  common::StageTrace trace(CountSisoBatch(frames.size()));
  // Grid and profile buffers are shared across the whole batch, and the
  // plan is looked up again only when a frame's grid size changes.
  std::shared_ptr<const FftPlan> plan;
  std::vector<Cplx> grid;
  std::vector<double> profile;
  double acc = 0.0;
  for (const CsiFrame& frame : frames) {
    const std::size_t n = std::size_t(frame.FftSize());
    if (!plan || plan->Size() != n) plan = FftPlanCache::Global().Plan(n);
    acc += PacketPdp(*plan, frame.Indices(), frame.Values().data(), options,
                     grid, profile);
  }
  return acc / double(frames.size());
}

double PdpOfBlock(std::span<const Cplx> block, std::span<const int> indices,
                  int fft_size, double bandwidth_hz,
                  const PdpOptions& options) {
  const std::size_t tones = indices.size();
  NOMLOC_REQUIRE(tones > 0 && !block.empty() && block.size() % tones == 0);
  NOMLOC_REQUIRE(bandwidth_hz > 0.0);
  // CsiFrame::Create's range rule, checked once for the whole block.
  for (const int k : indices)
    NOMLOC_REQUIRE(k != 0 && k >= -fft_size / 2 && k < fft_size / 2);
  const std::size_t packets = block.size() / tones;
  common::StageTrace trace(CountSisoBatch(packets));
  const std::shared_ptr<const FftPlan> plan =
      FftPlanCache::Global().Plan(std::size_t(fft_size));
  std::vector<Cplx> grid;
  std::vector<double> profile;
  double acc = 0.0;
  for (std::size_t p = 0; p < packets; ++p) {
    acc += PacketPdp(*plan, indices, block.data() + p * tones, options, grid,
                     profile);
  }
  return acc / double(packets);
}

common::Result<double> PdpOfBatchChecked(std::span<const CsiFrame> frames,
                                         double bandwidth_hz,
                                         const PdpOptions& options) {
  auto& registry = common::MetricRegistry::Global();
  static auto& rejected = registry.Counter("pdp.rejected_links");
  if (frames.empty()) return common::InvalidArgument("empty CSI batch");
  if (bandwidth_hz <= 0.0)
    return common::InvalidArgument("bandwidth must be positive");
  for (std::size_t f = 0; f < frames.size(); ++f) {
    bool any_energy = false;
    for (const Cplx& v : frames[f].Values()) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        rejected.Increment();
        return common::DataCorruption("non-finite CSI value in frame " +
                                      std::to_string(f));
      }
      if (v != Cplx{0.0, 0.0}) any_energy = true;
    }
    if (!any_energy) {
      rejected.Increment();
      return common::DataCorruption("all-zero CSI frame " +
                                    std::to_string(f) +
                                    " — PDP would be zero");
    }
  }
  // FFT of finite input is finite, so the batch mean needs no re-check;
  // the all-zero guard above already rules out a zero PDP for kMaxTap and
  // kTotalPower (some tap carries the frame's energy).
  return PdpOfBatch(frames, bandwidth_hz, options);
}

double PdpOfMimoBatch(std::span<const std::vector<CsiFrame>> packets,
                      double bandwidth_hz, const PdpOptions& options) {
  NOMLOC_REQUIRE(!packets.empty());
  const std::size_t antennas = packets.front().size();
  NOMLOC_REQUIRE(antennas >= 1);
  auto& registry = common::MetricRegistry::Global();
  static auto& batches = registry.Counter("dsp.pdp.batches", "mode=mimo");
  static auto& frame_count = registry.Counter("dsp.pdp.frames");
  static auto& extract_timer = registry.Timer("dsp.pdp.extract");
  common::StageTrace trace(extract_timer);
  batches.Increment();
  frame_count.Increment(packets.size() * antennas);
  // All buffers shared across packets and antennas.
  ChannelImpulseResponse cir;
  std::vector<double> profile, scratch;
  double acc = 0.0;
  for (const std::vector<CsiFrame>& packet : packets) {
    NOMLOC_REQUIRE(packet.size() == antennas);
    if (antennas == 1) {
      CsiToCir(packet.front(), bandwidth_hz, cir);
      acc += PdpOfTaps(cir.taps, options, scratch);
      continue;
    }
    // Sum the antennas' power profiles tap-by-tap (non-coherent MRC),
    // then run the picker on the combined profile.  The accumulation is
    // fused into the spectrum kernel (no per-antenna scratch profile).
    CsiToCir(packet.front(), bandwidth_hz, cir);
    PowerSpectrum(cir.taps, profile);
    for (std::size_t a = 1; a < antennas; ++a) {
      CsiToCir(packet[a], bandwidth_hz, cir);
      NOMLOC_REQUIRE(cir.taps.size() == profile.size());
      simd::PowerSpectrumAdd(cir.taps.size(), cir.taps.data(),
                             profile.data());
    }
    acc += PdpOfProfile(profile, options) / double(antennas);
  }
  return acc / double(packets.size());
}

}  // namespace nomloc::dsp

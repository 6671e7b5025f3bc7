#include "dsp/cir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>

#include "common/metrics.h"
#include "common/units.h"

namespace nomloc::dsp {
namespace {

// Synthesizes the frequency response of a multipath channel
//   H(f_k) = sum_p a_p e^{-j 2 pi f_k tau_p}
// on the HT20 grid — the exact signal model the CIR path must invert.
CsiFrame SyntheticChannel(std::span<const double> amps,
                          std::span<const double> delays_s,
                          double bandwidth_hz = common::kBandwidth20MHz) {
  const auto idx = CsiFrame::Ht20Indices();
  const double df = bandwidth_hz / common::kOfdmFftSize;
  std::vector<Cplx> vals(idx.size(), Cplx(0.0, 0.0));
  for (std::size_t p = 0; p < amps.size(); ++p) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const double ang =
          -2.0 * std::numbers::pi * double(idx[i]) * df * delays_s[p];
      vals[i] += amps[p] * Cplx(std::cos(ang), std::sin(ang));
    }
  }
  auto frame = CsiFrame::Create(idx, vals);
  return std::move(frame).value();
}

TEST(CsiToCir, TapSpacingIsInverseBandwidth) {
  const double amps[] = {1.0};
  const double delays[] = {0.0};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  EXPECT_EQ(cir.taps.size(), 64u);
  EXPECT_DOUBLE_EQ(cir.tap_spacing_s, 50e-9);
  EXPECT_DOUBLE_EQ(cir.DelayOf(3), 150e-9);
}

TEST(CsiToCir, ZeroDelayPathPeaksAtTapZero) {
  const double amps[] = {1.0};
  const double delays[] = {0.0};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const auto profile = cir.PowerProfile();
  const auto peak =
      std::max_element(profile.begin(), profile.end()) - profile.begin();
  EXPECT_EQ(peak, 0);
}

TEST(CsiToCir, DelayedPathPeaksAtMatchingTap) {
  // A path delayed by exactly 4 taps (200 ns at 20 MHz).
  const double amps[] = {1.0};
  const double delays[] = {200e-9};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const auto profile = cir.PowerProfile();
  const auto peak =
      std::max_element(profile.begin(), profile.end()) - profile.begin();
  EXPECT_EQ(peak, 4);
}

TEST(CsiToCir, TwoPathsProduceTwoPeaks) {
  const double amps[] = {1.0, 0.6};
  const double delays[] = {0.0, 500e-9};  // Taps 0 and 10.
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const auto profile = cir.PowerProfile();
  // Tap 0 and tap 10 dominate their neighbourhoods.
  EXPECT_GT(profile[0], profile[2]);
  EXPECT_GT(profile[10], profile[8]);
  EXPECT_GT(profile[10], profile[12]);
  EXPECT_GT(profile[0], profile[10]);  // Stronger path stronger tap.
}

TEST(CsiToCir, InvalidBandwidthThrows) {
  const double amps[] = {1.0};
  const double delays[] = {0.0};
  const auto frame = SyntheticChannel(amps, delays);
  EXPECT_THROW(CsiToCir(frame, 0.0), std::logic_error);
}

TEST(PdpMaxTap, PicksStrongestPath) {
  const double amps[] = {0.4, 1.0};  // Second (delayed) path dominates.
  const double delays[] = {0.0, 300e-9};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const double pdp = PdpOfCir(cir, {.method = PdpMethod::kMaxTap});
  const auto profile = cir.PowerProfile();
  EXPECT_DOUBLE_EQ(pdp, *std::max_element(profile.begin(), profile.end()));
}

TEST(PdpMaxTap, MonotoneInPathAmplitude) {
  const double delays[] = {0.0};
  double prev = 0.0;
  for (double a : {0.2, 0.5, 1.0, 2.0}) {
    const double amps[] = {a};
    const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                              common::kBandwidth20MHz);
    const double pdp = PdpOfCir(cir, {});
    EXPECT_GT(pdp, prev);
    prev = pdp;
  }
}

TEST(PdpFirstPath, FindsAttenuatedFirstArrival) {
  // First path is 6 dB below the strongest — still within a 10 dB window.
  const double amps[] = {0.5, 1.0};
  const double delays[] = {0.0, 400e-9};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const double first = PdpOfCir(
      cir, {.method = PdpMethod::kFirstPath, .first_path_threshold_db = 10.0});
  const double max_tap = PdpOfCir(cir, {.method = PdpMethod::kMaxTap});
  EXPECT_LT(first, max_tap);
  EXPECT_NEAR(first, cir.PowerProfile()[0], first * 0.2);
}

TEST(PdpFirstPath, NarrowThresholdSkipsWeakFirstTap) {
  // First path 20 dB down: a 10 dB window must skip it.
  const double amps[] = {0.1, 1.0};
  const double delays[] = {0.0, 400e-9};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const double first = PdpOfCir(
      cir, {.method = PdpMethod::kFirstPath, .first_path_threshold_db = 10.0});
  const double max_tap = PdpOfCir(cir, {.method = PdpMethod::kMaxTap});
  EXPECT_NEAR(first, max_tap, max_tap * 0.3);
}

TEST(PdpTotalPower, SumsAllTaps) {
  const double amps[] = {1.0, 1.0};
  const double delays[] = {0.0, 500e-9};
  const auto cir = CsiToCir(SyntheticChannel(amps, delays),
                            common::kBandwidth20MHz);
  const double total = PdpOfCir(cir, {.method = PdpMethod::kTotalPower});
  const double max_tap = PdpOfCir(cir, {.method = PdpMethod::kMaxTap});
  EXPECT_GT(total, max_tap);
}

TEST(PdpOfCir, EmptyCirThrows) {
  ChannelImpulseResponse cir;
  EXPECT_THROW(PdpOfCir(cir, {}), std::logic_error);
}

TEST(PdpOfBatch, AveragesFrames) {
  const double delays[] = {0.0};
  const double a1[] = {1.0};
  const double a2[] = {3.0};
  const std::vector<CsiFrame> frames{SyntheticChannel(a1, delays),
                                     SyntheticChannel(a2, delays)};
  const double avg = PdpOfBatch(frames, common::kBandwidth20MHz);
  const double p1 = PdpOfCir(CsiToCir(frames[0], common::kBandwidth20MHz), {});
  const double p2 = PdpOfCir(CsiToCir(frames[1], common::kBandwidth20MHz), {});
  EXPECT_NEAR(avg, (p1 + p2) / 2.0, 1e-9);
}

TEST(PdpOfBatch, EmptyBatchThrows) {
  EXPECT_THROW(PdpOfBatch({}, common::kBandwidth20MHz), std::logic_error);
}

// The frames' values laid end to end: PdpOfBatch's bits for every pick,
// and the same batch, frame and span counts.
TEST(PdpOfBlock, MatchesPdpOfBatchAndCountsTheSame) {
  const double delays[] = {0.0, 150e-9, 400e-9};
  const double a1[] = {1.0, 0.5, 0.2};
  const double a2[] = {0.3, 0.9, 0.1};
  const double a3[] = {2.0, 0.05, 0.6};
  const std::vector<CsiFrame> frames{SyntheticChannel(a1, delays),
                                     SyntheticChannel(a2, delays),
                                     SyntheticChannel(a3, delays)};
  std::vector<Cplx> block;
  for (const CsiFrame& frame : frames)
    block.insert(block.end(), frame.Values().begin(), frame.Values().end());
  auto& registry = common::MetricRegistry::Global();
  const auto& batches = registry.Counter("dsp.pdp.batches", "mode=siso");
  const auto& frame_count = registry.Counter("dsp.pdp.frames");
  const auto& spans = registry.Timer("dsp.pdp.extract");
  for (const PdpMethod method :
       {PdpMethod::kMaxTap, PdpMethod::kTotalPower, PdpMethod::kFirstPath}) {
    PdpOptions options;
    options.method = method;
    const std::uint64_t b0 = batches.Value(), f0 = frame_count.Value();
    const std::uint64_t s0 = spans.Count();
    const double want = PdpOfBatch(frames, common::kBandwidth20MHz, options);
    const std::uint64_t b1 = batches.Value(), f1 = frame_count.Value();
    const std::uint64_t s1 = spans.Count();
    const double got = PdpOfBlock(block, frames[0].Indices(),
                                  common::kOfdmFftSize,
                                  common::kBandwidth20MHz, options);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
    EXPECT_EQ(b1 - b0, 1u);
    EXPECT_EQ(f1 - f0, frames.size());
    EXPECT_EQ(s1 - s0, 1u);
    EXPECT_EQ(batches.Value() - b1, b1 - b0);
    EXPECT_EQ(frame_count.Value() - f1, f1 - f0);
    EXPECT_EQ(spans.Count() - s1, s1 - s0);
  }
}

TEST(PdpOfBlock, RejectsMalformedBlocks) {
  const std::vector<int> idx = CsiFrame::Ht20Indices();
  const std::vector<Cplx> block(2 * idx.size(), Cplx(1.0, 0.0));
  const double bw = common::kBandwidth20MHz;
  EXPECT_THROW(PdpOfBlock({}, idx, 64, bw), std::logic_error);
  EXPECT_THROW(PdpOfBlock(std::span<const Cplx>(block).first(idx.size() + 1),
                          idx, 64, bw),
               std::logic_error);
  EXPECT_THROW(PdpOfBlock(block, {}, 64, bw), std::logic_error);
  EXPECT_THROW(PdpOfBlock(block, idx, 32, bw), std::logic_error);  // k = 28.
  EXPECT_THROW(PdpOfBlock(block, idx, 64, 0.0), std::logic_error);
  std::vector<int> dc = idx;
  dc[0] = 0;
  EXPECT_THROW(PdpOfBlock(block, dc, 64, bw), std::logic_error);
  EXPECT_GT(PdpOfBlock(block, idx, 64, bw), 0.0);
}

// The paper's Fig. 3 dichotomy in miniature: attenuating the first path
// (NLOS) lowers the max-tap PDP even though later multipath is unchanged.
TEST(PdpDichotomy, NlosAttenuationLowersPdp) {
  const double delays[] = {50e-9, 350e-9, 600e-9};
  const double los_amps[] = {1.0, 0.3, 0.2};
  const double nlos_amps[] = {0.15, 0.3, 0.2};  // LOS component blocked.
  const double pdp_los = PdpOfCir(
      CsiToCir(SyntheticChannel(los_amps, delays), common::kBandwidth20MHz),
      {});
  const double pdp_nlos = PdpOfCir(
      CsiToCir(SyntheticChannel(nlos_amps, delays), common::kBandwidth20MHz),
      {});
  EXPECT_GT(pdp_los, 2.0 * pdp_nlos);
}

// --- PdpOfBatchChecked: the typed ingest guard -------------------------

CsiFrame FrameWithValues(std::vector<Cplx> values) {
  auto frame = CsiFrame::Create(CsiFrame::Ht20Indices(), std::move(values));
  return std::move(frame).value();
}

TEST(PdpOfBatchChecked, HealthyBatchBitIdenticalToUnchecked) {
  const double a1[] = {1.0};
  const double a2[] = {0.5};
  const double delays[] = {100e-9};
  const std::vector<CsiFrame> frames{SyntheticChannel(a1, delays),
                                     SyntheticChannel(a2, delays)};
  auto checked = PdpOfBatchChecked(frames, common::kBandwidth20MHz);
  ASSERT_TRUE(checked.ok());
  const double unchecked = PdpOfBatch(frames, common::kBandwidth20MHz);
  EXPECT_EQ(*checked, unchecked);  // bit-identical, not just close
}

TEST(PdpOfBatchChecked, TypedErrorsOnEmptyAndBadBandwidth) {
  const double amps[] = {1.0};
  const double delays[] = {0.0};
  const std::vector<CsiFrame> frames{SyntheticChannel(amps, delays)};
  auto empty = PdpOfBatchChecked({}, common::kBandwidth20MHz);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), common::StatusCode::kInvalidArgument);
  auto bad_bw = PdpOfBatchChecked(frames, 0.0);
  ASSERT_FALSE(bad_bw.ok());
  EXPECT_EQ(bad_bw.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(PdpOfBatchChecked, RejectsNonFiniteTapsAndCountsThem) {
  auto& rejected =
      common::MetricRegistry::Global().Counter("pdp.rejected_links");
  const std::size_t n = CsiFrame::Ht20Indices().size();

  std::vector<Cplx> nan_values(n, Cplx(1.0, 0.0));
  nan_values[7] = Cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  std::vector<Cplx> inf_values(n, Cplx(1.0, 0.0));
  inf_values[3] = Cplx(0.0, std::numeric_limits<double>::infinity());

  const std::uint64_t before = rejected.Value();
  for (auto& values : {nan_values, inf_values}) {
    const std::vector<CsiFrame> frames{FrameWithValues(values)};
    auto pdp = PdpOfBatchChecked(frames, common::kBandwidth20MHz);
    ASSERT_FALSE(pdp.ok());
    EXPECT_EQ(pdp.status().code(), common::StatusCode::kDataCorruption);
  }
  EXPECT_EQ(rejected.Value(), before + 2);
}

TEST(PdpOfBatchChecked, RejectsAllZeroFrame) {
  const std::size_t n = CsiFrame::Ht20Indices().size();
  const double amps[] = {1.0};
  const double delays[] = {0.0};
  // A healthy frame first: the guard must name the offending frame, not
  // just the batch.
  const std::vector<CsiFrame> frames{
      SyntheticChannel(amps, delays),
      FrameWithValues(std::vector<Cplx>(n, Cplx(0.0, 0.0)))};
  auto pdp = PdpOfBatchChecked(frames, common::kBandwidth20MHz);
  ASSERT_FALSE(pdp.ok());
  EXPECT_EQ(pdp.status().code(), common::StatusCode::kDataCorruption);
  EXPECT_NE(pdp.status().message().find("frame 1"), std::string::npos)
      << pdp.status().ToString();
}

}  // namespace
}  // namespace nomloc::dsp

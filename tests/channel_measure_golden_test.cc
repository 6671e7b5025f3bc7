// The measurement layer must keep every output bit.
//
// The arrays in channel_measure_goldens.inc are raw IEEE-754 bit patterns
// captured with SIMD dispatch forced to the scalar table.  Per anchor that
// eval::MeasureEpoch returns: the reported position's x and y, then the
// PDP.  One pass over the lab's 10 test sites on one seeded stream is
// pinned for three channel configurations:
//   * the default (i.i.d. fading, one receive antenna);
//   * fading_correlation = 0.9, which takes the AR(1) branch of
//     LinkModel::SampleBatch;
//   * rx_antennas = 3, which uses the per-antenna carrier phasors and
//     dsp::PdpOfMimoBatch.
// One link's deterministic MeanResponse() is pinned too (re, im per tone).
// A change to channel synthesis, the RNG draw order or PDP extraction that
// moves any of these bits changes every accuracy figure; it must not pass
// silently.
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "channel/csi_model.h"
#include "common/rng.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "gtest/gtest.h"
#include "simd/dispatch.h"

namespace nomloc {
namespace {

#include "channel_measure_goldens.inc"

class ChannelMeasureGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override { simd::ForceTarget(simd::Target::kScalar); }
  void TearDown() override { simd::ForceTarget(simd::ResolveTarget()); }
};

void ExpectBits(std::span<const std::uint64_t> got,
                std::span<const std::uint64_t> want, std::size_t per_item) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i])
        << "item " << i / per_item << " field " << i % per_item;
}

// Three values per anchor: reported x, reported y, PDP.
std::vector<std::uint64_t> MeasureLab(const channel::ChannelConfig& channel) {
  const eval::Scenario lab = eval::LabScenario();
  eval::RunConfig config;
  config.packets_per_batch = 10;
  config.channel = channel;
  common::Rng rng(0x3ea5);
  std::vector<std::uint64_t> got;
  for (geometry::Vec2 site : lab.test_sites) {
    auto anchors = eval::MeasureEpoch(lab, config, site, rng);
    EXPECT_TRUE(anchors.ok()) << anchors.status().ToString();
    if (!anchors.ok()) continue;
    for (const localization::Anchor& anchor : *anchors) {
      got.push_back(std::bit_cast<std::uint64_t>(anchor.position.x));
      got.push_back(std::bit_cast<std::uint64_t>(anchor.position.y));
      got.push_back(std::bit_cast<std::uint64_t>(anchor.pdp));
    }
  }
  return got;
}

TEST_F(ChannelMeasureGoldenTest, DefaultChannelMatchesGoldenBits) {
  ExpectBits(MeasureLab({}), kGoldenMeasureDefault, 3);
}

TEST_F(ChannelMeasureGoldenTest, CorrelatedFadingMatchesGoldenBits) {
  channel::ChannelConfig channel;
  channel.fading_correlation = 0.9;
  ExpectBits(MeasureLab(channel), kGoldenMeasureCorrelated, 3);
}

TEST_F(ChannelMeasureGoldenTest, ThreeAntennasMatchGoldenBits) {
  channel::ChannelConfig channel;
  channel.rx_antennas = 3;
  ExpectBits(MeasureLab(channel), kGoldenMeasureMimo, 3);
}

TEST_F(ChannelMeasureGoldenTest, MeanResponseMatchesGoldenBits) {
  const eval::Scenario lab = eval::LabScenario();
  const channel::CsiSimulator sim(lab.env, {});
  const channel::LinkModel link =
      sim.MakeLink(lab.test_sites[0], lab.static_aps[2]);
  const dsp::CsiFrame mean = link.MeanResponse();
  ASSERT_EQ(mean.SubcarrierCount(), 30u);
  std::vector<std::uint64_t> got;
  for (const dsp::Cplx v : mean.Values()) {
    got.push_back(std::bit_cast<std::uint64_t>(v.real()));
    got.push_back(std::bit_cast<std::uint64_t>(v.imag()));
  }
  ExpectBits(got, kGoldenMeanResponse, 2);
}

}  // namespace
}  // namespace nomloc

#include "channel/csi_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"
#include "dsp/cir.h"
#include "geometry/polygon.h"

namespace nomloc::channel {
namespace {

using geometry::Polygon;
using geometry::Vec2;

IndoorEnvironment EmptyRoom() {
  auto env = IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 12, 8));
  return std::move(env).value();
}

IndoorEnvironment RoomWithMetalWall() {
  std::vector<Obstacle> obstacles;
  obstacles.push_back(
      {Polygon::Rectangle(5.0, 2.0, 6.0, 6.0), materials::Metal()});
  auto env = IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 12, 8), {},
                                       std::move(obstacles));
  return std::move(env).value();
}

TEST(LinkModel, FrameHasConfiguredGrid) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.intel5300_grouping = true;
  const CsiSimulator sim(env, cfg);
  common::Rng rng(1);
  const auto frame = sim.SampleOne({1, 1}, {10, 6}, rng);
  EXPECT_EQ(frame.SubcarrierCount(), 30u);

  cfg.intel5300_grouping = false;
  const CsiSimulator sim56(env, cfg);
  EXPECT_EQ(sim56.SampleOne({1, 1}, {10, 6}, rng).SubcarrierCount(), 56u);
}

TEST(LinkModel, DeterministicGivenSeed) {
  const IndoorEnvironment env = EmptyRoom();
  const CsiSimulator sim(env, {});
  common::Rng r1(42), r2(42);
  const auto f1 = sim.SampleOne({1, 1}, {10, 6}, r1);
  const auto f2 = sim.SampleOne({1, 1}, {10, 6}, r2);
  for (std::size_t i = 0; i < f1.SubcarrierCount(); ++i)
    EXPECT_EQ(f1.Values()[i], f2.Values()[i]);
}

TEST(LinkModel, MeanResponseIsNoiseFree) {
  const IndoorEnvironment env = EmptyRoom();
  const CsiSimulator sim(env, {});
  const auto link = sim.MakeLink({1, 1}, {10, 6});
  const auto a = link.MeanResponse();
  const auto b = link.MeanResponse();
  for (std::size_t i = 0; i < a.SubcarrierCount(); ++i)
    EXPECT_EQ(a.Values()[i], b.Values()[i]);
}

TEST(LinkModel, SampleBatchSizeAndVariation) {
  const IndoorEnvironment env = EmptyRoom();
  const CsiSimulator sim(env, {});
  const auto link = sim.MakeLink({1, 1}, {10, 6});
  common::Rng rng(7);
  const auto batch = link.SampleBatch(16, rng);
  ASSERT_EQ(batch.size(), 16u);
  // Per-packet fading/noise: frames differ.
  EXPECT_NE(batch[0].Values()[0], batch[1].Values()[0]);
}

TEST(LinkModel, BatchOfZeroThrows) {
  const IndoorEnvironment env = EmptyRoom();
  const CsiSimulator sim(env, {});
  const auto link = sim.MakeLink({1, 1}, {10, 6});
  common::Rng rng(7);
  EXPECT_THROW(link.SampleBatch(0, rng), std::logic_error);
}

double MeanPdp(const CsiSimulator& sim, Vec2 tx, Vec2 rx, std::size_t packets,
               common::Rng& rng) {
  const auto link = sim.MakeLink(tx, rx);
  const auto batch = link.SampleBatch(packets, rng);
  return dsp::PdpOfBatch(batch, sim.Config().bandwidth_hz);
}

TEST(CsiModel, PdpDecreasesWithDistance) {
  const IndoorEnvironment env = EmptyRoom();
  const CsiSimulator sim(env, {});
  common::Rng rng(11);
  const double near = MeanPdp(sim, {1, 4}, {3, 4}, 40, rng);
  const double mid = MeanPdp(sim, {1, 4}, {6, 4}, 40, rng);
  const double far = MeanPdp(sim, {1, 4}, {11, 4}, 40, rng);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
}

TEST(CsiModel, NlosReducesPdpVersusSymmetricLosLink) {
  const IndoorEnvironment env = RoomWithMetalWall();
  const CsiSimulator sim(env, {});
  common::Rng rng(13);
  // Equal-length links: one blocked by the metal slab, one clear.
  const double blocked = MeanPdp(sim, {2.0, 4.0}, {9.0, 4.0}, 40, rng);
  const double clear = MeanPdp(sim, {2.0, 1.0}, {9.0, 1.0}, 40, rng);
  EXPECT_GT(clear, 3.0 * blocked);
}

TEST(CsiModel, CirPeakNearExpectedDelayTap) {
  // 15 m link in a big room: direct delay 50 ns = tap 1 at 20 MHz.
  auto env = IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 40, 40));
  ASSERT_TRUE(env.ok());
  ChannelConfig cfg;
  cfg.propagation.include_scatterers = false;
  cfg.propagation.max_reflection_order = 0;
  const CsiSimulator sim(*env, cfg);
  const auto link = sim.MakeLink({1.0, 20.0}, {16.0, 20.0});
  const auto cir = dsp::CsiToCir(link.MeanResponse(), cfg.bandwidth_hz);
  const auto profile = cir.PowerProfile();
  const auto peak = std::size_t(
      std::max_element(profile.begin(), profile.end()) - profile.begin());
  EXPECT_EQ(peak, 1u);
}

TEST(CsiModel, HigherNoiseFloorRaisesFrameVariance) {
  // Isolate AWGN: a single deterministic path (huge Rician K, no
  // reflections or scatterers) so per-frame variation comes from noise.
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig base;
  base.rician_k_db = 80.0;
  base.propagation.max_reflection_order = 0;
  base.propagation.include_scatterers = false;
  ChannelConfig quiet = base;
  quiet.noise_floor_dbm = -110.0;
  ChannelConfig noisy = base;
  noisy.noise_floor_dbm = -55.0;
  const CsiSimulator sq(env, quiet);
  const CsiSimulator sn(env, noisy);
  common::Rng r1(5), r2(5);

  auto spread = [](const std::vector<dsp::CsiFrame>& frames) {
    // Relative variance of per-frame total power.
    std::vector<double> powers;
    powers.reserve(frames.size());
    for (const auto& f : frames) powers.push_back(f.TotalPower());
    const double m = common::Mean(powers);
    double v = 0.0;
    for (double p : powers) v += (p - m) * (p - m);
    return v / double(powers.size()) / (m * m);
  };

  const auto fq = sq.MakeLink({1, 1}, {11, 7}).SampleBatch(60, r1);
  const auto fn = sn.MakeLink({1, 1}, {11, 7}).SampleBatch(60, r2);
  EXPECT_GT(spread(fn), 10.0 * spread(fq));
}

TEST(CsiModel, RicianKControlsDirectPathStability) {
  // With huge K the direct gain is nearly deterministic; with K = 0 dB it
  // fluctuates.  Compare max-tap PDP variance across packets on a LOS link.
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig stable;
  stable.rician_k_db = 30.0;
  stable.propagation.include_scatterers = false;
  ChannelConfig fading = stable;
  fading.rician_k_db = 0.0;
  common::Rng r1(9), r2(9);
  auto pdp_variance = [&](const ChannelConfig& cfg, common::Rng& rng) {
    const CsiSimulator sim(env, cfg);
    const auto link = sim.MakeLink({1, 1}, {9, 6});
    common::RunningStats stats;
    for (int i = 0; i < 60; ++i) {
      const auto frame = link.Sample(rng);
      stats.Add(dsp::PdpOfCir(dsp::CsiToCir(frame, cfg.bandwidth_hz), {}));
    }
    return stats.Variance() / (stats.Mean() * stats.Mean());
  };
  EXPECT_GT(pdp_variance(fading, r2), 2.0 * pdp_variance(stable, r1));
}

TEST(CsiModel, TxPowerScalesReceivedPower) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig low;
  low.tx_power_dbm = 0.0;
  ChannelConfig high;
  high.tx_power_dbm = 20.0;
  const CsiSimulator sl(env, low);
  const CsiSimulator sh(env, high);
  const double pl = sl.MakeLink({1, 1}, {8, 5}).MeanResponse().TotalPower();
  const double ph = sh.MakeLink({1, 1}, {8, 5}).MeanResponse().TotalPower();
  EXPECT_NEAR(ph / pl, 100.0, 1.0);  // +20 dB = x100.
}

TEST(LinkModel, EmptyPathListThrows) {
  EXPECT_THROW(LinkModel({}, ChannelConfig{}), std::logic_error);
}

TEST(FadingCoherence, CorrelatedBatchesVarySlowly) {
  const IndoorEnvironment env = EmptyRoom();
  auto frame_power_step = [&](double rho, common::Rng& rng) {
    ChannelConfig cfg;
    cfg.fading_correlation = rho;
    cfg.rician_k_db = 0.0;  // Rayleigh: maximal fading variance.
    const CsiSimulator sim(env, cfg);
    const auto batch = sim.MakeLink({1, 1}, {10, 6}).SampleBatch(200, rng);
    // Mean absolute step of consecutive per-frame total powers,
    // normalised by the power scale.
    double step = 0.0, scale = 0.0;
    for (std::size_t i = 1; i < batch.size(); ++i) {
      step += std::abs(batch[i].TotalPower() - batch[i - 1].TotalPower());
      scale += batch[i].TotalPower();
    }
    return step / scale;
  };
  common::Rng r1(21), r2(21);
  EXPECT_LT(frame_power_step(0.99, r1), 0.5 * frame_power_step(0.0, r2));
}

TEST(FadingCoherence, MarginalPowerPreserved) {
  // AR(1) evolution must not change the long-run mean power.
  const IndoorEnvironment env = EmptyRoom();
  auto mean_power = [&](double rho, common::Rng& rng) {
    ChannelConfig cfg;
    cfg.fading_correlation = rho;
    const CsiSimulator sim(env, cfg);
    double total = 0.0;
    // Many short batches: average across batch restarts too (with high
    // correlation each batch has few effective samples).
    for (int b = 0; b < 200; ++b) {
      const auto batch = sim.MakeLink({1, 1}, {10, 6}).SampleBatch(20, rng);
      for (const auto& f : batch) total += f.TotalPower();
    }
    return total / (200.0 * 20.0);
  };
  common::Rng r1(23), r2(23);
  const double p_iid = mean_power(0.0, r1);
  const double p_corr = mean_power(0.9, r2);
  EXPECT_NEAR(p_corr / p_iid, 1.0, 0.2);
}

TEST(Mimo, SampleMimoShapesMatchConfig) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.rx_antennas = 3;  // The Intel 5300's array.
  const CsiSimulator sim(env, cfg);
  common::Rng rng(31);
  const auto packet = sim.MakeLink({1, 1}, {9, 6}).SampleMimo(rng);
  ASSERT_EQ(packet.size(), 3u);
  for (const auto& frame : packet)
    EXPECT_EQ(frame.SubcarrierCount(), 30u);
  const auto batch = sim.MakeLink({1, 1}, {9, 6}).SampleMimoBatch(5, rng);
  EXPECT_EQ(batch.size(), 5u);
}

TEST(Mimo, AntennasShareFadingButDifferInPhase) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.rx_antennas = 2;
  cfg.noise_floor_dbm = -150.0;  // Negligible noise isolates the array.
  const CsiSimulator sim(env, cfg);
  common::Rng rng(33);
  const auto packet = sim.MakeLink({1, 1}, {9, 6}).SampleMimo(rng);
  // Same large-scale gains: total power close; values themselves differ
  // because each path carries an antenna phase offset.
  EXPECT_NEAR(packet[1].TotalPower() / packet[0].TotalPower(), 1.0, 0.5);
  EXPECT_NE(packet[0].Values()[0], packet[1].Values()[0]);
}

TEST(Mimo, SingleAntennaMimoMatchesSisoShape) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.rx_antennas = 1;
  const CsiSimulator sim(env, cfg);
  common::Rng rng(35);
  const auto packet = sim.MakeLink({1, 1}, {9, 6}).SampleMimo(rng);
  ASSERT_EQ(packet.size(), 1u);
}

TEST(Mimo, InvalidAntennaConfigThrows) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.rx_antennas = 0;
  const CsiSimulator sim(env, cfg);
  EXPECT_THROW(sim.MakeLink({1, 1}, {2, 2}), std::logic_error);
}

TEST(Mimo, DiversityStabilisesPdp) {
  // Under Rayleigh-heavy fading, combining 3 antennas shrinks the
  // packet-to-packet variance of the PDP estimate.
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.rician_k_db = 0.0;
  cfg.rx_antennas = 3;
  const CsiSimulator sim(env, cfg);
  common::Rng rng(37);
  const auto link = sim.MakeLink({1, 1}, {9, 6});

  common::RunningStats siso, mimo;
  for (int i = 0; i < 80; ++i) {
    const auto packet = link.SampleMimo(rng);
    const std::vector<dsp::CsiFrame> one{packet[0]};
    const std::vector<std::vector<dsp::CsiFrame>> all{packet};
    siso.Add(dsp::PdpOfBatch(one, cfg.bandwidth_hz));
    mimo.Add(dsp::PdpOfMimoBatch(all, cfg.bandwidth_hz));
  }
  const double cv_siso = siso.StdDev() / siso.Mean();
  const double cv_mimo = mimo.StdDev() / mimo.Mean();
  EXPECT_LT(cv_mimo, 0.8 * cv_siso);
}

// A NaN noise floor or Rician K makes a fading or noise variance NaN.  That
// must throw before any frame is built, whether the link rejects it on
// construction or on the first draw.
TEST(LinkModel, NanVarianceThrowsBeforeAnyFrame) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig noisy;
  noisy.noise_floor_dbm = std::numeric_limits<double>::quiet_NaN();
  ChannelConfig fading;
  fading.rician_k_db = std::numeric_limits<double>::quiet_NaN();
  for (const ChannelConfig& cfg : {noisy, fading}) {
    const CsiSimulator sim(env, cfg);
    common::Rng rng(3);
    bool built = false;
    EXPECT_THROW(
        {
          const LinkModel link = sim.MakeLink({1, 1}, {10, 6});
          (void)link.Sample(rng);
          built = true;
        },
        std::logic_error);
    EXPECT_THROW(
        {
          const LinkModel link = sim.MakeLink({1, 1}, {10, 6});
          (void)link.SampleBatch(4, rng);
          built = true;
        },
        std::logic_error);
    EXPECT_FALSE(built);
  }
}

TEST(FadingCoherence, InvalidCorrelationThrows) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  cfg.fading_correlation = 1.0;
  const CsiSimulator sim(env, cfg);
  const auto link = sim.MakeLink({1, 1}, {5, 5});
  common::Rng rng(1);
  EXPECT_THROW(link.SampleBatch(4, rng), std::logic_error);
}

}  // namespace
}  // namespace nomloc::channel

#include "channel/csi_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dsp/cir.h"
#include "geometry/polygon.h"
#include "simd/dispatch.h"

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
  // Mean absolute step of consecutive per-frame total powers, normalised
  // by the power scale, over 200 packets: from SampleBatch when `antenna`
  // is -1, otherwise from that antenna of a two-antenna SampleMimoBatch.
  auto frame_power_step = [&](double rho, int antenna, common::Rng& rng) {
    ChannelConfig cfg;
    cfg.fading_correlation = rho;
    cfg.rician_k_db = 0.0;  // Rayleigh: maximal fading variance.
    if (antenna >= 0) cfg.rx_antennas = 2;
    const LinkModel link = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
    std::vector<dsp::CsiFrame> batch;
    if (antenna < 0) {
      batch = link.SampleBatch(200, rng);
    } else {
      for (MimoCsiFrame& packet : link.SampleMimoBatch(200, rng))
        batch.push_back(std::move(packet[std::size_t(antenna)]));
    }
    double step = 0.0, scale = 0.0;
    for (std::size_t i = 1; i < batch.size(); ++i) {
      step += std::abs(batch[i].TotalPower() - batch[i - 1].TotalPower());
      scale += batch[i].TotalPower();
    }
    return step / scale;
  };
  for (const int antenna : {-1, 0, 1}) {
    common::Rng r1(21), r2(21);
    EXPECT_LT(frame_power_step(0.99, antenna, r1),
              0.5 * frame_power_step(0.0, antenna, r2))
        << "antenna " << antenna;
  }
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
  for (const double rho : {1.0, 1.5, -0.1}) {
    ChannelConfig cfg;
    cfg.fading_correlation = rho;
    cfg.rx_antennas = 2;
    const CsiSimulator sim(env, cfg);
    const auto link = sim.MakeLink({1, 1}, {5, 5});
    common::Rng rng(1);
    EXPECT_THROW(link.SampleBatch(4, rng), std::logic_error) << rho;
    EXPECT_THROW(link.SampleMimoBatch(4, rng), std::logic_error) << rho;
  }
}

// Golden bits of the sampling entry points.  channel_measure_golden_test
// pins eval::MeasureEpoch, which never calls Sample or SampleMimo and never
// enters a batch holding a cached Gaussian.  Every case here starts from an
std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// SampleBlock + PdpOfBlock against SampleBatch + PdpOfBatch from one Rng
// state: the same CSI bits, the same PDP bits, and the Rng left at the
// same position.  The Rng starts with a cached Gaussian, so every packet
// takes FillGaussian's cached-first and odd-last branches.
TEST(BlockPath, MatchesFramePathBitForBit) {
  const IndoorEnvironment env = RoomWithMetalWall();
  for (const bool grouping : {true, false}) {  // 30 and 56 tones.
    for (const double rho : {0.0, 0.9}) {
      ChannelConfig cfg;
      cfg.intel5300_grouping = grouping;
      cfg.fading_correlation = rho;
      const LinkModel link = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
      const std::size_t tones = link.Subcarriers().size();
      ASSERT_EQ(tones, grouping ? 30u : 56u);
      for (const dsp::PdpMethod method :
           {dsp::PdpMethod::kMaxTap, dsp::PdpMethod::kTotalPower,
            dsp::PdpMethod::kFirstPath}) {
        dsp::PdpOptions options;
        options.method = method;
        common::Rng frame_rng(0xb10c);
        (void)frame_rng.Gaussian();
        common::Rng block_rng = frame_rng;
        const std::vector<dsp::CsiFrame> frames =
            link.SampleBatch(7, frame_rng);
        // A reused block: a longer earlier fill is cut back to 7 packets.
        std::vector<dsp::Cplx> block;
        common::Rng other(3);
        link.SampleBlock(9, other, block);
        link.SampleBlock(7, block_rng, block);
        ASSERT_EQ(block.size(), 7 * tones);
        for (std::size_t f = 0; f < frames.size(); ++f) {
          ASSERT_EQ(frames[f].SubcarrierCount(), tones);
          for (std::size_t i = 0; i < tones; ++i) {
            const dsp::Cplx want = frames[f].Values()[i];
            const dsp::Cplx got = block[f * tones + i];
            ASSERT_EQ(Bits(got.real()), Bits(want.real())) << f << " " << i;
            ASSERT_EQ(Bits(got.imag()), Bits(want.imag())) << f << " " << i;
          }
        }
        EXPECT_EQ(Bits(dsp::PdpOfBlock(block, link.Subcarriers(),
                                       cfg.fft_size, cfg.bandwidth_hz,
                                       options)),
                  Bits(dsp::PdpOfBatch(frames, cfg.bandwidth_hz, options)));
        common::Rng frame_raw = frame_rng;
        common::Rng block_raw = block_rng;
        EXPECT_EQ(frame_raw(), block_raw());
        EXPECT_EQ(Bits(frame_rng.Gaussian()), Bits(block_rng.Gaussian()));
      }
    }
  }
}

TEST(BlockPath, RejectsInvalidCountAndCorrelation) {
  const IndoorEnvironment env = EmptyRoom();
  ChannelConfig cfg;
  std::vector<dsp::Cplx> block;
  common::Rng rng(1);
  const LinkModel link = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
  EXPECT_THROW(link.SampleBlock(0, rng, block), std::logic_error);
  cfg.fading_correlation = 1.0;
  const LinkModel bad = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
  EXPECT_THROW(bad.SampleBlock(3, rng, block), std::logic_error);
}

// MakeLink shares one tone table per traced path set and tone
// configuration: sampling two links over the same endpoints builds it
// once, a field the table does not read shares it, and a tone-relevant
// field or a mutated environment builds another.  Shared or private, the
// table gives the same bits.
TEST(ToneSharing, OneTablePerTracedPathsAndToneConfig) {
  const common::MetricCounter& built =
      common::MetricRegistry::Global().Counter("channel.tones.built");
  IndoorEnvironment env = RoomWithMetalWall();
  ChannelConfig cfg;
  common::Rng rng(5);
  const auto sample_link = [&](const ChannelConfig& c) {
    const LinkModel link = CsiSimulator(env, c).MakeLink({1, 1}, {10, 6});
    (void)link.Sample(rng);
    return link;
  };
  const std::uint64_t before = built.Value();
  const LinkModel first = sample_link(cfg);
  EXPECT_EQ(built.Value(), before + 1);
  (void)sample_link(cfg);
  EXPECT_EQ(built.Value(), before + 1);

  ChannelConfig louder = cfg;
  louder.tx_power_dbm += 6.0;
  louder.noise_floor_dbm += 3.0;
  (void)sample_link(louder);
  EXPECT_EQ(built.Value(), before + 1);

  ChannelConfig full_grid = cfg;
  full_grid.intel5300_grouping = false;
  (void)sample_link(full_grid);
  EXPECT_EQ(built.Value(), before + 2);
  ChannelConfig other_carrier = cfg;
  other_carrier.carrier_hz = 5.18e9;
  (void)sample_link(other_carrier);
  EXPECT_EQ(built.Value(), before + 3);

  env.PlaceScatterers(4, rng);  // A new epoch.
  (void)sample_link(cfg);
  EXPECT_EQ(built.Value(), before + 4);

  // A private table (the public constructor) over the same paths.
  const LinkModel own(std::vector<PropagationPath>(first.Paths().begin(),
                                                   first.Paths().end()),
                      cfg);
  const dsp::CsiFrame shared_mean = first.MeanResponse();
  const dsp::CsiFrame own_mean = own.MeanResponse();
  EXPECT_EQ(built.Value(), before + 5);
  for (std::size_t i = 0; i < own_mean.SubcarrierCount(); ++i) {
    EXPECT_EQ(Bits(own_mean.Values()[i].real()),
              Bits(shared_mean.Values()[i].real()));
    EXPECT_EQ(Bits(own_mean.Values()[i].imag()),
              Bits(shared_mean.Values()[i].imag()));
  }
}

// Rng that has made one Gaussian() call, so each packet's draws begin with
// the cached variate and end on an odd draw.  Per case: an FNV-1a digest of
// the frames' IEEE bits, captured with the scalar SIMD table forced, then
// the Rng's next raw draw and the bits of its next Gaussian().
struct SampleGolden {
  std::uint64_t digest;
  std::uint64_t next_raw;
  std::uint64_t next_gaussian;
};

constexpr SampleGolden kSampleGoldens[] = {
    // Sample; SampleBatch at rho 0 and 0.9; SampleMimo and
    // SampleMimoBatch on two antennas at rho 0.
    {0x077be1bd1bc5ccffULL, 0x2290dde2a6c24b5fULL, 0x3feedb279c50b438ULL},
    {0x030adf423e66a903ULL, 0x6f820359d0f4ffc3ULL, 0x3fe0327c37b90725ULL},
    {0x7644c939caa19484ULL, 0x6f820359d0f4ffc3ULL, 0x3fe0327c37b90725ULL},
    {0xad937ef0a2946e46ULL, 0xfac492515cd15c6aULL, 0xc000bf6ced43dc04ULL},
    {0x3636e1dd5b9312feULL, 0xd2be6da05415e18bULL, 0x3fe14edee30b6b39ULL},
};

std::uint64_t DigestFrame(std::uint64_t h, const dsp::CsiFrame& frame) {
  for (const dsp::Cplx v : frame.Values()) {
    for (const double x : {v.real(), v.imag()}) {
      const auto bits = std::bit_cast<std::uint64_t>(x);
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

std::vector<SampleGolden> RunSampleCases() {
  constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  const IndoorEnvironment env = RoomWithMetalWall();
  std::vector<SampleGolden> out;
  auto primed = [](std::uint64_t seed) {
    common::Rng rng(seed);
    (void)rng.Gaussian();
    return rng;
  };
  auto record = [&out](const common::Rng& rng, std::uint64_t digest) {
    common::Rng raw = rng;
    common::Rng gaussian = rng;
    out.push_back({digest, raw(),
                   std::bit_cast<std::uint64_t>(gaussian.Gaussian())});
  };

  ChannelConfig cfg;
  {
    const LinkModel link = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
    common::Rng rng = primed(101);
    record(rng, DigestFrame(kFnvBasis, link.Sample(rng)));
  }
  for (const double rho : {0.0, 0.9}) {
    cfg.fading_correlation = rho;
    const LinkModel link = CsiSimulator(env, cfg).MakeLink({1, 1}, {10, 6});
    common::Rng rng = primed(102);
    std::uint64_t h = kFnvBasis;
    for (const dsp::CsiFrame& frame : link.SampleBatch(5, rng))
      h = DigestFrame(h, frame);
    record(rng, h);
  }
  cfg.fading_correlation = 0.0;
  cfg.rx_antennas = 2;
  const LinkModel mimo = CsiSimulator(env, cfg).MakeLink({2, 7}, {11, 1});
  {
    common::Rng rng = primed(103);
    std::uint64_t h = kFnvBasis;
    for (const dsp::CsiFrame& frame : mimo.SampleMimo(rng))
      h = DigestFrame(h, frame);
    record(rng, h);
  }
  {
    common::Rng rng = primed(104);
    std::uint64_t h = kFnvBasis;
    for (const MimoCsiFrame& packet : mimo.SampleMimoBatch(4, rng))
      for (const dsp::CsiFrame& frame : packet) h = DigestFrame(h, frame);
    record(rng, h);
  }
  return out;
}

class SampleGoldenTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ForceTarget(simd::ResolveTarget()); }
};

TEST_F(SampleGoldenTest, ScalarTableMatchesGoldenBits) {
  simd::ForceTarget(simd::Target::kScalar);
  const std::vector<SampleGolden> got = RunSampleCases();
  ASSERT_EQ(got.size(), std::size(kSampleGoldens));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].digest, kSampleGoldens[i].digest) << "case " << i;
    EXPECT_EQ(got[i].next_raw, kSampleGoldens[i].next_raw) << "case " << i;
    EXPECT_EQ(got[i].next_gaussian, kSampleGoldens[i].next_gaussian)
        << "case " << i;
  }
}

// A vector Box-Muller may move low bits of the draws but never how many
// uniforms a packet consumes or which variate stays cached.
TEST_F(SampleGoldenTest, RngPositionMatchesOnEveryTable) {
  for (const simd::Target t : {simd::Target::kScalar, simd::Target::kSse2,
                               simd::Target::kNeon, simd::Target::kAvx2}) {
    if (!simd::TargetSupported(t)) continue;
    simd::ForceTarget(t);
    const std::vector<SampleGolden> got = RunSampleCases();
    ASSERT_EQ(got.size(), std::size(kSampleGoldens));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].next_raw, kSampleGoldens[i].next_raw)
          << simd::TargetName(t) << " case " << i;
      EXPECT_EQ(got[i].next_gaussian, kSampleGoldens[i].next_gaussian)
          << simd::TargetName(t) << " case " << i;
    }
  }
}

}  // namespace
}  // namespace nomloc::channel

// Focused tests for the experiment runner's plumbing: which anchors each
// deployment produces, how config knobs propagate, and consistency
// between the measurement variants.
#include "eval/runner.h"

#include <gtest/gtest.h>

#include "channel/csi_model.h"
#include "common/metrics.h"
#include "dsp/cir.h"
#include "eval/scenario.h"

namespace nomloc::eval {
namespace {

using geometry::Vec2;

core::NomLocEngine EngineFor(const Scenario& s, const RunConfig& cfg) {
  core::NomLocConfig engine_cfg = cfg.engine;
  engine_cfg.bandwidth_hz = cfg.channel.bandwidth_hz;
  auto engine = core::NomLocEngine::Create(s.env.Boundary(), engine_cfg);
  return std::move(engine).value();
}

RunConfig TinyConfig() {
  RunConfig cfg;
  cfg.packets_per_batch = 8;
  cfg.trials = 1;
  cfg.dwell_count = 6;
  cfg.seed = 9;
  return cfg;
}

// One epoch per lab site, as perfbench's paper_lab measures them: one
// dsp.pdp.batches{mode=siso} per anchor and one dsp.pdp.frames per packet
// (50 x (3 static APs + 8 dwells) = 550 per epoch at the defaults),
// whichever SISO path extracts the PDPs.
TEST(MeasureEpoch, CountsOneBatchPerAnchorAndOneFramePerPacket) {
  const Scenario lab = LabScenario();
  const RunConfig cfg;  // paper_lab's defaults.
  auto& registry = common::MetricRegistry::Global();
  const auto& batches = registry.Counter("dsp.pdp.batches", "mode=siso");
  const auto& frames = registry.Counter("dsp.pdp.frames");
  const std::uint64_t batches0 = batches.Value();
  const std::uint64_t frames0 = frames.Value();
  common::Rng rng(0x3ea5);
  std::uint64_t anchors = 0;
  for (const Vec2 site : lab.test_sites) {
    auto measured = MeasureEpoch(lab, cfg, site, rng);
    ASSERT_TRUE(measured.ok()) << measured.status().ToString();
    anchors += measured->size();
  }
  const std::size_t packets_per_epoch =
      cfg.packets_per_batch *
      (lab.static_aps.size() - cfg.nomadic_ap_count +
       cfg.nomadic_ap_count * cfg.dwell_count);
  EXPECT_EQ(packets_per_epoch, 550u);
  EXPECT_EQ(batches.Value() - batches0, anchors);
  EXPECT_EQ(frames.Value() - frames0,
            lab.test_sites.size() * packets_per_epoch);
}

TEST(LocalizeEpoch, StaticDeploymentUsesExactlyTheStaticAps) {
  const Scenario lab = LabScenario();
  RunConfig cfg = TinyConfig();
  cfg.deployment = Deployment::kStatic;
  const auto engine = EngineFor(lab, cfg);
  common::Rng rng(1);
  auto est = LocalizeEpoch(lab, cfg, engine, {6.0, 4.0}, rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->anchors.size(), lab.static_aps.size());
  for (const auto& anchor : est->anchors)
    EXPECT_FALSE(anchor.is_nomadic_site);
}

TEST(LocalizeEpoch, NomadicDeploymentAnchorsAreStaticsPlusVisitedSites) {
  const Scenario lab = LabScenario();
  RunConfig cfg = TinyConfig();
  const auto engine = EngineFor(lab, cfg);
  common::Rng rng(2);
  auto est = LocalizeEpoch(lab, cfg, engine, {6.0, 4.0}, rng);
  ASSERT_TRUE(est.ok());
  // 3 fixed APs + between 1 and 4 distinct nomadic sites.
  std::size_t nomadic = 0, fixed = 0;
  for (const auto& anchor : est->anchors)
    (anchor.is_nomadic_site ? nomadic : fixed)++;
  EXPECT_EQ(fixed, lab.static_aps.size() - 1);
  EXPECT_GE(nomadic, 1u);
  EXPECT_LE(nomadic, lab.nomadic_sites.size());
}

TEST(LocalizeEpoch, StationaryPatternYieldsSingleNomadicAnchor) {
  const Scenario lab = LabScenario();
  RunConfig cfg = TinyConfig();
  cfg.pattern = mobility::MobilityPattern::kStationary;
  const auto engine = EngineFor(lab, cfg);
  common::Rng rng(3);
  auto est = LocalizeEpoch(lab, cfg, engine, {6.0, 4.0}, rng);
  ASSERT_TRUE(est.ok());
  std::size_t nomadic = 0;
  for (const auto& anchor : est->anchors) nomadic += anchor.is_nomadic_site;
  EXPECT_EQ(nomadic, 1u);
}

TEST(LocalizeEpoch, PatrolVisitsEverySite) {
  const Scenario lab = LabScenario();
  RunConfig cfg = TinyConfig();
  cfg.pattern = mobility::MobilityPattern::kPatrol;
  cfg.dwell_count = lab.nomadic_sites.size();
  const auto engine = EngineFor(lab, cfg);
  common::Rng rng(4);
  auto est = LocalizeEpoch(lab, cfg, engine, {6.0, 4.0}, rng);
  ASSERT_TRUE(est.ok());
  std::size_t nomadic = 0;
  for (const auto& anchor : est->anchors) nomadic += anchor.is_nomadic_site;
  EXPECT_EQ(nomadic, lab.nomadic_sites.size());
}

TEST(LocalizeEpoch, PositionErrorMovesReportedNomadicAnchors) {
  const Scenario lab = LabScenario();
  RunConfig cfg = TinyConfig();
  cfg.position_error_m = 2.0;
  const auto engine = EngineFor(lab, cfg);
  common::Rng rng(5);
  auto est = LocalizeEpoch(lab, cfg, engine, {6.0, 4.0}, rng);
  ASSERT_TRUE(est.ok());
  bool any_offset = false;
  for (const auto& anchor : est->anchors) {
    if (!anchor.is_nomadic_site) continue;
    double nearest_site = 1e9;
    for (const Vec2 s : lab.nomadic_sites)
      nearest_site = std::min(nearest_site, Distance(anchor.position, s));
    if (nearest_site > 1e-6) any_offset = true;
    EXPECT_LE(nearest_site, 2.0 + 1e-9);  // Bounded by ER.
  }
  EXPECT_TRUE(any_offset);
}

TEST(LocalizeEpoch, MultipleNomadicApsReduceFixedAnchors) {
  const Scenario lobby = LobbyScenario();
  RunConfig cfg = TinyConfig();
  cfg.nomadic_ap_count = 2;
  const auto engine = EngineFor(lobby, cfg);
  common::Rng rng(6);
  auto est = LocalizeEpoch(lobby, cfg, engine, {10.0, 3.0}, rng);
  ASSERT_TRUE(est.ok());
  std::size_t fixed = 0;
  for (const auto& anchor : est->anchors) fixed += !anchor.is_nomadic_site;
  EXPECT_EQ(fixed, lobby.static_aps.size() - 2);
}

TEST(LocalizeEpoch, SingleAntennaMimoCombiningEqualsSiso) {
  // The degenerate check tying the two measurement paths together: the
  // MIMO combiner over one antenna is bit-identical to the SISO PDP.
  // (With several antennas the combined PDP legitimately differs — a
  // single antenna can sit in a multipath null; that is the diversity
  // gain, covered in channel_csi_model_test.)
  const Scenario lobby = LobbyScenario();
  const RunConfig cfg = TinyConfig();
  const channel::CsiSimulator sim(lobby.env, cfg.channel);
  const auto link = sim.MakeLink({13.0, 4.5}, lobby.static_aps[0]);
  common::Rng r1(7), r2(7);
  const auto siso_frames = link.SampleBatch(12, r1);
  const auto mimo_packets = link.SampleMimoBatch(12, r2);
  const double pdp_siso =
      dsp::PdpOfBatch(siso_frames, cfg.channel.bandwidth_hz);
  const double pdp_mimo =
      dsp::PdpOfMimoBatch(mimo_packets, cfg.channel.bandwidth_hz);
  EXPECT_NEAR(pdp_mimo / pdp_siso, 1.0, 1e-9);
}

TEST(RunLocalization, RejectsZeroThreads) {
  // threads = 0 used to silently mean sequential; it is now a typed error
  // (RunConfig::Validate).
  RunConfig cfg = TinyConfig();
  cfg.threads = 0;
  auto result = RunLocalization(LabScenario(), cfg);
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(RunLocalization, RejectsZeroTrialsAndBadEngineConfig) {
  RunConfig zero_trials = TinyConfig();
  zero_trials.trials = 0;
  EXPECT_EQ(RunLocalization(LabScenario(), zero_trials).status().code(),
            common::StatusCode::kInvalidArgument);

  RunConfig negative_er = TinyConfig();
  negative_er.position_error_m = -1.0;
  EXPECT_EQ(RunLocalization(LabScenario(), negative_er).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(RunLocalization, ThreadCountDoesNotChangeResults) {
  // Measurement forks one RNG stream per site and the engine solve is
  // RNG-free, so the parallel path must be bit-identical to the serial
  // one — not merely statistically equivalent.
  const Scenario lab = LabScenario();
  RunConfig serial = TinyConfig();
  serial.threads = 1;
  RunConfig parallel = TinyConfig();
  parallel.threads = 4;
  auto rs = RunLocalization(lab, serial);
  auto rp = RunLocalization(lab, parallel);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rp.ok());
  ASSERT_EQ(rs->sites.size(), rp->sites.size());
  for (std::size_t i = 0; i < rs->sites.size(); ++i) {
    EXPECT_EQ(rs->sites[i].trial_errors_m, rp->sites[i].trial_errors_m);
    EXPECT_EQ(rs->sites[i].mean_error_m, rp->sites[i].mean_error_m);
  }
  EXPECT_EQ(rs->slv, rp->slv);
}

TEST(RunLocalization, DifferentSeedsDifferentResults) {
  const Scenario lab = LabScenario();
  RunConfig a = TinyConfig();
  RunConfig b = TinyConfig();
  b.seed = a.seed + 1;
  auto ra = RunLocalization(lab, a);
  auto rb = RunLocalization(lab, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  bool any_diff = false;
  for (std::size_t i = 0; i < ra->sites.size(); ++i)
    if (ra->sites[i].mean_error_m != rb->sites[i].mean_error_m)
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(RunProximityAccuracy, DeterministicPerSeed) {
  const Scenario lobby = LobbyScenario();
  const RunConfig cfg = TinyConfig();
  auto a = RunProximityAccuracy(lobby, cfg);
  auto b = RunProximityAccuracy(lobby, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->per_site_accuracy, b->per_site_accuracy);
}

}  // namespace
}  // namespace nomloc::eval

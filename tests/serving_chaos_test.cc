// Deterministic chaos suite (ISSUE 5 tentpole): seeded fault schedules
// replayed through the streaming service, asserting the resilience
// invariants — no crash, one response per query, a valid DegradationLevel
// on every response with consistently scaled confidence, bounded error,
// and post-clearance accuracy within 5% of the fault-free run.
#include "cluster/chaos.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

#include "common/degradation.h"
#include "eval/scenario.h"
#include "serving/replay.h"

namespace nomloc::serving {
namespace {

struct Harness {
  eval::Scenario scenario;
  ReplayConfig replay;
  ReplayPlan plan;
  core::NomLocEngine engine;
};

common::Result<Harness> MakeHarness(std::size_t epochs,
                                    const core::NomLocConfig& engine_extra) {
  NOMLOC_ASSIGN_OR_RETURN(eval::Scenario scenario,
                          eval::ScenarioByName("lab"));
  ReplayConfig replay;
  replay.objects = 2;
  replay.epochs = epochs;
  replay.run.packets_per_batch = 3;
  replay.run.dwell_count = 3;
  NOMLOC_ASSIGN_OR_RETURN(ReplayPlan plan,
                          BuildReplayPlan(scenario, replay));
  core::NomLocConfig engine_cfg = engine_extra;
  engine_cfg.bandwidth_hz = replay.run.channel.bandwidth_hz;
  NOMLOC_ASSIGN_OR_RETURN(
      core::NomLocEngine engine,
      core::NomLocEngine::Create(scenario.env.Boundary(), engine_cfg));
  return Harness{std::move(scenario), replay, std::move(plan),
                 std::move(engine)};
}

ServingConfig ChaosServingConfig() {
  ServingConfig config;
  config.workers = 2;
  // Breakers must be able to re-close between epochs, or a corruption
  // window would poison the post-clearance epochs.
  config.breaker.failure_threshold = 2;
  config.breaker.base_backoff_s = 0.2;
  config.breaker.max_backoff_s = 1.0;
  config.query_retry_budget = 1;
  return config;
}

double AreaDiagonalM(const core::NomLocEngine& engine) {
  const auto box = engine.Area().BoundingBox();
  return geometry::Distance(box.lo, box.hi);
}

void AssertInvariants(const cluster::ChaosReport& report,
                      const Harness& harness) {
  // One response per query — nothing lost, nothing duplicated.
  ASSERT_EQ(report.outcomes.size(),
            harness.plan.objects * harness.plan.epoch_count);
  const double diagonal_m = AreaDiagonalM(harness.engine);
  for (const cluster::ChaosOutcome& outcome : report.outcomes) {
    const auto level = std::size_t(outcome.degradation);
    ASSERT_LE(level, 3u) << "invalid degradation level";
    EXPECT_GE(outcome.confidence, 0.0);
    EXPECT_LE(outcome.confidence, 1.0);
    // The ladder's scale caps the confidence of every degraded rung.
    EXPECT_LE(outcome.confidence,
              common::DegradationConfidenceScale(outcome.degradation) + 1e-12);
    if (outcome.status == ServeStatus::kOk) {
      // Bounded error: every estimate — last-known-good included — stays
      // inside the floor, so its error cannot exceed the area diagonal.
      EXPECT_TRUE(std::isfinite(outcome.error_m));
      EXPECT_LE(outcome.error_m, diagonal_m);
    }
  }
}

TEST(ChaosSchedule, DeterministicPerSeed) {
  auto harness = MakeHarness(5, {});
  ASSERT_TRUE(harness.ok());
  cluster::ChaosConfig chaos;
  chaos.seed = 7;
  const auto a = cluster::BuildChaosSchedule(
      chaos, cluster::ChaosVocabulary::kDataPlane, harness->plan,
      harness->replay.epoch_interval_s, harness->plan.expected_anchors);
  const auto b = cluster::BuildChaosSchedule(
      chaos, cluster::ChaosVocabulary::kDataPlane, harness->plan,
      harness->replay.epoch_interval_s, harness->plan.expected_anchors);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), chaos.events);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].start_s, b.events[i].start_s);
    EXPECT_EQ(a.events[i].end_s, b.events[i].end_s);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].magnitude, b.events[i].magnitude);
  }
  // Faults clear before the run ends so recovery is always measurable.
  const double duration_s =
      double(harness->plan.epoch_count) * harness->replay.epoch_interval_s;
  EXPECT_LT(a.last_event_end_s, duration_s);
}

TEST(ChaosSchedule, LateDeliveryIsDrawnOnlyWhenWeighted) {
  auto harness = MakeHarness(5, {});
  ASSERT_TRUE(harness.ok());
  const double interval_s = harness->replay.epoch_interval_s;
  cluster::ChaosConfig chaos;
  chaos.seed = 7;
  for (const cluster::ChaosEvent& event :
       cluster::BuildChaosSchedule(chaos, cluster::ChaosVocabulary::kDataPlane,
                                   harness->plan, interval_s,
                                   harness->plan.expected_anchors)
           .events)
    EXPECT_NE(event.kind, cluster::ChaosKind::kLateDelivery);
  chaos.weights.fill(0.0);
  chaos.Weight(cluster::ChaosKind::kLateDelivery) = 1.0;
  const auto late = cluster::BuildChaosSchedule(
      chaos, cluster::ChaosVocabulary::kDataPlane, harness->plan, interval_s,
      harness->plan.expected_anchors);
  ASSERT_EQ(late.events.size(), chaos.events);
  for (const cluster::ChaosEvent& event : late.events) {
    EXPECT_EQ(event.kind, cluster::ChaosKind::kLateDelivery);
    EXPECT_GT(event.end_s, event.start_s);
    EXPECT_LT(event.target, harness->plan.expected_anchors);
    EXPECT_GE(event.magnitude, 0.0);
    EXPECT_LT(event.magnitude, interval_s);
    EXPECT_EQ(event.share, 1.0);
  }
}

TEST(ChaosRun, NoEventsIsFaultFree) {
  auto harness = MakeHarness(3, {});
  ASSERT_TRUE(harness.ok());
  cluster::ChaosConfig chaos;
  chaos.events = 0;
  auto report = cluster::RunChaos(harness->engine, harness->plan,
                                  harness->replay.epoch_interval_s, chaos,
                                  ChaosServingConfig());
  ASSERT_TRUE(report.ok());
  AssertInvariants(*report, *harness);
  EXPECT_EQ(report->Executed(cluster::ChaosKind::kAnchorDeath) +
                report->Executed(cluster::ChaosKind::kAnchorFlap),
            0u);
  EXPECT_EQ(report->Executed(cluster::ChaosKind::kTraceCorruption), 0u);
  for (const cluster::ChaosOutcome& outcome : report->outcomes) {
    EXPECT_EQ(outcome.status, ServeStatus::kOk);
    EXPECT_EQ(outcome.degradation, common::DegradationLevel::kNone);
  }
  EXPECT_EQ(report->degradation_counts[0], report->outcomes.size());
}

// The acceptance gate: >= 3 seeds, zero crashes, valid degradation
// everywhere, and post-clearance accuracy within 5% of the fault-free
// replay.
TEST(ChaosRun, InvariantsHoldAcrossSeeds) {
  auto harness = MakeHarness(5, {});
  ASSERT_TRUE(harness.ok());

  cluster::ChaosConfig fault_free;
  fault_free.events = 0;
  auto baseline = cluster::RunChaos(harness->engine, harness->plan,
                                    harness->replay.epoch_interval_s,
                                    fault_free, ChaosServingConfig());
  ASSERT_TRUE(baseline.ok());
  std::map<std::pair<std::size_t, std::uint64_t>, double> baseline_errors;
  for (const cluster::ChaosOutcome& outcome : baseline->outcomes)
    baseline_errors[{outcome.epoch, outcome.object_id}] = outcome.error_m;

  std::size_t total_injected = 0;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    cluster::ChaosConfig chaos;
    chaos.seed = seed;
    chaos.events = 6;
    auto report = cluster::RunChaos(harness->engine, harness->plan,
                                    harness->replay.epoch_interval_s, chaos,
                                    ChaosServingConfig());
    ASSERT_TRUE(report.ok());
    AssertInvariants(*report, *harness);
    total_injected += std::accumulate(report->executed.begin(),
                                      report->executed.end(), std::size_t{0});

    // Post-clearance: every query issued at least one anchor TTL after
    // the last fault cleared must match the fault-free error within 5%.
    const double clear_s = report->schedule.last_event_end_s +
                           harness->plan.suggested_anchor_ttl_s;
    std::size_t post_clearance = 0;
    for (const cluster::ChaosOutcome& outcome : report->outcomes) {
      if (outcome.timestamp_s < clear_s) continue;
      ++post_clearance;
      EXPECT_EQ(outcome.status, ServeStatus::kOk);
      const double want =
          baseline_errors[{outcome.epoch, outcome.object_id}];
      EXPECT_NEAR(outcome.error_m, want,
                  0.05 * std::max(want, 1e-6))
          << "epoch " << outcome.epoch << " object " << outcome.object_id;
    }
    EXPECT_GT(post_clearance, 0u) << "no post-clearance epochs measured";
  }
  // The schedules actually did something across the seeds.
  EXPECT_GT(total_injected, 0u);
}

// With a tight relaxation-cost budget the solver walks the ladder; the
// chaos invariants must hold on degraded rungs too.
TEST(ChaosRun, DegradationLadderEngagesUnderTightBudget) {
  core::NomLocConfig engine_cfg;
  engine_cfg.solver.fallback.max_relaxation_cost = 1e-9;
  auto harness = MakeHarness(4, engine_cfg);
  ASSERT_TRUE(harness.ok());
  cluster::ChaosConfig chaos;
  chaos.seed = 2;
  chaos.events = 4;
  auto report = cluster::RunChaos(harness->engine, harness->plan,
                                  harness->replay.epoch_interval_s, chaos,
                                  ChaosServingConfig());
  ASSERT_TRUE(report.ok());
  AssertInvariants(*report, *harness);
  const std::size_t degraded = report->degradation_counts[1] +
                               report->degradation_counts[2] +
                               report->degradation_counts[3];
  EXPECT_GT(degraded, 0u)
      << "tight budget should push responses down the ladder";
}

// The fault flags of nomloc_serve as hand-built schedules.  Each spans
// the whole run; `share` < 1 hits that share of the AP's observations.
cluster::ChaosEvent WholeRun(const Harness& harness, cluster::ChaosKind kind,
                             int ap, double magnitude = 0.0,
                             double share = 1.0) {
  const double end_s = double(harness.plan.epoch_count) *
                       harness.replay.epoch_interval_s;
  return {kind, 0.0, end_s, std::size_t(ap), magnitude, share};
}

std::size_t ObservationsOf(const ReplayPlan& plan, int ap) {
  std::size_t count = 0;
  for (const IngestPacket& packet : plan.packets)
    count += packet.kind == PacketKind::kObservation && packet.ap_id == ap;
  return count;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(ChaosFaults, HandBuiltScheduleIsDeterministic) {
  auto harness = MakeHarness(4, {});
  ASSERT_TRUE(harness.ok());
  for (IngestPacket& packet : harness->plan.packets)
    packet.deadline_s = packet.timestamp_s + 0.5;
  cluster::ChaosSchedule schedule;
  schedule.events = {
      WholeRun(*harness, cluster::ChaosKind::kAnchorDeath, 1),
      WholeRun(*harness, cluster::ChaosKind::kAnchorDeath, 2, 0.0, 0.3),
      WholeRun(*harness, cluster::ChaosKind::kLateDelivery, 3, 0.6, 0.5)};
  const auto run = [&] {
    return cluster::RunChaosSchedule(harness->engine, harness->plan,
                                     harness->replay.epoch_interval_s,
                                     schedule, ChaosServingConfig());
  };
  auto a = run();
  auto b = run();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  AssertInvariants(*a, *harness);
  EXPECT_EQ(a->executed, b->executed);
  EXPECT_EQ(a->admitted, b->admitted);
  EXPECT_GT(a->Executed(cluster::ChaosKind::kLateDelivery), 0u);
  EXPECT_GT(a->Admitted(AdmitStatus::kRejectedDeadline), 0u);
  ASSERT_EQ(a->responses.size(), b->responses.size());
  for (std::size_t i = 0; i < a->responses.size(); ++i) {
    const WireResponse& x = a->responses[i];
    const WireResponse& y = b->responses[i];
    EXPECT_EQ(x.object_id, y.object_id);
    EXPECT_EQ(x.status, y.status);
    EXPECT_EQ(x.anchor_count, y.anchor_count);
    EXPECT_EQ(Bits(x.position.x), Bits(y.position.x));
    EXPECT_EQ(Bits(x.position.y), Bits(y.position.y));
    EXPECT_EQ(Bits(x.confidence), Bits(y.confidence));
  }
}

TEST(ChaosFaults, DeadApAdmitsNoObservation) {
  auto harness = MakeHarness(3, {});
  ASSERT_TRUE(harness.ok());
  const int dead_ap = 2;
  cluster::ChaosSchedule schedule;
  schedule.events = {
      WholeRun(*harness, cluster::ChaosKind::kAnchorDeath, dead_ap)};
  auto report = cluster::RunChaosSchedule(
      harness->engine, harness->plan, harness->replay.epoch_interval_s,
      schedule, ChaosServingConfig());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  AssertInvariants(*report, *harness);
  const std::size_t dead = ObservationsOf(harness->plan, dead_ap);
  ASSERT_GT(dead, 0u);
  EXPECT_EQ(report->Executed(cluster::ChaosKind::kAnchorDeath), dead);
  EXPECT_EQ(report->Admitted(AdmitStatus::kAccepted),
            harness->plan.packets.size() - dead);
  // Every fix is solved without the dead AP (anchor index = ap_id).
  for (std::size_t i = 0; i < report->responses.size(); ++i) {
    const cluster::ChaosOutcome& outcome = report->outcomes[i];
    const std::size_t anchors =
        harness->plan
            .epochs[outcome.epoch * harness->plan.objects + outcome.object_id]
            .anchors.size();
    EXPECT_EQ(report->responses[i].anchor_count,
              anchors - (anchors > std::size_t(dead_ap) ? 1 : 0));
  }
}

TEST(ChaosFaults, LossShareTracksTheRate) {
  auto harness = MakeHarness(5, {});
  ASSERT_TRUE(harness.ok());
  const double rate = 0.3;
  cluster::ChaosSchedule schedule;
  std::size_t observations = 0;
  for (int ap = 0; ap < int(harness->plan.expected_anchors); ++ap) {
    schedule.events.push_back(
        WholeRun(*harness, cluster::ChaosKind::kAnchorDeath, ap, 0.0, rate));
    observations += ObservationsOf(harness->plan, ap);
  }
  auto report = cluster::RunChaosSchedule(
      harness->engine, harness->plan, harness->replay.epoch_interval_s,
      schedule, ChaosServingConfig());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  AssertInvariants(*report, *harness);
  const double lost =
      double(report->Executed(cluster::ChaosKind::kAnchorDeath));
  EXPECT_NEAR(lost, rate * double(observations),
              0.5 * rate * double(observations));
}

TEST(ChaosFaults, LateDeliveryPastTheDeadlineIsRejected) {
  auto harness = MakeHarness(3, {});
  ASSERT_TRUE(harness.ok());
  for (IngestPacket& packet : harness->plan.packets)
    packet.deadline_s = packet.timestamp_s + 0.5;
  // AP 0 arrives within its deadline, AP 1 past it.
  cluster::ChaosSchedule schedule;
  schedule.events = {
      WholeRun(*harness, cluster::ChaosKind::kLateDelivery, 0, 0.3),
      WholeRun(*harness, cluster::ChaosKind::kLateDelivery, 1, 0.7)};
  auto report = cluster::RunChaosSchedule(
      harness->engine, harness->plan, harness->replay.epoch_interval_s,
      schedule, ChaosServingConfig());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  AssertInvariants(*report, *harness);
  const std::size_t late = ObservationsOf(harness->plan, 1);
  EXPECT_EQ(report->Executed(cluster::ChaosKind::kLateDelivery),
            ObservationsOf(harness->plan, 0) + late);
  EXPECT_EQ(report->Admitted(AdmitStatus::kRejectedDeadline), late);
  EXPECT_EQ(report->Admitted(AdmitStatus::kAccepted),
            harness->plan.packets.size() - late);
}

TEST(ChaosFaults, ShareOutsideUnitOrNegativeDelayIsInvalid) {
  auto harness = MakeHarness(3, {});
  ASSERT_TRUE(harness.ok());
  const auto run = [&](cluster::ChaosEvent event) {
    cluster::ChaosSchedule schedule;
    schedule.events = {event};
    return cluster::RunChaosSchedule(harness->engine, harness->plan,
                                     harness->replay.epoch_interval_s,
                                     schedule, ChaosServingConfig());
  };
  for (double share : {-0.1, 1.5, std::nan("")}) {
    auto report = run(
        WholeRun(*harness, cluster::ChaosKind::kAnchorDeath, 0, 0.0, share));
    ASSERT_FALSE(report.ok()) << "share " << share;
    EXPECT_EQ(report.status().code(), common::StatusCode::kInvalidArgument);
  }
  auto report =
      run(WholeRun(*harness, cluster::ChaosKind::kLateDelivery, 0, -0.1));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nomloc::serving

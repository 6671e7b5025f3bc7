// Shard-level chaos suite: seeded topology-failure schedules (kills with
// checkpoint-restores, live migrations, transport stalls) replayed
// through a Cluster, asserting the resilience invariants — no crash,
// exactly one response per accepted query, monotone degradation (packets
// reroute or reject typed, never vanish), and post-recovery accuracy
// parity with the event-free run.
#include "cluster/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "eval/scenario.h"
#include "serving/replay.h"

namespace nomloc::cluster {
namespace {

struct Harness {
  eval::Scenario scenario;
  serving::ReplayConfig replay;
  serving::ReplayPlan plan;
  core::NomLocEngine engine;
};

common::Result<Harness> MakeHarness(std::size_t epochs) {
  NOMLOC_ASSIGN_OR_RETURN(eval::Scenario scenario,
                          eval::ScenarioByName("lab"));
  serving::ReplayConfig replay;
  replay.objects = 3;
  replay.epochs = epochs;
  replay.run.packets_per_batch = 3;
  replay.run.dwell_count = 3;
  NOMLOC_ASSIGN_OR_RETURN(serving::ReplayPlan plan,
                          BuildReplayPlan(scenario, replay));
  core::NomLocConfig engine_cfg;
  engine_cfg.bandwidth_hz = replay.run.channel.bandwidth_hz;
  NOMLOC_ASSIGN_OR_RETURN(
      core::NomLocEngine engine,
      core::NomLocEngine::Create(scenario.env.Boundary(), engine_cfg));
  return Harness{std::move(scenario), replay, std::move(plan),
                 std::move(engine)};
}

ClusterConfig ChaosClusterConfig() {
  ClusterConfig config;
  config.shards = 3;
  config.serving.workers = 2;
  // Breakers that trip fast and re-probe fast, so a killed shard's
  // objects reroute quickly and the restored shard is reclaimed within
  // the run.
  config.shard_breaker.failure_threshold = 2;
  config.shard_breaker.base_backoff_s = 0.2;
  config.shard_breaker.max_backoff_s = 1.0;
  return config;
}

void AssertInvariants(const ChaosReport& report) {
  // Exactly one response per accepted query — rerouted, restored, or
  // plain, nothing is lost and nothing is duplicated.
  EXPECT_EQ(report.outcomes.size(), report.accepted_queries);
  std::set<std::pair<std::uint64_t, std::size_t>> seen;
  for (const ChaosOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(seen.insert({outcome.object_id, outcome.epoch}).second)
        << "duplicate response for object " << outcome.object_id
        << " epoch " << outcome.epoch;
    EXPECT_LE(std::size_t(outcome.degradation), 3u)
        << "invalid degradation level";
    EXPECT_GE(outcome.confidence, 0.0);
    EXPECT_LE(outcome.confidence, 1.0);
    EXPECT_TRUE(std::isfinite(outcome.error_m));
  }
  // Every scheduled kill that executed was eventually restored (the
  // schedule closes every window inside the run).
  EXPECT_EQ(report.Recovered(ChaosKind::kShardKill),
            report.Executed(ChaosKind::kShardKill));
}

TEST(ClusterChaos, ScheduleIsDeterministicAndBounded) {
  auto harness = MakeHarness(8);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ChaosConfig chaos(ChaosVocabulary::kTopology);
  chaos.seed = 5;
  chaos.events = 6;
  const auto a =
      BuildChaosSchedule(chaos, ChaosVocabulary::kTopology, harness->plan,
                         harness->replay.epoch_interval_s, 3);
  const auto b =
      BuildChaosSchedule(chaos, ChaosVocabulary::kTopology, harness->plan,
                         harness->replay.epoch_interval_s, 3);
  ASSERT_EQ(a.events.size(), 6u);
  ASSERT_EQ(b.events.size(), 6u);
  const double duration_s =
      double(harness->plan.epoch_count) * harness->replay.epoch_interval_s;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].start_s, b.events[i].start_s);
    EXPECT_EQ(a.events[i].end_s, b.events[i].end_s);
    EXPECT_LT(a.events[i].target, 3u);
    EXPECT_GT(a.events[i].start_s, 0.0);
    EXPECT_LE(a.events[i].end_s, duration_s);
    // Windows snap to the epoch grid (events fire on flushed boundaries).
    const double start_epochs =
        a.events[i].start_s / harness->replay.epoch_interval_s;
    EXPECT_EQ(start_epochs, std::floor(start_epochs));
  }
}

TEST(ClusterChaos, SeededRunsSurviveWithEveryQueryAnswered) {
  auto harness = MakeHarness(6);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  for (std::uint64_t seed : {1ull, 7ull, 23ull}) {
    ChaosConfig chaos(ChaosVocabulary::kTopology);
    chaos.seed = seed;
    chaos.events = 4;
    auto report =
        RunChaos(harness->engine, harness->plan,
                 harness->replay.epoch_interval_s, chaos,
                 ChaosClusterConfig());
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    EXPECT_FALSE(report->schedule.events.empty()) << "seed " << seed;
    AssertInvariants(*report);
  }
}

TEST(ClusterChaos, PostRecoveryAccuracyMatchesEventFreeRun) {
  auto harness = MakeHarness(6);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ChaosConfig quiet(ChaosVocabulary::kTopology);
  quiet.events = 0;
  auto baseline =
      RunChaos(harness->engine, harness->plan,
               harness->replay.epoch_interval_s, quiet,
               ChaosClusterConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ChaosConfig chaos(ChaosVocabulary::kTopology);
  chaos.seed = 11;
  chaos.events = 4;
  auto report =
      RunChaos(harness->engine, harness->plan,
               harness->replay.epoch_interval_s, chaos,
               ChaosClusterConfig());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  AssertInvariants(*report);

  // Baseline mean over the *same* tail window as the chaos run (epochs
  // after the last event cleared) — whole-run means mix in different
  // epochs and would compare apples to oranges.
  double last_end_s = 0.0;
  for (const ChaosEvent& event : report->schedule.events)
    last_end_s = std::max(last_end_s, event.end_s);
  double baseline_sum = 0.0;
  std::size_t baseline_count = 0;
  for (const ChaosOutcome& outcome : baseline->outcomes) {
    if (outcome.timestamp_s <= last_end_s) continue;
    baseline_sum += outcome.error_m;
    ++baseline_count;
  }
  ASSERT_GT(baseline_count, 0u) << "no baseline tail responses";
  const double baseline_mean = baseline_sum / double(baseline_count);

  // Tail epochs must localize as well as the event-free run: topology
  // faults leave no permanent scar.  Epoch self-containment under the
  // anchor TTL actually makes the tail *identical*, but the invariant
  // asserted is parity within 5%.
  ASSERT_GE(report->tail_mean_error_m, 0.0) << "no tail responses";
  EXPECT_LE(report->tail_mean_error_m, 1.05 * baseline_mean + 1e-9);
}

TEST(ClusterChaos, StallWindowsSurfaceAsTypedBackpressure) {
  auto harness = MakeHarness(6);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ChaosClusterConfig();
  // A pipe smaller than two observation frames: a stalled shard that
  // receives any real traffic must overflow into typed kRejectedQueueFull.
  config.transport.loopback_capacity_bytes = 96;
  // Back-to-back writes to a pipe this small race its reader, stalled or
  // not; the retry budget waits that transient pressure out, so only a
  // stall can reject.  The control run without stalls proves it.
  config.write_retry_budget = 4;
  auto control = RunChaosSchedule(harness->engine, harness->plan,
                                  harness->replay.epoch_interval_s,
                                  ChaosSchedule{}, config);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control->Admitted(serving::AdmitStatus::kRejectedQueueFull), 0u)
      << "an unstalled pipe rejected packets";
  // Seeds draw the stalled shard at random and a stall on a shard that
  // owns no objects is (correctly) harmless, so scan a few seeds and
  // require that a stall landing on live traffic surfaces as typed
  // backpressure.
  bool saw_backpressure = false;
  for (std::uint64_t seed = 1; seed <= 10 && !saw_backpressure; ++seed) {
    ChaosConfig chaos(ChaosVocabulary::kTopology);
    chaos.events = 3;
    chaos.Weight(ChaosKind::kShardKill) = 0.0;
    chaos.Weight(ChaosKind::kShardMigrate) = 0.0;
    chaos.Weight(ChaosKind::kTransportStall) = 1.0;  // Stalls only.
    chaos.seed = seed;
    auto report = RunChaos(harness->engine, harness->plan,
                           harness->replay.epoch_interval_s, chaos, config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->Executed(ChaosKind::kTransportStall), 0u)
        << "seed " << seed;
    // Backpressure rejects observations, never crashes; queries that
    // were accepted still all answer.
    EXPECT_EQ(report->outcomes.size(), report->accepted_queries)
        << "seed " << seed;
    saw_backpressure =
        report->Admitted(serving::AdmitStatus::kRejectedQueueFull) > 0;
  }
  EXPECT_TRUE(saw_backpressure)
      << "no stall window overflowed in 10 seeded runs";
}

}  // namespace
}  // namespace nomloc::cluster

// Chaos-replication sweep (ISSUE 10 acceptance): across seeds, a
// replicated cluster under crash kills that deliberately land mid-epoch
// (between a group's write and its flush) plus live migrations must
// answer bit-identically to the unsharded golden run — zero accepted
// observations lost, every accepted query answered exactly once — and
// recover fully by the tail.
#include "cluster/chaos.h"

#include <gtest/gtest.h>

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

common::Result<Harness> MakeHarness() {
  NOMLOC_ASSIGN_OR_RETURN(eval::Scenario scenario,
                          eval::ScenarioByName("lab"));
  serving::ReplayConfig replay;
  replay.objects = 4;
  replay.epochs = 6;
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

ClusterConfig ReplicatedConfig() {
  ClusterConfig config;
  config.shards = 4;
  config.serving.workers = 2;
  config.replicate = true;
  return config;
}

ChaosConfig ParityChaos(std::uint64_t seed) {
  ChaosConfig chaos(ChaosVocabulary::kTopology);
  chaos.seed = seed;
  chaos.events = 4;
  // The parity-preserving mix: crash kills + migrations.  Clean kills
  // restore from a checkpoint (legitimately dropping newer sessions) and
  // would fail the bit-compare by design.
  chaos.Weight(ChaosKind::kShardKill) = 0.0;
  chaos.Weight(ChaosKind::kTransportStall) = 0.0;
  chaos.Weight(ChaosKind::kShardMigrate) = 2.0;
  chaos.Weight(ChaosKind::kShardKillUnclean) = 3.0;
  chaos.check_parity = true;
  return chaos;
}

TEST(ClusterChaosReplication, SeedSweepKeepsBitParityUnderCrashKills) {
  auto harness = MakeHarness();
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();

  std::size_t crash_kills_across_seeds = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull, 11ull}) {
    auto report = RunChaos(harness->engine, harness->plan,
                           harness->replay.epoch_interval_s,
                           ParityChaos(seed), ReplicatedConfig());
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": "
                             << report.status().ToString();
    // Zero loss: every accepted packet survives the crashes (typed
    // rejections are allowed, silent drops are not), and every accepted
    // query is answered exactly once, bit-identically to the golden.
    EXPECT_TRUE(report->parity_checked);
    EXPECT_EQ(report->parity_mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(report->parity_compared, report->outcomes.size());
    EXPECT_EQ(report->outcomes.size(), report->accepted_queries)
        << "seed " << seed;
    EXPECT_EQ(report->Admitted(serving::AdmitStatus::kRejectedQueueFull), 0u);
    EXPECT_EQ(report->Admitted(serving::AdmitStatus::kRejectedBreakerOpen),
              0u);
    EXPECT_EQ(report->Executed(ChaosKind::kShardKillUnclean),
              report->Recovered(ChaosKind::kShardKillUnclean))
        << "seed " << seed << ": a crash window must end in Recover()";
    crash_kills_across_seeds += report->Executed(ChaosKind::kShardKillUnclean);
  }
  // The sweep is vacuous unless the schedules actually crash shards.
  EXPECT_GT(crash_kills_across_seeds, 0u);
}

TEST(ClusterChaosReplication, ScheduleLandsCrashKillsOffTheEpochGrid) {
  auto harness = MakeHarness();
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ChaosConfig chaos = ParityChaos(7);
  chaos.events = 8;
  chaos.Weight(ChaosKind::kShardMigrate) = 0.0;  // Crash kills only.
  const ChaosSchedule schedule =
      BuildChaosSchedule(chaos, ChaosVocabulary::kTopology, harness->plan,
                         harness->replay.epoch_interval_s, 4);
  ASSERT_FALSE(schedule.events.empty());
  std::set<double> trigger_epochs;
  std::size_t unclean = 0;
  for (const ChaosEvent& event : schedule.events) {
    // Trigger-epoch de-confliction converts surplus crash draws into
    // migrations (replication factor one tolerates one crash per flush
    // group), so not every event stays unclean.
    if (event.kind != ChaosKind::kShardKillUnclean) {
      ASSERT_EQ(event.kind, ChaosKind::kShardMigrate);
      continue;
    }
    ++unclean;
    const double interval = harness->replay.epoch_interval_s;
    EXPECT_TRUE(
        trigger_epochs.insert(std::floor(event.start_s / interval)).second)
        << "two crashes share trigger epoch at " << event.start_s;
    const double frac = event.start_s / interval -
                        double(std::size_t(event.start_s / interval));
    // Deliberately mid-epoch (queries sit at 0.4): never on a boundary.
    EXPECT_GE(frac, 0.5) << "start " << event.start_s;
    EXPECT_LT(frac, 0.9 + 1e-9) << "start " << event.start_s;
    // The recovery edge IS on the grid (a drained boundary).
    const double end_frac = event.end_s / interval -
                            double(std::size_t(event.end_s / interval));
    EXPECT_NEAR(end_frac, 0.0, 1e-9) << "end " << event.end_s;
  }
  EXPECT_GT(unclean, 0u);
}

TEST(ClusterChaosReplication, LegacySeedsUnaffectedByNewEventKind) {
  // The crash-kill weight defaults to 0: a pre-replication chaos config
  // must draw the exact same schedule it always did.
  auto harness = MakeHarness();
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ChaosConfig chaos(ChaosVocabulary::kTopology);
  chaos.seed = 3;
  const ChaosSchedule schedule =
      BuildChaosSchedule(chaos, ChaosVocabulary::kTopology, harness->plan,
                         harness->replay.epoch_interval_s, 4);
  for (const ChaosEvent& event : schedule.events)
    EXPECT_NE(event.kind, ChaosKind::kShardKillUnclean);
}

}  // namespace
}  // namespace nomloc::cluster

// Cluster router contract (ISSUE 9 tentpole): a multi-shard topology over
// byte-stream transports must answer bit-identically to one unsharded
// StreamingLocalizer — plain, across a live migration, and across a
// kill/checkpoint-restore cycle — with typed admission, per-shard breaker
// route-around, and an exactly-once cluster.* metrics surface.
#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster_golden.h"
#include "common/metrics.h"
#include "serving/clock.h"
#include "serving/service.h"

namespace nomloc::cluster {
namespace {

ClusterConfig FourShardConfig() {
  ClusterConfig config;
  config.shards = 4;
  config.serving.workers = 2;
  return config;
}

TEST(Cluster, FourShardsBitIdenticalToUnsharded) {
  auto harness = MakeHarness(4, 2);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = FourShardConfig();
  TuneServing(*harness, config.serving);

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t) { (*cluster)->Flush(); });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Cluster, LiveMigrationPreservesBitIdentity) {
  auto harness = MakeHarness(4, 4);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = FourShardConfig();
  TuneServing(*harness, config.serving);

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const auto migrations_before = common::MetricRegistry::Global()
                                     .Counter("cluster.migrations")
                                     .Value();
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 2) {
          // Migrate every shard mid-replay — each host is drained,
          // checkpointed (filtered to its placement slot), and replaced.
          for (std::size_t shard = 0; shard < 4; ++shard) {
            auto migrated = (*cluster)->Migrate(shard);
            ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
          }
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  EXPECT_EQ(common::MetricRegistry::Global()
                .Counter("cluster.migrations")
                .Value(),
            migrations_before + 4);
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Cluster, KillRestoreCycleRoutesAroundAndStaysBitIdentical) {
  auto harness = MakeHarness(4, 4);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = FourShardConfig();
  TuneServing(*harness, config.serving);
  // A short backoff so the restored shard is re-admitted through the
  // half-open probe within the remaining epochs.
  config.shard_breaker.failure_threshold = 2;
  config.shard_breaker.base_backoff_s = 0.2;
  config.shard_breaker.max_backoff_s = 0.4;

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = common::MetricRegistry::Global();
  const auto rerouted_before = registry.Counter("cluster.rerouted").Value();
  const auto trips_before = registry.Counter("cluster.shard_trips").Value();

  // Kill the shard that owns object 0, so the kill provably disrupts
  // live traffic (the hash may park all four objects away from slot 0).
  const std::size_t victim = (*cluster)->ShardOf(0);
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        // Route-around keeps every packet deliverable while the victim
        // is down: admission stays kAccepted for the whole stream.
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 2) {
          ASSERT_TRUE((*cluster)->Checkpoint(victim).ok());
          (*cluster)->Kill(victim);
          EXPECT_FALSE((*cluster)->ShardLive(victim));
        } else if (finished == 3) {
          ASSERT_TRUE((*cluster)->Restart(victim).ok());
          EXPECT_TRUE((*cluster)->ShardLive(victim));
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  // The victim owns some objects in a 4-object plan with near-certainty;
  // their killed-epoch packets must have rerouted (and tripped the
  // breaker once the failure threshold was crossed).
  EXPECT_GT(registry.Counter("cluster.rerouted").Value(), rerouted_before);
  EXPECT_GT(registry.Counter("cluster.shard_trips").Value(), trips_before);
  // Route-around responses may differ from the golden in `degraded` only.
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving),
                     cluster->get());
}

TEST(Cluster, BreakerOpenRejectionWhenRouteAroundDisabled) {
  auto harness = MakeHarness(4, 2);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = FourShardConfig();
  TuneServing(*harness, config.serving);
  config.route_around = false;
  config.shard_breaker.failure_threshold = 1;

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const std::size_t victim = (*cluster)->ShardOf(0);
  (*cluster)->Kill(victim);

  std::size_t rejected = 0, accepted = 0;
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        const auto admit = (*cluster)->Ingest(p);
        if ((*cluster)->ShardOf(p.object_id) == victim) {
          EXPECT_EQ(admit, serving::AdmitStatus::kRejectedBreakerOpen);
          ++rejected;
        } else {
          EXPECT_EQ(admit, serving::AdmitStatus::kAccepted);
          ++accepted;
        }
      },
      [&](std::size_t) { (*cluster)->Flush(); });
  (*cluster)->Shutdown();
  EXPECT_GT(rejected, 0u);  // The victim owns someone in 4 objects.
  EXPECT_GT(accepted, 0u);
}

TEST(Cluster, LoopbackBackpressureIsTypedQueueFull) {
  auto harness = MakeHarness(2, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config;
  config.shards = 1;
  TuneServing(*harness, config.serving);
  // A pipe too small for even one observation frame: every data packet
  // sees typed backpressure (header-only writes still fit).
  config.transport.loopback_capacity_bytes = serving::kWireHeaderBytes + 8;

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // Stall the pipe so the host cannot drain it.
  ASSERT_TRUE((*cluster)->SetStalled(0, true));
  const serving::IngestPacket& packet = harness->plan.packets.front();
  clock.Set(packet.timestamp_s);
  EXPECT_EQ((*cluster)->Ingest(packet),
            serving::AdmitStatus::kRejectedQueueFull);
  ASSERT_TRUE((*cluster)->SetStalled(0, false));
  (*cluster)->Shutdown();
}

TEST(Cluster, ShutdownRejectsIngest) {
  auto harness = MakeHarness(2, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config;
  config.shards = 2;
  TuneServing(*harness, config.serving);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  (*cluster)->Shutdown();
  EXPECT_EQ((*cluster)->Ingest(harness->plan.packets.front()),
            serving::AdmitStatus::kRejectedShutdown);
}

TEST(Cluster, DeadlineRejectionMatchesUnshardedComparison) {
  auto harness = MakeHarness(2, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config;
  config.shards = 2;
  TuneServing(*harness, config.serving);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  serving::IngestPacket late = harness->plan.packets.front();
  late.deadline_s = late.timestamp_s + 0.5;
  clock.Set(late.deadline_s + 1.0);  // Router time already past it.
  EXPECT_EQ((*cluster)->Ingest(late),
            serving::AdmitStatus::kRejectedDeadline);
  (*cluster)->Shutdown();
}

TEST(Cluster, FilteredCheckpointOnlyHoldsOwnedSessions) {
  auto harness = MakeHarness(4, 2);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = FourShardConfig();
  TuneServing(*harness, config.serving);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) { (void)(*cluster)->Ingest(p); },
      [&](std::size_t) { (*cluster)->Flush(); });
  // Each live store only ever holds sessions its placement slot owns
  // (no route-around happened), so migrating every shard keeps every
  // session: total live sessions is invariant across the flips.
  std::size_t before = 0;
  for (std::size_t shard = 0; shard < 4; ++shard)
    before += (*cluster)->StoreOf(shard)->SessionCount();
  EXPECT_GT(before, 0u);
  for (std::size_t shard = 0; shard < 4; ++shard)
    ASSERT_TRUE((*cluster)->Migrate(shard).ok());
  std::size_t after = 0;
  for (std::size_t shard = 0; shard < 4; ++shard)
    after += (*cluster)->StoreOf(shard)->SessionCount();
  EXPECT_EQ(after, before);
  (*cluster)->Shutdown();
}

TEST(ClusterMetrics, EveryMetricListedExactlyOnce) {
  TouchMetrics();
  const std::string dump = common::MetricRegistry::Global().DumpText();

  std::map<std::string, int> second_tokens;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string kind, name;
    if (tokens >> kind >> name) ++second_tokens[name];
  }

  auto names = AllMetricNames();
  EXPECT_FALSE(names.empty());
  for (std::string_view name : names) {
    EXPECT_EQ(second_tokens[std::string(name)], 1)
        << "metric " << name << " not listed exactly once";
    EXPECT_TRUE(name.starts_with("cluster."))
        << "metric " << name << " escapes the cluster.* namespace";
  }
}

}  // namespace
}  // namespace nomloc::cluster

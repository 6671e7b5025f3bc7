// Replication + failover + durable recovery contract (ISSUE 10
// tentpole): every accepted observation is dual-written to its standby
// shard, a crashed primary fails over to that standby without losing a
// bit, Recover() hands the sessions back, the router's write-retry
// budget turns transient backpressure into bounded retries, and a stale
// placement epoch is a typed fence, never a silent overwrite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster.h"
#include "cluster/shard_host.h"
#include "cluster/transport.h"
#include "cluster_golden.h"
#include "common/metrics.h"
#include "serving/clock.h"
#include "serving/service.h"

namespace nomloc::cluster {
namespace {

ClusterConfig ReplicatedConfig(const Harness& harness) {
  ClusterConfig config;
  config.shards = 4;
  config.serving.workers = 2;
  config.replicate = true;
  TuneServing(harness, config.serving);
  return config;
}

TEST(Replication, DualWritePopulatesEveryStandby) {
  auto harness = MakeHarness(4, 2);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  const auto replicated_before =
      common::MetricRegistry::Global().Counter("cluster.replicated").Value();
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t) { (*cluster)->Flush(); });

  // Every primary session must have exactly one warm-standby copy, and
  // never on its own shard.
  std::size_t primaries = 0;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    for (std::uint64_t id : (*cluster)->StoreOf(shard)->ObjectIds(nullptr)) {
      ++primaries;
      std::size_t copies = 0;
      for (std::size_t other = 0; other < 4; ++other) {
        if ((*cluster)->StandbyStoreOf(other)->Contains(id)) {
          ++copies;
          EXPECT_NE(other, shard)
              << "object " << id << " standby on its own primary shard";
        }
      }
      EXPECT_EQ(copies, 1u) << "object " << id;
    }
  }
  EXPECT_GT(primaries, 0u);
  EXPECT_GT(common::MetricRegistry::Global().Counter("cluster.replicated")
                .Value(),
            replicated_before);
  // Dual-writes never change what the cluster answers.
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Replication, CrashFailoverPromotesStandbyAndKeepsBitIdentity) {
  auto harness = MakeHarness(4, 4);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = common::MetricRegistry::Global();
  const auto failovers_before = registry.Counter("cluster.failovers").Value();
  const auto promoted_before =
      registry.Counter("cluster.promoted_sessions").Value();

  const std::size_t victim = (*cluster)->ShardOf(0);
  const std::uint64_t epoch_before = (*cluster)->PlacementEpoch();
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        // Failover keeps the whole stream deliverable: the first packet
        // that finds the primary dead promotes its standby and reroutes.
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 2) {
          // A crash, not a drain: no checkpoint, decoded-but-unapplied
          // bytes die with the host.
          (*cluster)->Kill(victim, /*unclean=*/true);
          EXPECT_FALSE((*cluster)->ShardLive(victim));
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  EXPECT_EQ(registry.Counter("cluster.failovers").Value(),
            failovers_before + 1);
  EXPECT_GT(registry.Counter("cluster.promoted_sessions").Value(),
            promoted_before);
  EXPECT_GT((*cluster)->PlacementEpoch(), epoch_before);
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Replication, RecoverHandsSessionsBackAndKeepsBitIdentity) {
  auto harness = MakeHarness(4, 5);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = common::MetricRegistry::Global();
  const auto recoveries_before =
      registry.Counter("cluster.recoveries").Value();

  const std::size_t victim = (*cluster)->ShardOf(0);
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 2) {
          (*cluster)->Kill(victim, /*unclean=*/true);
        } else if (finished == 3) {
          auto recovered = (*cluster)->Recover(victim);
          ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
          EXPECT_TRUE((*cluster)->ShardLive(victim));
          // Hand-back: the recovered owner holds its sessions again.
          EXPECT_GT((*cluster)->StoreOf(victim)->SessionCount(), 0u);
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  EXPECT_EQ(registry.Counter("cluster.recoveries").Value(),
            recoveries_before + 1);
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Replication, MigrateKeepsStandbyCopiesThroughCrashFailover) {
  // Migrating a host must carry its warm-standby copies along: a crash
  // of the *other* shard right afterwards promotes exactly those copies.
  // Anchors live for 2.5 epochs, so a promoted copy that lost its
  // pre-migration history answers differently from the golden run.
  auto harness = MakeHarness(6, 5);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  config.shards = 2;
  config.serving.store.anchor_ttl_s = 2.5 * harness->replay.epoch_interval_s;
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& promoted = common::MetricRegistry::Global().Counter(
      "cluster.promoted_sessions");
  const auto promoted_before = promoted.Value();

  std::size_t victim_sessions = 0;
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 1) {
          const std::string standby_before =
              (*cluster)->StandbyStoreOf(1)->CheckpointJson(nullptr).Dump();
          auto migrated = (*cluster)->Migrate(1);
          ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
          EXPECT_TRUE((*cluster)->StandbyStoreOf(1)->CheckpointJson(nullptr)
                          .Dump() == standby_before)
              << "migration dropped warm-standby copies";
        } else if (finished == 2) {
          victim_sessions = (*cluster)->StoreOf(0)->SessionCount();
          (*cluster)->Kill(0, /*unclean=*/true);
        } else if (finished == 3) {
          auto recovered = (*cluster)->Recover(0);
          ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  // Every session of the crashed shard came back from its standby.
  EXPECT_GT(victim_sessions, 0u);
  EXPECT_EQ(promoted.Value(), promoted_before + victim_sessions);
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

TEST(Replication, DurableCrashRecoveryReplaysWalToExactState) {
  auto harness = MakeHarness(4, 4);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  config.replicate = false;  // Durability alone must carry the state.
  config.durable_dir = ::testing::TempDir() + "nomloc_durable_recovery";
  config.wal_fsync = false;  // Keep the suite fast; fsync is orthogonal.
  // A previous run's WAL would replay into this one: start clean.
  std::error_code ignored;
  std::filesystem::remove_all(config.durable_dir, ignored);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = common::MetricRegistry::Global();
  const auto replayed_before =
      registry.Counter("serving.wal.replayed_frames").Value();

  const std::size_t victim = (*cluster)->ShardOf(0);
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) {
        EXPECT_EQ((*cluster)->Ingest(p), serving::AdmitStatus::kAccepted);
      },
      [&](std::size_t finished) {
        (*cluster)->Flush();
        if (finished == 2) {
          // Crash and recover within one drained boundary: the WAL alone
          // must rebuild the exact pre-crash state (no standby to lean
          // on, no traffic to mask a hole).
          (*cluster)->Kill(victim, /*unclean=*/true);
          auto recovered = (*cluster)->Recover(victim);
          ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
          EXPECT_GT((*cluster)->StoreOf(victim)->SessionCount(), 0u);
        }
      });
  const auto responses = (*cluster)->TakeResponses();
  (*cluster)->Shutdown();

  EXPECT_GT(registry.Counter("serving.wal.replayed_frames").Value(),
            replayed_before);
  ExpectBitIdentical(responses, GoldenRun(*harness, config.serving));
}

// A crash that no write has found when Recover() runs: no failover has
// promoted the standby copies yet, so the recovery must run it first, or
// the observations in flight at the crash are lost with the primary.
TEST(Replication, RecoverBeforeAnyFailoverKeepsBitParity) {
  auto harness = MakeHarness(4, 3);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  for (std::size_t shard = 0; shard < 4; ++shard) {
    ChaosSchedule schedule;
    schedule.events = {{ChaosKind::kShardKillUnclean, 1.8, 2.0, shard}};
    auto report = RunChaosSchedule(
        harness->engine, harness->plan, harness->replay.epoch_interval_s,
        schedule, ReplicatedConfig(*harness), /*check_parity=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->Executed(ChaosKind::kShardKillUnclean), 1u)
        << "shard " << shard;
    EXPECT_EQ(report->Recovered(ChaosKind::kShardKillUnclean), 1u)
        << "shard " << shard;
    EXPECT_EQ(report->parity_compared, report->outcomes.size());
    EXPECT_EQ(report->parity_mismatches, 0u)
        << "shard " << shard << ": " << report->first_mismatch;
  }
}

TEST(Replication, WriteRetryBudgetRetriesThenRejectsTyped) {
  auto harness = MakeHarness(2, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config;
  config.shards = 1;
  config.serving.store.anchor_ttl_s = harness->plan.suggested_anchor_ttl_s;
  config.serving.expected_anchors = harness->plan.expected_anchors;
  // A pipe too small for one observation frame, stalled so it never
  // drains: every retry sees the same backpressure.
  config.transport.loopback_capacity_bytes = serving::kWireHeaderBytes + 8;
  config.write_retry_budget = 2;

  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& retries = common::MetricRegistry::Global()
                      .Counter("cluster.write_retries");
  const auto retries_before = retries.Value();
  ASSERT_TRUE((*cluster)->SetStalled(0, true));
  const serving::IngestPacket& packet = harness->plan.packets.front();
  clock.Set(packet.timestamp_s);
  EXPECT_EQ((*cluster)->Ingest(packet),
            serving::AdmitStatus::kRejectedQueueFull);
  EXPECT_EQ(retries.Value(), retries_before + 2);  // Budget exhausted.
  ASSERT_TRUE((*cluster)->SetStalled(0, false));
  (*cluster)->Shutdown();
}

TEST(Replication, StaleEpochReplicateIsTypedFence) {
  auto harness = MakeHarness(2, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto pair = ConnectLinkPair(TransportConfig{});
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  serving::ServingConfig serving;
  serving.workers = 1;
  serving.expected_anchors = harness->plan.expected_anchors;
  ShardHostOptions options;
  options.placement_epoch = 2;
  auto host = ShardHost::Create(harness->engine, serving,
                                std::move(pair->host_end), options);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  auto& stale = common::MetricRegistry::Global()
                    .Counter("cluster.placement.stale_epoch");
  const auto stale_before = stale.Value();

  serving::WireReplicate replicate;
  replicate.slot = 1;
  replicate.packet = harness->plan.packets.front();
  replicate.packet.kind = serving::PacketKind::kObservation;

  // A router that lost the failover race stamps the old epoch: typed
  // rejection, standby untouched.
  replicate.epoch = 1;
  EXPECT_EQ((*host)->ApplyReplicate(replicate),
            serving::AdmitStatus::kRejectedStaleEpoch);
  EXPECT_EQ(stale.Value(), stale_before + 1);
  EXPECT_EQ((*host)->StandbyStore().SessionCount(), 0u);

  // The current (or a newer) epoch applies.
  replicate.epoch = 2;
  EXPECT_EQ((*host)->ApplyReplicate(replicate),
            serving::AdmitStatus::kAccepted);
  EXPECT_TRUE(
      (*host)->StandbyStore().Contains(replicate.packet.object_id));
  pair->router_end->Close();
  (*host)->Stop();
}

// The standby applies the same observation screen as the primary's
// Ingest: a corrupt report the primary rejects must not land in the
// copy a failover would promote.
TEST(Replication, StandbyRejectsWhatThePrimaryRejects) {
  auto harness = MakeHarness(1, 1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();

  constexpr std::uint64_t kObject = 7;
  const auto observation = [&](int ap_id, double pdp, double t_s) {
    serving::IngestPacket packet;
    packet.object_id = kObject;
    packet.ap_id = ap_id;
    packet.reported_position = {1.0 + ap_id, 1.0};
    packet.pdp = pdp;
    packet.timestamp_s = t_s;
    return packet;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const serving::IngestPacket& packet :
       {observation(0, 0.5, 0.0), observation(1, 0.25, 0.0),
        observation(2, nan, 0.0), observation(3, 0.5, inf)})
    (void)(*cluster)->Ingest(packet);
  (*cluster)->Flush();

  std::size_t primaries = 0, standbys = 0;
  for (std::size_t shard = 0; shard < config.shards; ++shard) {
    for (serving::SessionStore* store :
         {(*cluster)->StoreOf(shard), (*cluster)->StandbyStoreOf(shard)}) {
      auto snapshot = store->Snapshot(kObject, 0.0);
      if (!snapshot.ok()) continue;
      ++(store == (*cluster)->StoreOf(shard) ? primaries : standbys);
      ASSERT_EQ(snapshot->anchors.size(), 2u) << "shard " << shard;
      for (const localization::Anchor& anchor : snapshot->anchors)
        EXPECT_TRUE(std::isfinite(anchor.pdp)) << "shard " << shard;
    }
  }
  EXPECT_EQ(primaries, 1u);
  EXPECT_EQ(standbys, 1u);
  (*cluster)->Shutdown();
}

TEST(Replication, ConcurrentIngestAfterCrashPromotesExactlyOnce) {
  // The tsan-checked race: several router-side callers all find the
  // primary dead at once (half-open probes included) — exactly one
  // promotion may happen, and every caller's packet must still land.
  // Racing packets reach the promoted host while the repair runs (and the
  // recovered owner before its hand-back), so they cover only half of the
  // victim's objects: the other half must come through both moves with
  // exactly their pre-crash state.  A repair that drops a whole batch
  // when one racing object already has a live session fails this.
  auto harness = MakeHarness(256, 2);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  ClusterConfig config = ReplicatedConfig(*harness);
  config.shard_breaker.failure_threshold = 1;  // Trip on first failure.
  config.shard_breaker.base_backoff_s = 1e-4;  // Probe almost instantly.
  config.shard_breaker.max_backoff_s = 1e-3;
  serving::ManualClock clock;
  auto cluster = Cluster::Create(harness->engine, config, &clock);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto& registry = common::MetricRegistry::Global();
  const auto failovers_before = registry.Counter("cluster.failovers").Value();

  // Seed sessions so the promotion has something to move.
  Replay(
      *harness, clock,
      [&](const serving::IngestPacket& p) { (void)(*cluster)->Ingest(p); },
      [&](std::size_t) { (*cluster)->Flush(); });

  const std::size_t victim = (*cluster)->ShardOf(0);
  std::vector<std::uint64_t> victim_ids =
      (*cluster)->StoreOf(victim)->ObjectIds(nullptr);
  std::sort(victim_ids.begin(), victim_ids.end());
  struct StandbyCopy {
    std::size_t shard = 0;
    std::string dump;
  };
  std::set<std::uint64_t> raced;
  std::map<std::uint64_t, StandbyCopy> untouched;
  for (std::size_t k = 0; k < victim_ids.size(); ++k) {
    const std::uint64_t id = victim_ids[k];
    if (k % 2 == 0) {
      raced.insert(id);
      continue;
    }
    for (std::size_t shard = 0; shard < config.shards; ++shard)
      if ((*cluster)->StandbyStoreOf(shard)->Contains(id))
        untouched[id] = {shard, (*cluster)
                                    ->StandbyStoreOf(shard)
                                    ->CheckpointJson([id](std::uint64_t other) {
                                      return other == id;
                                    })
                                    .Dump()};
  }
  ASSERT_FALSE(untouched.empty());
  (*cluster)->Kill(victim, /*unclean=*/true);

  // Observations of the raced objects, sent from 4 threads one object
  // after another and paced, so that objects new to the receiving store
  // keep arriving while the repair runs.
  std::vector<serving::IngestPacket> victim_packets;
  for (const serving::IngestPacket& p : harness->plan.packets)
    if (p.kind == serving::PacketKind::kObservation &&
        raced.count(p.object_id) != 0)
      victim_packets.push_back(p);
  ASSERT_FALSE(victim_packets.empty());
  std::stable_sort(victim_packets.begin(), victim_packets.end(),
                   [](const serving::IngestPacket& a,
                      const serving::IngestPacket& b) {
                     return a.object_id < b.object_id;
                   });
  std::atomic<std::size_t> accepted{0};
  const auto race = [&](double race_t, const std::function<void()>& alongside) {
    clock.Set(race_t);
    for (serving::IngestPacket& p : victim_packets) {
      p.timestamp_s = race_t;
      p.deadline_s = race_t + 10.0;
    }
    accepted.store(0);
    std::vector<std::thread> threads;
    for (int thread_index = 0; thread_index < 4; ++thread_index) {
      threads.emplace_back([&, thread_index] {
        for (std::size_t k = std::size_t(thread_index);
             k < victim_packets.size(); k += 4) {
          if ((*cluster)->Ingest(victim_packets[k]) ==
              serving::AdmitStatus::kAccepted)
            accepted.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
    }
    alongside();
    for (std::thread& t : threads) t.join();
    (*cluster)->Flush();
  };
  // Every untouched session sits, byte for byte as its standby copy had
  // it, on exactly one live primary store: its promoted standby host
  // after the failover, the victim again after the recovery.
  const auto expect_untouched = [&](bool recovered) {
    for (const auto& [id, copy] : untouched) {
      std::size_t holders = 0;
      for (std::size_t shard = 0; shard < config.shards; ++shard) {
        if (!(*cluster)->ShardLive(shard) ||
            !(*cluster)->StoreOf(shard)->Contains(id))
          continue;
        ++holders;
        EXPECT_EQ(shard, recovered ? victim : copy.shard) << "object " << id;
        EXPECT_EQ((*cluster)->StoreOf(shard)
                      ->CheckpointJson([id](std::uint64_t other) {
                        return other == id;
                      })
                      .Dump(),
                  copy.dump)
            << "object " << id << " lost its pre-crash state";
      }
      EXPECT_EQ(holders, 1u) << "object " << id;
    }
  };

  const double last_t = harness->plan.packets.back().timestamp_s;
  race(last_t + 1.0, [] {});
  EXPECT_EQ(registry.Counter("cluster.failovers").Value(),
            failovers_before + 1);  // Exactly one promotion.
  EXPECT_EQ(accepted.load(), victim_packets.size());  // Nothing dropped.
  expect_untouched(/*recovered=*/false);

  race(last_t + 2.0, [&] {
    auto recovered = (*cluster)->Recover(victim);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  });
  EXPECT_EQ(accepted.load(), victim_packets.size());
  expect_untouched(/*recovered=*/true);
  (*cluster)->Shutdown();
}

}  // namespace
}  // namespace nomloc::cluster

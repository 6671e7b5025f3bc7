// Serving-at-scale smoke: stands up 10k sessions through the real
// service with a loadgen schedule and checks the memory contract
// (bytes/session within the per-shard budget model), pressure eviction,
// and the incremental sweep.  perfbench's serve_1m workload runs the 1M
// session load; this is the ctest-sized slice (label `serving-scale`,
// also run under NOMLOC_SANITIZE=thread).
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "common/assert.h"
#include "common/metrics.h"
#include "core/nomloc.h"
#include "serving/clock.h"
#include "serving/loadgen.h"
#include "serving/service.h"
#include "serving/session_store.h"

namespace nomloc::serving {
namespace {

constexpr std::size_t kSessions = 10'000;

PdpObservation Obs(double pdp, double weight, double t_s) {
  PdpObservation obs;
  obs.pdp = pdp;
  obs.weight = weight;
  obs.timestamp_s = t_s;
  return obs;
}

TEST(ServingScale, TenThousandSessionsWithinByteBudget) {
  auto engine = core::NomLocEngine::Create(
      geometry::Polygon::Rectangle(0.0, 0.0, 30.0, 30.0));
  ASSERT_TRUE(engine.ok());

  LoadGenConfig load;
  load.objects = kSessions;
  load.anchors_per_object = 3;
  load.packets = 5'000;
  load.rate_per_s = 100'000.0;
  load.seed = 7;
  const LoadSchedule schedule = BuildLoadSchedule(load);

  ManualClock clock;
  ServingConfig config;
  config.workers = 1;
  config.queue_capacity =
      schedule.populate.size() + schedule.steady.size() + 1;
  config.store.shards = 64;
  config.store.reserve_sessions = kSessions;
  config.store.reserve_anchors = kSessions * load.anchors_per_object;
  config.store.reserve_observations =
      kSessions * load.anchors_per_object + load.packets;
  auto service = StreamingLocalizer::Create(*engine, config, &clock);
  ASSERT_TRUE(service.ok());

  for (const IngestPacket& packet : schedule.populate)
    ASSERT_EQ((*service)->Ingest(packet), AdmitStatus::kAccepted);
  (*service)->Flush();

  const MemoryStats after_populate = (*service)->Store().Memory();
  EXPECT_EQ(after_populate.sessions, kSessions);
  EXPECT_EQ(after_populate.anchors, kSessions * load.anchors_per_object);
  ASSERT_GT(after_populate.sessions, 0u);
  // The headline memory contract: live footprint per session stays within
  // the 512 B/session budget the 1M benchmark is provisioned against.
  EXPECT_LE(after_populate.live_bytes / after_populate.sessions, 512u);
  EXPECT_GE(after_populate.resident_bytes, after_populate.live_bytes);

  for (const ScheduledPacket& scheduled : schedule.steady) {
    clock.Set(scheduled.send_offset_s);
    ASSERT_EQ((*service)->Ingest(scheduled.packet), AdmitStatus::kAccepted);
  }
  (*service)->Flush();

  std::size_t queries = 0;
  for (const ScheduledPacket& scheduled : schedule.steady)
    if (scheduled.packet.kind == PacketKind::kQuery) ++queries;
  EXPECT_EQ((*service)->TakeResponses().size(), queries);
  EXPECT_EQ((*service)->Store().SessionCount(), kSessions);
}

TEST(ServingScale, PressureEvictionHoldsShardUnderBudget) {
  auto& pressure = common::MetricRegistry::Global().Counter(
      "serving.evictions.pressure");
  const auto pressure_before = pressure.Value();

  SessionStoreConfig config;
  config.shards = 1;
  config.anchor_ttl_s = 1e9;       // no time decay in this test
  config.session_idle_ttl_s = 1e9;
  config.shard_bytes_budget = 16 * 1024;
  SessionStore store(config);

  for (std::uint64_t id = 0; id < 500; ++id)
    store.Upsert(id, {0, 0}, {1.0, 1.0}, false,
                 Obs(0.5, 1.0, double(id)), double(id));

  const MemoryStats stats = store.Memory();
  EXPECT_LE(stats.live_bytes, config.shard_bytes_budget);
  EXPECT_LT(store.SessionCount(), 500u);
  EXPECT_GT(store.SessionCount(), 1u);
  EXPECT_GT(pressure.Value(), pressure_before);

  // Sampled LRU: the most recently touched sessions should largely have
  // survived; the newest one is always protected.
  EXPECT_TRUE(store.Snapshot(499, 499.0).ok());

  // A shard with holes: fill it to 40 KiB of a 64 KiB budget, erase every
  // other session, then grow the survivors' histories until the budget
  // bites.  The sampled-LRU draws now land on freed slab slots and must
  // walk on to a live one.
  SessionStoreConfig holed_config = config;
  holed_config.shard_bytes_budget = 64 * 1024;
  SessionStore holed(holed_config);
  std::uint64_t sessions = 0;
  double now = 0.0;
  for (; holed.Memory().live_bytes < 40 * 1024; ++sessions, now += 1.0)
    holed.Upsert(sessions, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, now),
                 now);
  for (std::uint64_t id = 0; id < sessions; id += 2)
    ASSERT_TRUE(holed.Erase(id));

  const auto holed_before = pressure.Value();
  std::uint64_t touched = 1;
  for (std::uint64_t k = 0; k < 100'000 && pressure.Value() == holed_before;
       ++k, now += 1.0) {
    touched = 1 + 2 * (k % (sessions / 2));
    holed.Upsert(touched, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, now), now);
  }
  EXPECT_GT(pressure.Value(), holed_before);
  EXPECT_LE(holed.Memory().live_bytes, holed_config.shard_bytes_budget);
  EXPECT_TRUE(holed.Contains(touched));
}

TEST(ServingScale, UnlimitedBudgetNeverEvictsForPressure) {
  auto& pressure = common::MetricRegistry::Global().Counter(
      "serving.evictions.pressure");
  const auto pressure_before = pressure.Value();

  SessionStoreConfig config;
  config.shards = 1;
  config.shard_bytes_budget = 0;  // unlimited
  SessionStore store(config);
  for (std::uint64_t id = 0; id < 500; ++id)
    store.Upsert(id, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, 0.0), 0.0);
  EXPECT_EQ(store.SessionCount(), 500u);
  EXPECT_EQ(pressure.Value(), pressure_before);
}

TEST(ServingScale, SweepStepConvergesToFullSweep) {
  SessionStoreConfig config;
  config.shards = 1;
  config.anchor_ttl_s = 10.0;
  config.session_idle_ttl_s = 20.0;
  SessionStore store(config);
  for (std::uint64_t id = 0; id < 200; ++id)
    store.Upsert(id, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, 0.0), 0.0);
  ASSERT_EQ(store.SessionCount(), 200u);

  // Everything is idle at t=100.  Stepping 16 slots at a time must visit
  // every slot within ceil(capacity/16) rounds (round-robin cursor), even
  // though no single step covers the shard.
  std::size_t evicted = 0;
  for (int round = 0; round < 4096 && store.SessionCount() > 0; ++round)
    evicted += store.SweepStep(0, 100.0, 16);
  EXPECT_EQ(evicted, 200u);
  EXPECT_EQ(store.SessionCount(), 0u);
}

TEST(ServingScale, MemoryStatsShrinkAfterSweep) {
  SessionStoreConfig config;
  config.shards = 4;
  config.anchor_ttl_s = 10.0;
  config.session_idle_ttl_s = 20.0;
  SessionStore store(config);
  for (std::uint64_t id = 0; id < 300; ++id)
    store.Upsert(id, {int(id % 3), 0}, {1.0, 1.0}, false,
                 Obs(0.5, 1.0, 0.0), 0.0);
  const MemoryStats full = store.Memory();
  EXPECT_EQ(full.sessions, 300u);
  EXPECT_EQ(full.anchors, 300u);
  EXPECT_EQ(full.observations, 300u);
  EXPECT_GT(full.live_bytes, 0u);

  EXPECT_EQ(store.SweepAll(100.0), 300u);
  const MemoryStats swept = store.Memory();
  EXPECT_EQ(swept.sessions, 0u);
  EXPECT_EQ(swept.observations, 0u);
  EXPECT_LT(swept.live_bytes, full.live_bytes);
  // Slab capacity is retained for reuse — resident does not shrink.
  EXPECT_GE(swept.resident_bytes, full.resident_bytes);
}

}  // namespace
}  // namespace nomloc::serving

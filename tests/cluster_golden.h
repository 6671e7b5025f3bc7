// Shared fixture for the cluster suites: a small lab replay plan, the
// epoch-by-epoch replay loop, and the golden comparator — one unsharded
// StreamingLocalizer over the same stream, and a bit-for-bit compare of
// every WireResponse field against it.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "eval/scenario.h"
#include "serving/clock.h"
#include "serving/replay.h"
#include "serving/service.h"
#include "serving/wire.h"

namespace nomloc::cluster {

struct Harness {
  eval::Scenario scenario;
  serving::ReplayConfig replay;
  serving::ReplayPlan plan;
  core::NomLocEngine engine;
};

inline common::Result<Harness> MakeHarness(std::size_t objects,
                                           std::size_t epochs) {
  NOMLOC_ASSIGN_OR_RETURN(eval::Scenario scenario,
                          eval::ScenarioByName("lab"));
  serving::ReplayConfig replay;
  replay.objects = objects;
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

/// The plan's anchor TTL and expected anchors, and an idle TTL of ten
/// epochs: the settings under which each epoch is self-contained.
inline void TuneServing(const Harness& harness,
                        serving::ServingConfig& serving) {
  serving.store.anchor_ttl_s = harness.plan.suggested_anchor_ttl_s;
  serving.store.session_idle_ttl_s = 10.0 * harness.replay.epoch_interval_s;
  serving.expected_anchors = harness.plan.expected_anchors;
}

/// Replays the plan epoch-by-epoch (flush at each boundary), invoking
/// `at_boundary(epoch_just_finished)` between epochs.
template <typename Sink, typename AtBoundary>
void Replay(const Harness& harness, serving::ManualClock& clock, Sink&& sink,
            AtBoundary&& at_boundary) {
  std::size_t next = 0;
  const auto& stream = harness.plan.packets;
  for (std::size_t e = 0; e < harness.plan.epoch_count; ++e) {
    const double epoch_end_s =
        double(e + 1) * harness.replay.epoch_interval_s;
    while (next < stream.size() && stream[next].timestamp_s < epoch_end_s) {
      clock.Set(stream[next].timestamp_s);
      sink(stream[next]);
      ++next;
    }
    at_boundary(e + 1);
  }
}

/// A response answers exactly one (object, query time).
using ResponseKey = std::pair<std::uint64_t, std::uint64_t>;

inline std::uint64_t Bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

inline ResponseKey KeyOf(std::uint64_t object_id, double timestamp_s) {
  return {object_id, Bits(timestamp_s)};
}

/// Unsharded golden twin of the same replay, in wire form.
inline std::map<ResponseKey, serving::WireResponse> GoldenRun(
    const Harness& harness, serving::ServingConfig serving) {
  serving::ManualClock clock;
  auto service =
      serving::StreamingLocalizer::Create(harness.engine, serving, &clock);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  Replay(
      harness, clock,
      [&](const serving::IngestPacket& p) { (void)(*service)->Ingest(p); },
      [&](std::size_t) { (*service)->Flush(); });
  (*service)->Shutdown();
  std::map<ResponseKey, serving::WireResponse> golden;
  for (const serving::ServeResponse& r : (*service)->TakeResponses())
    golden[KeyOf(r.object_id, r.timestamp_s)] = serving::ToWireResponse(r);
  return golden;
}

/// Every response must have a golden twin and match it in every wire
/// field, doubles as raw bits.  With `route_around`, a response served by
/// a shard other than its object's owner (ShardOf) is exempt from
/// `degraded` only: the fallback shard's fresh session has not counted
/// the keys that aged out before the reroute, so it can report false
/// where the unsharded run reports true.
inline void ExpectBitIdentical(
    const std::vector<ClusterResponse>& responses,
    const std::map<ResponseKey, serving::WireResponse>& golden,
    const Cluster* route_around = nullptr) {
  ASSERT_EQ(responses.size(), golden.size());
  std::set<ResponseKey> seen;
  for (const ClusterResponse& received : responses) {
    const serving::WireResponse& r = received.response;
    const ResponseKey key = KeyOf(r.object_id, r.timestamp_s);
    ASSERT_TRUE(seen.insert(key).second)
        << "duplicate response for object " << r.object_id;
    const auto golden_it = golden.find(key);
    ASSERT_NE(golden_it, golden.end())
        << "no golden twin for object " << r.object_id;
    const serving::WireResponse& want = golden_it->second;
    SCOPED_TRACE(::testing::Message() << "object " << r.object_id
                                      << " t=" << r.timestamp_s << " shard "
                                      << received.shard);
    EXPECT_EQ(r.status, want.status);
    EXPECT_EQ(r.degradation, want.degradation);
    if (route_around == nullptr ||
        received.shard == route_around->ShardOf(r.object_id)) {
      EXPECT_EQ(r.degraded, want.degraded);
    }
    EXPECT_EQ(r.anchor_count, want.anchor_count);
    EXPECT_EQ(Bits(r.position.x), Bits(want.position.x));
    EXPECT_EQ(Bits(r.position.y), Bits(want.position.y));
    EXPECT_EQ(Bits(r.relaxation_cost), Bits(want.relaxation_cost));
    EXPECT_EQ(Bits(r.feasible_area_m2), Bits(want.feasible_area_m2));
    EXPECT_EQ(Bits(r.confidence), Bits(want.confidence));
  }
}

}  // namespace nomloc::cluster

#include "serving/session_store.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/nomloc.h"
#include "geometry/polygon.h"
#include "serving/clock.h"

namespace nomloc::serving {
namespace {

SessionStoreConfig SmallStore(double ttl_s = 10.0) {
  SessionStoreConfig config;
  config.shards = 4;
  config.anchor_ttl_s = ttl_s;
  config.session_idle_ttl_s = 100.0;
  return config;
}

PdpObservation Obs(double pdp, double weight, double t_s) {
  PdpObservation obs;
  obs.pdp = pdp;
  obs.weight = weight;
  obs.timestamp_s = t_s;
  return obs;
}

TEST(SessionStoreConfig, ValidatesKnobs) {
  EXPECT_TRUE(SmallStore().Validate().ok());
  SessionStoreConfig bad = SmallStore();
  bad.shards = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = SmallStore();
  bad.anchor_ttl_s = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(SessionStore, ShardRoutingIsStableAndInRange) {
  SessionStore store(SmallStore());
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t shard = store.ShardOf(id);
    EXPECT_LT(shard, store.ShardCount());
    EXPECT_EQ(shard, store.ShardOf(id));
  }
}

TEST(SessionStore, SnapshotSortsAnchorsByKeyAndPassesPdpThrough) {
  SessionStore store(SmallStore());
  // Inserted out of key order on purpose.
  store.Upsert(7, {2, 0}, {2.0, 0.0}, false, Obs(0.3, 1.0, 0.0), 0.0);
  store.Upsert(7, {0, 1}, {0.0, 1.0}, true, Obs(0.1, 1.0, 0.0), 0.0);
  store.Upsert(7, {0, 0}, {0.0, 0.0}, true, Obs(0.2, 1.0, 0.0), 0.0);

  auto snapshot = store.Snapshot(7, 1.0);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->anchors.size(), 3u);
  EXPECT_EQ(snapshot->live_keys, 3u);
  EXPECT_EQ(snapshot->keys_ever, 3u);
  // (0,0) < (0,1) < (2,0); single observations pass through bit-exactly.
  EXPECT_EQ(snapshot->anchors[0].pdp, 0.2);
  EXPECT_EQ(snapshot->anchors[1].pdp, 0.1);
  EXPECT_EQ(snapshot->anchors[2].pdp, 0.3);
  EXPECT_TRUE(snapshot->anchors[0].is_nomadic_site);
  EXPECT_FALSE(snapshot->anchors[2].is_nomadic_site);

  EXPECT_FALSE(store.Snapshot(8, 1.0).ok());  // unknown object
}

TEST(SessionStore, SnapshotWeightAveragesRepeatedReports) {
  SessionStore store(SmallStore());
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 3.0, 0.0), 0.0);
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(2.0, 1.0, 1.0), 1.0);

  auto snapshot = store.Snapshot(1, 2.0);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->anchors.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot->anchors[0].pdp, (1.0 * 3.0 + 2.0 * 1.0) / 4.0);
}

TEST(SessionStore, LatestReportedPositionWins) {
  SessionStore store(SmallStore());
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);
  store.Upsert(1, {0, 0}, {3.0, 4.0}, false, Obs(1.0, 1.0, 1.0), 1.0);

  auto snapshot = store.Snapshot(1, 2.0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->anchors[0].position.x, 3.0);
  EXPECT_EQ(snapshot->anchors[0].position.y, 4.0);
}

TEST(SessionStore, TimeDecayEvictsStaleObservationsAndAnchors) {
  ManualClock clock;
  SessionStore store(SmallStore(/*ttl_s=*/10.0));
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);
  store.Upsert(1, {1, 0}, {1.0, 0.0}, false, Obs(2.0, 1.0, 8.0), 8.0);

  clock.Set(9.0);  // both inside the TTL window
  auto young = store.Snapshot(1, clock.NowSeconds());
  ASSERT_TRUE(young.ok());
  EXPECT_EQ(young->anchors.size(), 2u);

  clock.Set(11.0);  // the t=0 observation is now 11 s old
  auto aged = store.Snapshot(1, clock.NowSeconds());
  ASSERT_TRUE(aged.ok());
  ASSERT_EQ(aged->anchors.size(), 1u);
  EXPECT_EQ(aged->anchors[0].pdp, 2.0);
  EXPECT_EQ(aged->live_keys, 1u);
  EXPECT_EQ(aged->keys_ever, 2u);  // the degradation signal
}

TEST(SessionStore, SweepEvictsIdleSessions) {
  SessionStoreConfig config = SmallStore();
  config.session_idle_ttl_s = 20.0;
  SessionStore store(config);
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);
  store.Upsert(2, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 15.0), 15.0);
  EXPECT_EQ(store.SessionCount(), 2u);

  EXPECT_EQ(store.SweepAll(21.0), 1u);  // only object 1 went idle
  EXPECT_EQ(store.SessionCount(), 1u);
  EXPECT_FALSE(store.Snapshot(1, 21.0).ok());
  EXPECT_TRUE(store.Snapshot(2, 21.0).ok());
}

// The paper's core time-decay property: once a nomadic AP has moved on,
// its old-site judgements must age out, and the SP feasible cell of a
// query that only sees the surviving constraints re-expands (fewer
// half-planes can only grow the intersection).
TEST(SessionStore, NomadicJudgementDecayReexpandsFeasibleCell) {
  auto engine = core::NomLocEngine::Create(
      geometry::Polygon::Rectangle(0.0, 0.0, 10.0, 10.0));
  ASSERT_TRUE(engine.ok());

  ManualClock clock;
  SessionStore store(SmallStore(/*ttl_s=*/10.0));
  // Two static APs measured now, plus two nomadic dwell-site anchors
  // measured early (they will age out first).  PDPs are consistent with
  // an object near (4, 4).
  store.Upsert(1, {0, 0}, {1.0, 1.0}, false, Obs(0.50, 1.0, 9.0), 9.0);
  store.Upsert(1, {1, 0}, {9.0, 9.0}, false, Obs(0.10, 1.0, 9.0), 9.0);
  store.Upsert(1, {2, 0}, {1.0, 9.0}, true, Obs(0.20, 1.0, 1.0), 1.0);
  store.Upsert(1, {2, 1}, {9.0, 1.0}, true, Obs(0.25, 1.0, 2.0), 2.0);

  const auto solve = [&](double now_s) {
    clock.Set(now_s);
    auto snapshot = store.Snapshot(1, clock.NowSeconds());
    EXPECT_TRUE(snapshot.ok());
    core::LocateRequest request;
    request.anchors = snapshot->anchors;
    auto response = engine->Locate(request);
    EXPECT_TRUE(response.ok());
    return std::pair(snapshot->anchors.size(),
                     response->estimate.feasible_area_m2);
  };

  const auto [full_count, full_area] = solve(9.5);
  const auto [decayed_count, decayed_area] = solve(13.0);
  EXPECT_EQ(full_count, 4u);
  EXPECT_EQ(decayed_count, 2u);  // the nomadic judgements aged out
  EXPECT_GT(full_area, 0.0);
  // Dropping constraints can only grow the relaxed feasible region.
  EXPECT_GE(decayed_area, full_area);
  EXPECT_GT(decayed_area, full_area * 1.01);  // and here it strictly does
}

// --- TTL clock-edge behaviour ------------------------------------------

// Eviction is `now - t > ttl`: an observation aged exactly one TTL is
// still live — the boundary belongs to the survivor.
TEST(SessionStore, ObservationExactlyAtTtlBoundarySurvives) {
  SessionStore store(SmallStore(/*ttl_s=*/10.0));
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);

  auto at_edge = store.Snapshot(1, 10.0);  // age == ttl, not older
  ASSERT_TRUE(at_edge.ok());
  EXPECT_EQ(at_edge->anchors.size(), 1u);

  auto past_edge = store.Snapshot(1, 10.0 + 1e-9);
  ASSERT_TRUE(past_edge.ok());
  EXPECT_EQ(past_edge->anchors.size(), 0u);
  EXPECT_EQ(past_edge->keys_ever, 1u);
}

// A backward clock jump must not evict anything: negative ages are
// younger than any TTL, and the store must not crash or wrap.
TEST(SessionStore, BackwardClockJumpEvictsNothing) {
  SessionStore store(SmallStore(/*ttl_s=*/10.0));
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 50.0), 50.0);
  store.Upsert(1, {1, 0}, {1.0, 0.0}, false, Obs(2.0, 1.0, 55.0), 55.0);

  auto rewound = store.Snapshot(1, 3.0);  // clock stepped back 52 s
  ASSERT_TRUE(rewound.ok());
  EXPECT_EQ(rewound->anchors.size(), 2u);
  EXPECT_EQ(store.SweepAll(3.0), 0u);

  // Time resumes: the normal decay schedule still applies.
  auto resumed = store.Snapshot(1, 61.0);
  ASSERT_TRUE(resumed.ok());
  ASSERT_EQ(resumed->anchors.size(), 1u);
  EXPECT_EQ(resumed->anchors[0].pdp, 2.0);
}

// After every observation ages out the session survives (keys_ever keeps
// the degradation signal), and a fresh report re-populates it.
TEST(SessionStore, RecreationAfterFullEviction) {
  SessionStore store(SmallStore(/*ttl_s=*/10.0));
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);

  auto empty = store.Snapshot(1, 20.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->anchors.size(), 0u);
  EXPECT_EQ(empty->keys_ever, 1u);

  store.Upsert(1, {0, 0}, {2.0, 2.0}, false, Obs(3.0, 1.0, 21.0), 21.0);
  auto reborn = store.Snapshot(1, 22.0);
  ASSERT_TRUE(reborn.ok());
  ASSERT_EQ(reborn->anchors.size(), 1u);
  EXPECT_EQ(reborn->anchors[0].pdp, 3.0);
  EXPECT_EQ(reborn->anchors[0].position.x, 2.0);
}

// --- last-known-good + checkpoint/restore ------------------------------

TEST(SessionStore, LastGoodIsTypedNotFoundUntilRecorded) {
  SessionStore store(SmallStore());
  auto missing_session = store.LastGood(1);
  ASSERT_FALSE(missing_session.ok());
  EXPECT_EQ(missing_session.status().code(), common::StatusCode::kNotFound);

  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);
  auto no_estimate = store.LastGood(1);
  ASSERT_FALSE(no_estimate.ok());
  EXPECT_EQ(no_estimate.status().code(), common::StatusCode::kNotFound);

  LastKnownGood lkg;
  lkg.position = {4.0, 5.0};
  lkg.confidence = 0.8;
  lkg.timestamp_s = 1.0;
  store.RecordEstimate(1, lkg, 1.0);
  auto stored = store.LastGood(1);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->position.x, 4.0);
  EXPECT_EQ(stored->confidence, 0.8);
}

TEST(SessionStore, CheckpointRestoreRoundTripsBitExactly) {
  SessionStore store(SmallStore());
  store.Upsert(7, {2, 0}, {2.0, 0.0}, false, Obs(0.3, 2.0, 1.0), 1.0);
  store.Upsert(7, {0, 1}, {0.5, 1.0}, true, Obs(0.1, 1.0, 2.0), 2.0);
  store.Upsert(9, {0, 0}, {3.0, 3.0}, false, Obs(0.7, 1.0, 2.5), 2.5);
  LastKnownGood lkg;
  lkg.position = {1.25, 2.5};
  lkg.confidence = 0.625;
  lkg.timestamp_s = 2.0;
  store.RecordEstimate(7, lkg, 2.5);

  const common::Json checkpoint = store.CheckpointJson();

  // Restore into a store with a different shard count: the checkpoint is
  // layout-independent.
  SessionStoreConfig other = SmallStore();
  other.shards = 2;
  SessionStore restored(other);
  auto count = restored.RestoreFromJson(checkpoint);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 2u);

  auto a = store.Snapshot(7, 3.0);
  auto b = restored.Snapshot(7, 3.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->anchors.size(), b->anchors.size());
  for (std::size_t i = 0; i < a->anchors.size(); ++i) {
    EXPECT_EQ(a->anchors[i].pdp, b->anchors[i].pdp);
    EXPECT_EQ(a->anchors[i].position, b->anchors[i].position);
    EXPECT_EQ(a->anchors[i].is_nomadic_site, b->anchors[i].is_nomadic_site);
  }
  auto lkg_restored = restored.LastGood(7);
  ASSERT_TRUE(lkg_restored.ok());
  EXPECT_EQ(lkg_restored->position.x, 1.25);
  EXPECT_EQ(lkg_restored->confidence, 0.625);
  // And the second checkpoint is byte-identical — restore is lossless.
  EXPECT_EQ(restored.CheckpointJson().Dump(), checkpoint.Dump());
}

// Regression: a checkpoint listing the same object twice must be rejected
// as corruption (the second entry would silently clobber the first), and
// the failed restore must leave the store untouched.
TEST(SessionStore, RestoreRejectsDuplicateObjectId) {
  SessionStore source(SmallStore());
  source.Upsert(42, {0, 0}, {1.0, 2.0}, false, Obs(0.5, 1.0, 0.0), 0.0);
  common::Json checkpoint = source.CheckpointJson();
  common::JsonArray& sessions =
      checkpoint.AsObject().at("sessions").AsArray();
  ASSERT_EQ(sessions.size(), 1u);
  sessions.push_back(sessions[0]);  // object 42 now listed twice

  SessionStore store(SmallStore());
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);
  auto restore = store.RestoreFromJson(checkpoint);
  ASSERT_FALSE(restore.ok());
  EXPECT_EQ(restore.status().code(), common::StatusCode::kDataCorruption);
  EXPECT_NE(restore.status().message().find("duplicate object_id 42"),
            std::string::npos);
  EXPECT_TRUE(store.Snapshot(1, 1.0).ok());
  EXPECT_FALSE(store.Snapshot(42, 1.0).ok());
}

// Checkpoint determinism: flat-map iteration order depends on insertion
// history, so CheckpointJson must sort by object id — two stores holding
// the same sessions inserted in opposite orders checkpoint to identical
// bytes.  (Golden byte-compare, not structural compare: downstream
// tooling hashes checkpoint files.)
TEST(SessionStore, CheckpointBytesIndependentOfInsertOrder) {
  const std::vector<std::uint64_t> ids = {901, 3, 77, 12, 450, 8, 1024};
  const auto build = [&](bool reversed) {
    auto store = std::make_unique<SessionStore>(SmallStore());
    std::vector<std::uint64_t> order = ids;
    if (reversed) std::reverse(order.begin(), order.end());
    for (const std::uint64_t id : order) {
      store->Upsert(id, {int(id % 5), 0}, {double(id % 7), 1.0}, false,
                    Obs(0.25 * double(id % 4 + 1), 1.0, 0.0), 0.0);
      store->Upsert(id, {int(id % 5), 1}, {double(id % 3), 2.0}, true,
                    Obs(0.125, 2.0, 0.5), 0.5);
    }
    return store;
  };
  const std::string forward = build(false)->CheckpointJson().Dump();
  const std::string backward = build(true)->CheckpointJson().Dump();
  EXPECT_EQ(forward, backward);
  // And the bytes survive a restore round-trip through a store whose
  // insertion history is the restore itself.
  auto parsed = common::Json::Parse(forward);
  ASSERT_TRUE(parsed.ok());
  SessionStore restored(SmallStore());
  ASSERT_TRUE(restored.RestoreFromJson(*parsed).ok());
  EXPECT_EQ(restored.CheckpointJson().Dump(), forward);
}

// Shard migration's checkpoint path (ISSUE 9): a checkpoint filtered to
// an ownership predicate holds exactly the owned sessions, and two
// complementary filtered checkpoints merge back into byte-for-byte the
// full checkpoint — the golden proof that a cluster-wide set of per-shard
// dumps loses nothing.
TEST(SessionStore, FilteredCheckpointsMergeToFullCheckpointBytes) {
  SessionStore store(SmallStore());
  for (std::uint64_t id = 0; id < 12; ++id) {
    store.Upsert(id, {int(id % 3), 0}, {double(id), 0.5}, id % 2 == 0,
                 Obs(0.1 * double(id + 1), 1.0, 1.0), 1.0);
    if (id % 3 == 0) {
      LastKnownGood lkg;
      lkg.position = {double(id), double(id)};
      lkg.confidence = 0.5;
      lkg.timestamp_s = 1.0;
      store.RecordEstimate(id, lkg, 1.0);
    }
  }
  const std::string full = store.CheckpointJson().Dump();
  // A null predicate is the full checkpoint.
  EXPECT_EQ(store.CheckpointJson(nullptr).Dump(), full);

  const auto even = [](std::uint64_t id) { return id % 2 == 0; };
  const auto odd = [](std::uint64_t id) { return id % 2 == 1; };
  const common::Json evens = store.CheckpointJson(even);
  const common::Json odds = store.CheckpointJson(odd);
  EXPECT_LT(evens.Dump().size(), full.size());
  EXPECT_LT(odds.Dump().size(), full.size());

  SessionStore rebuilt(SmallStore());
  auto restored = rebuilt.RestoreFromJson(evens);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, 6u);
  auto merged = rebuilt.MergeFromJson(odds);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, 6u);
  EXPECT_EQ(rebuilt.CheckpointJson().Dump(), full);
}

TEST(SessionStore, MergeRejectsCollidingObjectId) {
  SessionStore store(SmallStore());
  store.Upsert(5, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, 0.0), 0.0);
  store.Upsert(6, {0, 0}, {2.0, 2.0}, false, Obs(0.6, 1.0, 0.0), 0.0);
  const common::Json overlap =
      store.CheckpointJson([](std::uint64_t id) { return id == 5; });

  // Object 5 already lives in the target: merging it again would clobber
  // state, so the merge must fail typed and change nothing — not even
  // the non-colliding entries of the incoming dump.
  auto merge = store.MergeFromJson(overlap);
  ASSERT_FALSE(merge.ok());
  EXPECT_EQ(merge.status().code(), common::StatusCode::kDataCorruption);
  EXPECT_EQ(store.SessionCount(), 2u);

  SessionStore fresh(SmallStore());
  auto merged = fresh.MergeFromJson(overlap);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, 1u);
}

TEST(SessionStore, MergeMissingKeepsLiveSessionsAndAddsTheRest) {
  SessionStore source(SmallStore());
  source.Upsert(5, {0, 0}, {1.0, 1.0}, false, Obs(0.5, 1.0, 0.0), 0.0);
  source.Upsert(6, {0, 0}, {2.0, 2.0}, false, Obs(0.6, 1.0, 0.0), 0.0);
  const auto only = [](std::uint64_t want) {
    return [want](std::uint64_t id) { return id == want; };
  };

  // Object 5 already has a newer live session in the target: it keeps
  // it, and object 6 still arrives byte-exact.
  SessionStore target(SmallStore());
  target.Upsert(5, {0, 1}, {9.0, 9.0}, false, Obs(0.9, 1.0, 1.0), 1.0);
  const std::string live = target.CheckpointJson(only(5)).Dump();
  auto merged = target.MergeMissingFromJson(source.CheckpointJson());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, 1u);
  EXPECT_EQ(target.SessionCount(), 2u);
  EXPECT_EQ(target.CheckpointJson(only(5)).Dump(), live);
  EXPECT_EQ(target.CheckpointJson(only(6)).Dump(),
            source.CheckpointJson(only(6)).Dump());
}

TEST(SessionStore, RestoreRejectsCorruptCheckpointAndKeepsStore) {
  SessionStore store(SmallStore());
  store.Upsert(1, {0, 0}, {0.0, 0.0}, false, Obs(1.0, 1.0, 0.0), 0.0);

  auto bad = common::Json::Parse(
      R"({"schema_version": 1, "sessions": [{"object_id": 3.5}]})");
  ASSERT_TRUE(bad.ok());
  auto restore = store.RestoreFromJson(*bad);
  ASSERT_FALSE(restore.ok());
  EXPECT_EQ(restore.status().code(), common::StatusCode::kDataCorruption);
  // The failed restore left the existing sessions untouched.
  EXPECT_TRUE(store.Snapshot(1, 1.0).ok());
}

}  // namespace
}  // namespace nomloc::serving

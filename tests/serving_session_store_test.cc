#include "serving/session_store.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
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

  // Object 5 already lives in the target: the incoming copy is rejected
  // and the live session kept, so the merge adds nothing and changes
  // nothing.
  const std::string before = store.CheckpointJson().Dump();
  auto merge = store.MergeFromJson(overlap);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  EXPECT_EQ(*merge, 0u);
  EXPECT_EQ(store.SessionCount(), 2u);
  EXPECT_EQ(store.CheckpointJson().Dump(), before);

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
  auto merged = target.MergeFromJson(source.CheckpointJson());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(*merged, 1u);
  EXPECT_EQ(target.SessionCount(), 2u);
  EXPECT_EQ(target.CheckpointJson(only(5)).Dump(), live);
  EXPECT_EQ(target.CheckpointJson(only(6)).Dump(),
            source.CheckpointJson(only(6)).Dump());
}

// --- seeded op-stream golden ---------------------------------------------

/// FNV-1a over the raw bytes of everything the store lets a caller see.
struct Digest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ULL;
    }
  }
  void Word(std::uint64_t value) { Bytes(&value, sizeof(value)); }
  void Bits(double value) { Bytes(&value, sizeof(value)); }
};

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t x = (state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Replaces the first anchor's observation list with [] in the sessions at
/// `positions` of a checkpoint, returning their object ids.
std::vector<std::uint64_t> EmptyFirstAnchor(
    common::Json& checkpoint, const std::vector<std::size_t>& positions) {
  std::vector<std::uint64_t> ids;
  common::JsonArray& sessions =
      checkpoint.AsObject().at("sessions").AsArray();
  for (const std::size_t position : positions) {
    common::JsonObject& session = sessions.at(position).AsObject();
    common::JsonArray& anchors = session.at("anchors").AsArray();
    if (anchors.empty()) continue;
    anchors[0].AsObject()["observations"] = common::Json(common::JsonArray{});
    ids.push_back(std::uint64_t(session.at("object_id").AsDouble()));
  }
  return ids;
}

/// Drives one seeded op stream through a store and digests the IEEE bits of
/// every snapshot, every sweep's eviction count and the final checkpoint
/// bytes.  Times are multiples of 1/4 s, so `now - t` lands exactly on the
/// TTL; timestamps trail `now` as delay injection makes them, and the clock
/// sometimes jumps back.
std::uint64_t OpStreamDigest(std::uint64_t seed) {
  SessionStoreConfig config;
  config.shards = 4;
  config.anchor_ttl_s = 8.0;
  config.session_idle_ttl_s = 40.0;
  SessionStore store(config);
  Digest digest;
  std::uint64_t rng = seed;
  const auto draw = [&](std::uint64_t n) { return SplitMix(rng) % n; };
  double now_s = 0.0;

  const auto snapshot = [&](std::uint64_t object_id) {
    auto snap = store.Snapshot(object_id, now_s);
    digest.Word(snap.ok());
    if (!snap.ok()) return;
    digest.Word(snap->live_keys);
    digest.Word(snap->keys_ever);
    digest.Bits(snap->last_touch_s);
    for (const localization::Anchor& anchor : snap->anchors) {
      digest.Bits(anchor.position.x);
      digest.Bits(anchor.position.y);
      digest.Bits(anchor.pdp);
      digest.Word(anchor.is_nomadic_site);
    }
  };

  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t tick = draw(100);
    if (tick < 2)
      now_s -= 20.0;  // backward clock jump
    else if (tick < 60)
      now_s += 0.25;
    const std::uint64_t object_id = draw(24);
    const std::uint64_t kind = draw(100);
    if (kind < 55) {
      double t_s = now_s - 0.25 * double(draw(12));
      const std::uint64_t edge = draw(20);
      if (edge == 0) t_s = now_s - config.anchor_ttl_s;  // exactly at the TTL
      if (edge == 1) t_s = now_s - 3.0 * config.anchor_ttl_s;  // stale
      const AnchorKey key{int(draw(4)), std::size_t(draw(3))};
      store.Upsert(object_id, key,
                   {double(draw(10)), 0.5 * double(draw(20))},
                   key.site_index != 0,
                   Obs(0.125 * double(1 + draw(64)), double(1 + draw(4)), t_s),
                   now_s);
    } else if (kind < 75) {
      snapshot(object_id);
    } else if (kind < 82) {
      LastKnownGood lkg;
      lkg.position = {double(draw(10)), double(draw(10))};
      lkg.confidence = 0.125 * double(draw(9));
      lkg.timestamp_s = now_s;
      store.RecordEstimate(object_id, lkg, now_s);
    } else if (kind < 93) {
      digest.Word(store.SweepStep(std::size_t(draw(config.shards)), now_s,
                                  std::size_t(1 + draw(8))));
    } else if (kind < 97) {
      digest.Word(store.SweepShard(std::size_t(draw(config.shards)), now_s));
    } else {
      digest.Word(store.SessionCount());
    }

    if (op == 3000) {
      // A restored anchor with an empty observation list: the next prune
      // must drop it — one session meets a snapshot first, the other a
      // full sweep.
      common::Json checkpoint = store.CheckpointJson();
      const std::size_t sessions =
          checkpoint.AsObject().at("sessions").AsArray().size();
      EXPECT_GE(sessions, 2u);
      const std::vector<std::uint64_t> emptied =
          EmptyFirstAnchor(checkpoint, {0, sessions - 1});
      EXPECT_EQ(emptied.size(), 2u);
      auto restored = store.RestoreFromJson(checkpoint);
      EXPECT_TRUE(restored.ok()) << restored.status().ToString();
      digest.Word(restored.ok() ? *restored : 0);
      const std::string dump = store.CheckpointJson().Dump();
      digest.Bytes(dump.data(), dump.size());
      if (emptied.size() == 2) {
        snapshot(emptied[0]);
        digest.Word(store.SweepShard(store.ShardOf(emptied[1]), now_s));
        snapshot(emptied[1]);
      }
    }
  }
  const std::string dump = store.CheckpointJson().Dump();
  digest.Bytes(dump.data(), dump.size());
  return digest.hash;
}

// Pins what the store lets a caller observe over a long seeded op stream:
// snapshots, sweep eviction counts and checkpoint bytes.  PruneSession's
// early return for sessions with nothing old enough to expire must leave
// every digest unchanged.
TEST(SessionStoreGolden, SeededOpStreamDigest) {
  const std::uint64_t want[] = {0x3b13852d004ec5baULL, 0xe89332fac2e4d489ULL,
                               0x7fbdb60868a43dfcULL};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::uint64_t got = OpStreamDigest(seed);
    EXPECT_EQ(got, want[seed - 1])
        << "seed " << seed << " digest 0x" << std::hex << got;
  }
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

// --- running sums and the index's anchor head ---------------------------

/// The anchor PDP as a walk of its observations oldest-first computes it
/// (a single report passes through).
double WalkedPdp(const common::JsonArray& observations) {
  if (observations.size() == 1)
    return observations[0].AsObject().at("pdp").AsDouble();
  double weighted = 0.0, total = 0.0;
  for (const common::Json& o : observations) {
    const common::JsonObject& obs = o.AsObject();
    weighted += obs.at("pdp").AsDouble() * obs.at("weight").AsDouble();
    total += obs.at("weight").AsDouble();
  }
  return total > 0.0 ? weighted / total : 0.0;
}

std::uint64_t Bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Snapshots the object and checks it against its checkpoint, which lists
/// each anchor's observations oldest-first: every PDP must carry the bits
/// of the walk over that list.  Snapshot walks the anchors from the index
/// entry and the checkpoint from the session record, so a stale index head
/// shows as a mismatch.  Returns the checkpoint's anchor keys.
std::vector<AnchorKey> ExpectSnapshotMatchesWalk(SessionStore& store,
                                                 std::uint64_t object_id,
                                                 double now_s) {
  auto snapshot = store.Snapshot(object_id, now_s);
  const common::Json checkpoint = store.CheckpointJson(
      [object_id](std::uint64_t id) { return id == object_id; });
  const common::JsonArray& sessions =
      checkpoint.AsObject().at("sessions").AsArray();
  std::vector<AnchorKey> keys;
  if (!snapshot.ok()) {
    EXPECT_TRUE(sessions.empty()) << "object " << object_id;
    return keys;
  }
  if (sessions.size() != 1) {
    ADD_FAILURE() << "object " << object_id << " missing from checkpoint";
    return keys;
  }
  const common::JsonArray& anchors =
      sessions[0].AsObject().at("anchors").AsArray();
  EXPECT_EQ(snapshot->anchors.size(), anchors.size()) << "object " << object_id;
  EXPECT_EQ(snapshot->live_keys, snapshot->anchors.size());
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const common::JsonObject& a = anchors[i].AsObject();
    keys.push_back({int(a.at("ap_id").AsDouble()),
                    std::size_t(a.at("site_index").AsDouble())});
    if (i >= snapshot->anchors.size()) continue;
    const localization::Anchor& got = snapshot->anchors[i];
    const common::JsonArray& observations = a.at("observations").AsArray();
    EXPECT_FALSE(observations.empty());
    EXPECT_EQ(Bits(got.pdp), Bits(WalkedPdp(observations)))
        << "object " << object_id << " anchor " << i << " of "
        << observations.size() << " observations";
    EXPECT_EQ(Bits(got.position.x), Bits(a.at("x").AsDouble()));
    EXPECT_EQ(Bits(got.position.y), Bits(a.at("y").AsDouble()));
    EXPECT_EQ(got.is_nomadic_site, a.at("nomadic").AsBool());
  }
  return keys;
}

/// The head anchor of a fresh session expires in a sweep (SweepStep when
/// `step`, else SweepShard) while a later key survives with one of its
/// three out-of-order reports expired; then keys that sort before and
/// after the survivor arrive.
void ExpectHeadExpiryInSweepRelinks(SessionStore& store, double ttl_s,
                                    std::uint64_t object_id, double& now_s,
                                    bool step) {
  const double edge = now_s - ttl_s;  // survives now, expires next tick
  store.Upsert(object_id, {1, 0}, {1.0, 0.0}, false, Obs(0.5, 2.0, edge),
               now_s);
  store.Upsert(object_id, {1, 0}, {1.0, 0.0}, false, Obs(0.75, 1.0, edge),
               now_s);
  store.Upsert(object_id, {2, 1}, {2.0, 1.0}, true,
               Obs(0.25, 3.0, now_s - 0.5), now_s);
  store.Upsert(object_id, {2, 1}, {2.0, 1.0}, true, Obs(0.375, 1.0, edge),
               now_s);
  store.Upsert(object_id, {2, 1}, {2.0, 1.5}, true,
               Obs(0.625, 2.0, now_s - 1.0), now_s);
  EXPECT_EQ(ExpectSnapshotMatchesWalk(store, object_id, now_s).size(), 2u);

  now_s += 0.25;
  const std::size_t shard = store.ShardOf(object_id);
  if (step)
    store.SweepStep(shard, now_s, std::size_t{1} << 20);
  else
    store.SweepShard(shard, now_s);
  store.Upsert(object_id, {0, 2}, {0.0, 2.0}, true, Obs(0.125, 1.0, now_s),
               now_s);
  store.Upsert(object_id, {3, 0}, {3.0, 0.0}, false, Obs(0.875, 4.0, now_s),
               now_s);
  const std::vector<AnchorKey> keys =
      ExpectSnapshotMatchesWalk(store, object_id, now_s);
  const std::vector<AnchorKey> want = {{0, 2}, {2, 1}, {3, 0}};
  EXPECT_EQ(keys, want) << (step ? "SweepStep" : "SweepShard");
  auto snapshot = store.Snapshot(object_id, now_s);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->keys_ever, 4u);
}

/// Drives a seeded op stream like OpStreamDigest's, checking every
/// snapshot against the walk of its checkpoint.  Mid-stream the store is
/// restored from its own checkpoint, and later replaced by a fresh store
/// that already holds a few sessions and merges the checkpoint.
void RunningSumStream(std::uint64_t seed, std::size_t shard_bytes_budget) {
  SessionStoreConfig config;
  config.shards = 4;
  config.anchor_ttl_s = 8.0;
  config.session_idle_ttl_s = 40.0;
  config.shard_bytes_budget = shard_bytes_budget;
  auto store = std::make_unique<SessionStore>(config);
  std::uint64_t rng = seed;
  const auto draw = [&](std::uint64_t n) { return SplitMix(rng) % n; };
  double now_s = 0.0;
  constexpr std::uint64_t kObjects = 24;
  const auto check_all = [&] {
    for (std::uint64_t id = 0; id < kObjects; ++id)
      ExpectSnapshotMatchesWalk(*store, id, now_s);
  };

  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t tick = draw(100);
    if (tick < 2)
      now_s -= 20.0;  // backward clock jump
    else if (tick < 60)
      now_s += 0.25;
    const std::uint64_t object_id = draw(kObjects);
    const std::uint64_t kind = draw(100);
    if (kind < 60) {
      double t_s = now_s - 0.25 * double(draw(12));  // out of order
      const std::uint64_t edge = draw(20);
      if (edge == 0) t_s = now_s - config.anchor_ttl_s;  // exactly at the TTL
      if (edge == 1) t_s = now_s - 3.0 * config.anchor_ttl_s;  // stale
      const AnchorKey key{int(draw(4)), std::size_t(draw(3))};
      // PDPs with rounding in every product and sum, so the bits of a
      // mean depend on the order its terms are added in.
      store->Upsert(object_id, key, {double(draw(10)), 0.5 * double(draw(20))},
                    key.site_index != 0,
                    Obs(double(1 + draw(997)) / 7.0, double(1 + draw(4)), t_s),
                    now_s);
    } else if (kind < 85) {
      ExpectSnapshotMatchesWalk(*store, object_id, now_s);
    } else if (kind < 93) {
      store->SweepStep(std::size_t(draw(config.shards)), now_s,
                       std::size_t(1 + draw(8)));
    } else {
      store->SweepShard(std::size_t(draw(config.shards)), now_s);
    }

    if (op == 1000 || op == 2500)
      ExpectHeadExpiryInSweepRelinks(*store, config.anchor_ttl_s,
                                     1000 + std::uint64_t(op), now_s,
                                     /*step=*/op == 1000);
    if (op == 1500) {
      auto restored = store->RestoreFromJson(store->CheckpointJson());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      check_all();
    }
    if (op == 3000) {
      auto merged = std::make_unique<SessionStore>(config);
      for (std::uint64_t id = 0; id < kObjects; id += 5)
        merged->Upsert(id, {int(id % 4), 1}, {1.0, 1.0}, true,
                       Obs(0.5, 1.0, now_s), now_s);
      auto added = merged->MergeFromJson(store->CheckpointJson());
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      store = std::move(merged);
      check_all();
    }
  }
  check_all();
}

// The running sums are the oldest-first walk of each anchor's chain, bit
// for bit, through out-of-order reports, TTL-edge and whole-key expiry,
// head-anchor expiry in both sweeps, restore and merge; with a byte budget
// pressure eviction runs too.
TEST(SessionStore, RunningSumsMatchOldestFirstWalk) {
  auto& pressure = common::MetricRegistry::Global().Counter(
      "serving.evictions.pressure");
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunningSumStream(seed, /*shard_bytes_budget=*/0);
    const auto pressure_before = pressure.Value();
    RunningSumStream(seed, /*shard_bytes_budget=*/2048);
    EXPECT_GT(pressure.Value(), pressure_before);
  }
}

}  // namespace
}  // namespace nomloc::serving

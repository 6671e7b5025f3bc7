#include "channel/propagation_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <vector>

#include "channel/csi_model.h"
#include "channel/environment.h"
#include "channel/propagation.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "geometry/polygon.h"

namespace nomloc::channel {
namespace {

using geometry::Polygon;
using geometry::Vec2;

IndoorEnvironment OfficeRoom() {
  std::vector<Wall> walls;
  walls.push_back({{{4.0, 0.0}, {4.0, 5.0}}, materials::Drywall()});
  std::vector<Obstacle> obstacles;
  obstacles.push_back(
      {Polygon::Rectangle(6.0, 2.0, 7.0, 3.0), materials::Metal()});
  auto env = IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 10, 8),
                                       std::move(walls), std::move(obstacles));
  return std::move(env).value();
}

// Field-by-field exact comparison: the cache contract is bit-identity,
// not closeness.
void ExpectPathsIdentical(std::span<const PropagationPath> a,
                          std::span<const PropagationPath> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].length_m, b[i].length_m) << "path " << i;
    EXPECT_EQ(a[i].loss_db, b[i].loss_db) << "path " << i;
    EXPECT_EQ(a[i].bounces, b[i].bounces) << "path " << i;
    EXPECT_EQ(a[i].is_direct, b[i].is_direct) << "path " << i;
    EXPECT_EQ(a[i].is_scatter, b[i].is_scatter) << "path " << i;
    EXPECT_EQ(a[i].aoa_rad, b[i].aoa_rad) << "path " << i;
  }
}

TEST(PropagationCache, CachedTraceBitIdenticalToUncached) {
  const IndoorEnvironment env = OfficeRoom();
  PropagationConfig cfg;
  cfg.max_reflection_order = 2;
  PropagationCache cache;
  const Vec2 tx{1.0, 1.0};
  for (const Vec2 rx : {Vec2{8.5, 6.5}, Vec2{5.0, 4.0}, Vec2{2.0, 7.0}}) {
    const auto cached = cache.Trace(env, tx, rx, cfg);
    const auto uncached = TracePaths(env, tx, rx, cfg);
    ExpectPathsIdentical(*cached, uncached);
  }
}

TEST(PropagationCache, RepeatHitReturnsTheSameSharedVector) {
  const IndoorEnvironment env = OfficeRoom();
  const PropagationConfig cfg;
  PropagationCache cache;
  const auto first = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  const auto second = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Entries(), 1u);
}

TEST(PropagationCache, DistinctEndpointsAndConfigsGetDistinctEntries) {
  const IndoorEnvironment env = OfficeRoom();
  PropagationConfig cfg;
  PropagationCache cache;
  const auto a = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  const auto b = cache.Trace(env, {1, 1}, {9, 6}, cfg);
  EXPECT_NE(a.get(), b.get());
  PropagationConfig cfg2 = cfg;
  cfg2.max_reflection_order = 2;
  const auto c = cache.Trace(env, {1, 1}, {9, 7}, cfg2);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.Entries(), 3u);
}

TEST(PropagationCache, EnvironmentMutationInvalidates) {
  IndoorEnvironment env = OfficeRoom();
  PropagationConfig cfg;
  cfg.include_scatterers = true;
  PropagationCache cache;
  const auto before = cache.Trace(env, {1, 1}, {9, 7}, cfg);

  common::Rng rng(7);
  env.PlaceScatterers(12, rng);  // Draws a fresh epoch.
  const auto after = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  EXPECT_NE(before.get(), after.get());
  // The re-trace must see the new geometry (scatter paths appeared) and
  // match an uncached trace of the mutated environment exactly.
  EXPECT_GT(after->size(), before->size());
  ExpectPathsIdentical(*after, TracePaths(env, {1, 1}, {9, 7}, cfg));
  // The pre-mutation shared_ptr stays valid and unchanged.
  ExpectPathsIdentical(*before, *before);
}

TEST(PropagationCache, CopiedEnvironmentSharesEntries) {
  const IndoorEnvironment env = OfficeRoom();
  const IndoorEnvironment copy = env;  // Inherits the epoch stamp.
  const PropagationConfig cfg;
  PropagationCache cache;
  const auto a = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  const auto b = cache.Trace(copy, {1, 1}, {9, 7}, cfg);
  EXPECT_EQ(a.get(), b.get());
}

TEST(PropagationCache, ClearDropsEntriesButKeepsResultsCorrect) {
  const IndoorEnvironment env = OfficeRoom();
  const PropagationConfig cfg;
  PropagationCache cache;
  const auto before = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  cache.Clear();
  EXPECT_EQ(cache.Entries(), 0u);
  const auto after = cache.Trace(env, {1, 1}, {9, 7}, cfg);
  EXPECT_NE(before.get(), after.get());  // Rebuilt, not resurrected.
  ExpectPathsIdentical(*before, *after);
}

TEST(PropagationCache, MemoizedImagesMatchDirectBuild) {
  const IndoorEnvironment env = OfficeRoom();
  PropagationCache cache;
  const auto memo = cache.Images(env, {1.5, 2.5}, 2);
  const TxImageTree direct = BuildTxImageTree(env, {1.5, 2.5}, 2);
  ASSERT_EQ(memo->candidates.size(), direct.candidates.size());
  for (std::size_t i = 0; i < direct.candidates.size(); ++i) {
    EXPECT_EQ(memo->candidates[i].walls, direct.candidates[i].walls);
    ASSERT_EQ(memo->candidates[i].images.size(),
              direct.candidates[i].images.size());
    for (std::size_t j = 0; j < direct.candidates[i].images.size(); ++j) {
      EXPECT_EQ(memo->candidates[i].images[j].x,
                direct.candidates[i].images[j].x);
      EXPECT_EQ(memo->candidates[i].images[j].y,
                direct.candidates[i].images[j].y);
    }
  }
  EXPECT_EQ(cache.Images(env, {1.5, 2.5}, 2).get(), memo.get());
  EXPECT_NE(cache.Images(env, {1.5, 2.5}, 1).get(), memo.get());
}

TEST(PropagationCache, ClearTracesKeepsImageTrees) {
  const IndoorEnvironment env = OfficeRoom();
  const PropagationConfig cfg;
  PropagationCache cache;
  (void)cache.Trace(env, {1, 1}, {9, 7}, cfg);
  const auto tree = cache.Images(env, {1, 1}, cfg.max_reflection_order);
  ASSERT_EQ(cache.Entries(), 1u);

  cache.ClearTraces();
  EXPECT_EQ(cache.Entries(), 0u);  // Traces gone...
  // ...but the per-tx image tree survives: the same pointer comes back.
  EXPECT_EQ(cache.Images(env, {1, 1}, cfg.max_reflection_order).get(),
            tree.get());

  cache.Clear();  // Full clear drops the trees too.
  EXPECT_NE(cache.Images(env, {1, 1}, cfg.max_reflection_order).get(),
            tree.get());
}

TEST(PropagationCache, ImageBytesTracksMemoizedTrees) {
  const IndoorEnvironment env = OfficeRoom();
  PropagationCache cache;
  EXPECT_EQ(cache.ImageBytes(), 0u);
  const auto tree = cache.Images(env, {1, 1}, 2);
  EXPECT_EQ(cache.ImageBytes(), tree->ApproxBytes());
  (void)cache.Images(env, {2, 2}, 2);
  EXPECT_GT(cache.ImageBytes(), tree->ApproxBytes());
  cache.Clear();
  EXPECT_EQ(cache.ImageBytes(), 0u);
}

TEST(PropagationCache, ImageByteBudgetBoundsMemory) {
  // A deliberately tiny budget: the cache must keep working (outstanding
  // shared_ptrs stay valid) while never holding more than one shard's
  // budget worth of trees per shard.
  const IndoorEnvironment env = OfficeRoom();
  const std::size_t tree_bytes = BuildTxImageTree(env, {0.5, 1.0}, 2)
                                     .ApproxBytes();  // All trees equal here.
  const std::size_t budget = 2 * tree_bytes + 64;  // Two trees per shard.
  PropagationCache cache(budget);
  std::vector<std::shared_ptr<const TxImageTree>> held;
  for (int i = 0; i < 64; ++i) {
    held.push_back(cache.Images(env, {0.5 + 0.1 * double(i), 1.0}, 2));
    ASSERT_LE(cache.ImageBytes(), 16u * budget);  // kShardCount shards.
  }
  // Eviction actually fired: far fewer than 64 trees remain memoized.
  EXPECT_LT(cache.ImageBytes(), 64u * tree_bytes);
  // Every handed-out tree is still alive and matches a fresh build.
  const TxImageTree direct = BuildTxImageTree(env, {0.5, 1.0}, 2);
  ASSERT_EQ(held.front()->candidates.size(), direct.candidates.size());
}

// One tone table per traced link and tone digest: a repeat request gets
// the same table, another digest, endpoint or epoch a new one.
TEST(PropagationCache, ToneTablesKeyedByTraceAndToneDigest) {
  IndoorEnvironment env = OfficeRoom();
  PropagationConfig cfg;
  PropagationCache cache;
  const auto a = cache.Tones(env, {1, 1}, {9, 7}, cfg, 11, 1000);
  EXPECT_EQ(cache.Tones(env, {1, 1}, {9, 7}, cfg, 11, 1000).get(), a.get());
  EXPECT_EQ(cache.ToneBytes(), 1000u);
  EXPECT_NE(cache.Tones(env, {1, 1}, {9, 7}, cfg, 12, 1000).get(), a.get());
  EXPECT_NE(cache.Tones(env, {1, 1}, {9, 6}, cfg, 11, 1000).get(), a.get());
  cfg.max_reflection_order = 2;
  EXPECT_NE(cache.Tones(env, {1, 1}, {9, 7}, cfg, 11, 1000).get(), a.get());
  cfg = PropagationConfig{};
  EXPECT_EQ(cache.ToneBytes(), 4000u);
  common::Rng rng(7);
  env.PlaceScatterers(3, rng);
  EXPECT_NE(cache.Tones(env, {1, 1}, {9, 7}, cfg, 11, 1000).get(), a.get());
  cache.ClearTraces();
  EXPECT_EQ(cache.ToneBytes(), 0u);
}

TEST(PropagationCache, ToneByteBudgetBoundsMemory) {
  // Tables of a whole shard's budget each: a shard keeps one at a time.
  const IndoorEnvironment env = OfficeRoom();
  const PropagationConfig cfg;
  constexpr std::size_t kBudget = PropagationCache::kToneBytesPerShard;
  PropagationCache cache;
  std::vector<std::shared_ptr<ToneTable>> held;
  for (int i = 0; i < 64; ++i) {
    held.push_back(
        cache.Tones(env, {1, 1}, {1.0 + 0.1 * double(i), 7}, cfg, 1, kBudget));
    ASSERT_LE(cache.ToneBytes(), 16u * kBudget);  // kShardCount shards.
  }
  EXPECT_LT(cache.ToneBytes(), 64u * kBudget);
  for (const auto& table : held) EXPECT_NE(table, nullptr);
}

TEST(PropagationCache, ConcurrentHammerStaysConsistent) {
  // Many threads trace a small working set while one periodically clears;
  // every result must equal the uncached reference.  Run under TSan to
  // check the sharded locking.
  const IndoorEnvironment env = OfficeRoom();
  PropagationConfig cfg;
  cfg.max_reflection_order = 2;
  PropagationCache cache;

  const std::vector<Vec2> sites{{1, 1}, {9, 7}, {5, 4}, {2, 7},
                                {8, 1}, {3, 3}, {6, 6}, {9, 2}};
  std::vector<std::vector<PropagationPath>> reference;
  for (const Vec2 rx : sites)
    reference.push_back(TracePaths(env, sites[0], rx, cfg));

  common::ThreadPool pool(8);
  std::atomic<std::size_t> mismatches{0};
  pool.ParallelFor(256, [&](std::size_t task) {
    if (task % 64 == 63) {
      cache.Clear();
      return;
    }
    const std::size_t s = task % sites.size();
    const auto got = cache.Trace(env, sites[0], sites[s], cfg);
    const auto& want = reference[s];
    if (got->size() != want.size()) {
      ++mismatches;
      return;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
      if ((*got)[i].length_m != want[i].length_m ||
          (*got)[i].loss_db != want[i].loss_db)
        ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace nomloc::channel

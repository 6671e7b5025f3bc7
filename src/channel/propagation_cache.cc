#include "channel/propagation_cache.h"

#include <bit>
#include <cmath>
#include <utility>

#include "channel/csi_model.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace nomloc::channel {

namespace {

constexpr double kPositionQuantumInv = 1e6;  // Quantize positions to 1e-6 m.

std::int64_t Quantize(double v) noexcept {
  return std::llround(v * kPositionQuantumInv);
}

std::uint64_t MixIn(std::uint64_t& state, std::uint64_t word) noexcept {
  state ^= word;
  return common::SplitMix64(state);
}

std::uint64_t DigestConfig(const PropagationConfig& c) noexcept {
  std::uint64_t state = 0x6e6f6d6c6f633243ull;  // Arbitrary fixed seed.
  std::uint64_t digest = MixIn(state, std::bit_cast<std::uint64_t>(c.carrier_hz));
  digest = MixIn(state, std::uint64_t(c.max_reflection_order));
  digest = MixIn(state, std::bit_cast<std::uint64_t>(c.scatter_loss_db));
  digest = MixIn(state, std::uint64_t(c.include_scatterers));
  digest = MixIn(state, std::bit_cast<std::uint64_t>(c.relative_cutoff_db));
  digest = MixIn(state, std::bit_cast<std::uint64_t>(c.min_distance_m));
  return digest;
}

// Makes room in `map` for a new entry of `epoch`: entries stamped with a
// different (necessarily dead, since epochs are process-unique) epoch go
// first; if the shard is still full the whole shard is dropped — entries
// are shared_ptrs, so outstanding references stay valid.
template <typename Map>
void EvictIfFull(Map& map, std::uint64_t epoch, std::size_t max_entries) {
  if (map.size() < max_entries) return;
  for (auto it = map.begin(); it != map.end();) {
    if (it->first.epoch != epoch)
      it = map.erase(it);
    else
      ++it;
  }
  if (map.size() >= max_entries) map.clear();
}

// Makes room in a byte-budgeted shard for a new entry of `bytes` stamped
// `epoch`: while the shard is at its entry bound or would exceed its byte
// budget, entries of other (dead) epochs go first, then the whole shard.
// Entries are shared_ptrs, so outstanding references stay valid.
template <typename Shard, typename BytesOf>
void MakeRoom(Shard& shard, std::uint64_t epoch, std::size_t bytes,
              std::size_t budget, std::size_t max_entries, BytesOf bytes_of) {
  const auto over_budget = [&] {
    return shard.map.size() >= max_entries || shard.bytes + bytes > budget;
  };
  if (!over_budget()) return;
  for (auto it = shard.map.begin(); it != shard.map.end() && over_budget();) {
    if (it->first.epoch != epoch) {
      shard.bytes -= bytes_of(it->second);
      it = shard.map.erase(it);
    } else {
      ++it;
    }
  }
  if (over_budget()) {
    shard.map.clear();
    shard.bytes = 0;
  }
}

}  // namespace

std::size_t PropagationCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t state = k.epoch;
  std::uint64_t h = MixIn(state, k.config_digest);
  h = MixIn(state, std::uint64_t(k.qx0));
  h = MixIn(state, std::uint64_t(k.qy0));
  h = MixIn(state, std::uint64_t(k.qx1));
  h = MixIn(state, std::uint64_t(k.qy1));
  return std::size_t(h);
}

PropagationCache& PropagationCache::Global() {
  static PropagationCache cache;
  return cache;
}

PropagationCache::Key PropagationCache::TraceKey(
    const IndoorEnvironment& env, geometry::Vec2 tx, geometry::Vec2 rx,
    const PropagationConfig& config) {
  return {env.Epoch(),    DigestConfig(config), Quantize(tx.x),
          Quantize(tx.y), Quantize(rx.x),       Quantize(rx.y)};
}

std::shared_ptr<const std::vector<PropagationPath>> PropagationCache::Trace(
    const IndoorEnvironment& env, geometry::Vec2 tx, geometry::Vec2 rx,
    const PropagationConfig& config) {
  static common::MetricCounter& hits =
      common::MetricRegistry::Global().Counter("channel.trace.cache.hits");
  static common::MetricCounter& misses =
      common::MetricRegistry::Global().Counter("channel.trace.cache.misses");

  const Key key = TraceKey(env, tx, rx, config);
  PathShard& shard = path_shards_[KeyHash{}(key) % kShardCount];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      hits.Increment();
      return it->second;
    }
  }
  misses.Increment();

  // Trace outside the lock — the tree-based overload is exactly what the
  // uncached TracePaths(env, tx, rx, config) runs, so hits and misses are
  // bit-identical to never having had a cache at all.
  const std::shared_ptr<const TxImageTree> images =
      Images(env, tx, config.max_reflection_order);
  auto paths = std::make_shared<const std::vector<PropagationPath>>(
      TracePaths(env, *images, rx, config));

  std::lock_guard<std::mutex> lock(shard.mu);
  EvictIfFull(shard.map, key.epoch, kMaxEntriesPerShard);
  auto [it, inserted] = shard.map.emplace(key, std::move(paths));
  // On a concurrent duplicate insert the first writer wins; both traced
  // the same inputs, so adopting the winner changes nothing.
  return it->second;
}

std::shared_ptr<const TxImageTree> PropagationCache::Images(
    const IndoorEnvironment& env, geometry::Vec2 tx, int max_order) {
  static common::MetricCounter& hits =
      common::MetricRegistry::Global().Counter("channel.trace.images.hits");
  static common::MetricCounter& misses =
      common::MetricRegistry::Global().Counter("channel.trace.images.misses");

  Key key;
  key.epoch = env.Epoch();
  key.config_digest = std::uint64_t(max_order);
  key.qx0 = Quantize(tx.x);
  key.qy0 = Quantize(tx.y);
  ImageShard& shard = image_shards_[KeyHash{}(key) % kShardCount];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (auto it = shard.map.find(key); it != shard.map.end()) {
      hits.Increment();
      return it->second;
    }
  }
  misses.Increment();

  auto images = std::make_shared<const TxImageTree>(
      BuildTxImageTree(env, tx, max_order));
  const std::size_t tree_bytes = images->ApproxBytes();

  std::lock_guard<std::mutex> lock(shard.mu);
  // Entry bound plus byte budget: trees scale as O(walls^order), so in
  // large generated worlds a handful of trees can dwarf the entry bound.
  MakeRoom(shard, key.epoch, tree_bytes, image_bytes_per_shard_,
           kMaxEntriesPerShard,
           [](const auto& tree) { return tree->ApproxBytes(); });
  auto [it, inserted] = shard.map.emplace(key, std::move(images));
  if (inserted) shard.bytes += tree_bytes;
  return it->second;
}

std::shared_ptr<ToneTable> PropagationCache::Tones(
    const IndoorEnvironment& env, geometry::Vec2 tx, geometry::Vec2 rx,
    const PropagationConfig& config, std::uint64_t tone_digest,
    std::size_t bytes) {
  // The trace's key, with the tone configuration folded into its digest:
  // a new environment epoch or another path set never finds this table.
  Key key = TraceKey(env, tx, rx, config);
  std::uint64_t state = key.config_digest;
  key.config_digest = MixIn(state, tone_digest);
  ToneShard& shard = tone_shards_[KeyHash{}(key) % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end())
    return it->second.table;
  // The table starts empty, so creating it under the lock is cheap; the
  // first LinkModel to sample fills it outside.
  MakeRoom(shard, key.epoch, bytes, kToneBytesPerShard, kMaxEntriesPerShard,
           [](const ToneEntry& entry) { return entry.bytes; });
  auto table = std::make_shared<ToneTable>();
  shard.map.emplace(key, ToneEntry{table, bytes});
  shard.bytes += bytes;
  return table;
}

void PropagationCache::Clear() {
  ClearTraces();
  for (ImageShard& shard : image_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.bytes = 0;
  }
}

void PropagationCache::ClearTraces() {
  for (PathShard& shard : path_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
  }
  for (ToneShard& shard : tone_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.bytes = 0;
  }
}

std::size_t PropagationCache::ImageBytes() const {
  std::size_t total = 0;
  for (const ImageShard& shard : image_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

std::size_t PropagationCache::ToneBytes() const {
  std::size_t total = 0;
  for (const ToneShard& shard : tone_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

std::size_t PropagationCache::Entries() const {
  std::size_t total = 0;
  for (const PathShard& shard : path_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace nomloc::channel

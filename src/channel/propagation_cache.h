// Memoized ray tracing.  TracePaths dominates the measurement hot path —
// every simulated CSI frame between an (anchor, object) pair re-traces the
// same geometry — so the cache keys completed traces by the environment's
// content epoch (channel/environment.h) plus quantized endpoint positions
// and a digest of the PropagationConfig.  A second, cheaper layer memoizes
// the per-transmitter specular image tree (BuildTxImageTree), which is
// shared by every receiver probed against that transmitter.  A third keeps,
// beside each trace, the ToneTable (channel/csi_model.h) of every tone
// configuration sampled over it, so links rebuilt fix after fix share one
// table.
//
// Correctness properties:
//   * Cached results are bit-identical to uncached TracePaths: hits return
//     the memoized vector, and misses run the exact same tree-based code
//     path the uncached overload uses.
//   * Environment mutation invalidates automatically: every mutation draws
//     a fresh process-unique epoch, so stale entries can never be returned
//     (they are evicted lazily when a shard fills up).
//   * Positions are quantized to 1e-6 m.  Two probes closer than the
//     quantum may alias to one entry; scenario coordinates are metres with
//     far coarser spacing, so this is a non-issue in practice, but callers
//     sweeping sub-micrometre grids should bypass the cache.
//
// Thread safety: fully thread-safe; the key space is sharded with one
// mutex per shard so concurrent measurement threads rarely contend.
//
// Metrics (common/metrics.h): channel.trace.cache.{hits,misses},
// channel.trace.images.{hits,misses}; channel.tones.built counts the
// tables LinkModel fills.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "channel/environment.h"
#include "channel/propagation.h"
#include "geometry/vec2.h"

namespace nomloc::channel {

struct ToneTable;

class PropagationCache {
 public:
  /// Process-wide instance used by CsiSimulator and the device-free
  /// sampler.  Tests may construct private instances.
  static PropagationCache& Global();

  /// `image_bytes_per_shard` bounds the memory held by memoized per-tx
  /// image trees (which grow as O(walls^order) in large generated worlds):
  /// when a shard's trees exceed the budget, stale-epoch entries are
  /// evicted first, then the shard is dropped whole.
  explicit PropagationCache(
      std::size_t image_bytes_per_shard = kDefaultImageBytesPerShard) noexcept
      : image_bytes_per_shard_(image_bytes_per_shard) {}
  PropagationCache(const PropagationCache&) = delete;
  PropagationCache& operator=(const PropagationCache&) = delete;

  /// Memoized TracePaths(env, tx, rx, config).  The returned vector is
  /// immutable and shared; it stays valid after Clear() or eviction.
  std::shared_ptr<const std::vector<PropagationPath>> Trace(
      const IndoorEnvironment& env, geometry::Vec2 tx, geometry::Vec2 rx,
      const PropagationConfig& config);

  /// Memoized BuildTxImageTree(env, tx, max_order).
  std::shared_ptr<const TxImageTree> Images(const IndoorEnvironment& env,
                                            geometry::Vec2 tx, int max_order);

  /// The tone table shared by every link over Trace(env, tx, rx, config)'s
  /// paths whose tone-relevant ChannelConfig fields digest to
  /// `tone_digest`: created empty on first request, filled by the first
  /// LinkModel that samples it.  `bytes` is what the filled table holds;
  /// each shard keeps at most kToneBytesPerShard of them, evicting
  /// stale-epoch tables first, then the whole shard (outstanding
  /// shared_ptrs stay valid).
  std::shared_ptr<ToneTable> Tones(const IndoorEnvironment& env,
                                   geometry::Vec2 tx, geometry::Vec2 rx,
                                   const PropagationConfig& config,
                                   std::uint64_t tone_digest,
                                   std::size_t bytes);

  /// Drops every memoized trace, image tree and tone table.
  void Clear();

  /// Drops memoized traces and their tone tables but keeps the per-tx
  /// image trees: every receiver probed against a transmitter shares its
  /// tree, so callers forcing cold re-traces (benchmarks, epoch-local
  /// invalidation) should prefer this over Clear() — see the image-tree
  /// thrash note in DESIGN.md.
  void ClearTraces();

  /// Number of memoized traces (approximate under concurrent mutation).
  std::size_t Entries() const;

  /// Approximate bytes held by memoized image trees across all shards.
  std::size_t ImageBytes() const;

  /// Bytes of the tone tables held across all shards (as passed to Tones).
  std::size_t ToneBytes() const;

  /// Default per-shard image-tree byte budget (kShardCount shards total).
  static constexpr std::size_t kDefaultImageBytesPerShard = 4u << 20;
  /// Per-shard tone-table byte budget (kShardCount shards total); a lab
  /// link's table is about 13 KB.
  static constexpr std::size_t kToneBytesPerShard = 1u << 20;

 private:
  struct Key {
    std::uint64_t epoch = 0;
    std::uint64_t config_digest = 0;
    std::int64_t qx0 = 0, qy0 = 0;  // Quantized tx.
    std::int64_t qx1 = 0, qy1 = 0;  // Quantized rx (0 for image trees).

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  static constexpr std::size_t kShardCount = 16;  // Power of two.
  /// Per-shard entry bound; on overflow same-shard entries from other
  /// (stale) epochs are evicted first, then the shard is dropped whole.
  static constexpr std::size_t kMaxEntriesPerShard = 4096;

  struct PathShard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const std::vector<PropagationPath>>,
                       KeyHash>
        map;
  };
  struct ImageShard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const TxImageTree>, KeyHash> map;
    std::size_t bytes = 0;  ///< Sum of ApproxBytes() over map values.
  };
  struct ToneEntry {
    std::shared_ptr<ToneTable> table;
    std::size_t bytes = 0;
  };
  struct ToneShard {
    mutable std::mutex mu;
    std::unordered_map<Key, ToneEntry, KeyHash> map;
    std::size_t bytes = 0;  ///< Sum of ToneEntry::bytes over map values.
  };

  /// The key Trace() memoizes (env, tx, rx, config) under.
  static Key TraceKey(const IndoorEnvironment& env, geometry::Vec2 tx,
                      geometry::Vec2 rx, const PropagationConfig& config);

  std::array<PathShard, kShardCount> path_shards_;
  std::array<ImageShard, kShardCount> image_shards_;
  std::array<ToneShard, kShardCount> tone_shards_;
  std::size_t image_bytes_per_shard_ = kDefaultImageBytesPerShard;
};

}  // namespace nomloc::channel

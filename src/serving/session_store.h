// Sharded per-object session store for streaming localization.
//
// A *session* is the server's evolving knowledge about one object: one
// entry per measurement source (static AP, or one dwell site of a nomadic
// AP), each holding the per-report PDP observations that arrived for it.
// Because nomadic APs move on, old judgements must not pin the feasible
// cell forever: observations older than `anchor_ttl_s` age out, the anchor
// disappears once its last observation expires, and the SP solver then
// runs on the reduced constraint set (the feasible cell re-expands).
//
// Storage is built for millions of concurrent sessions (bytes/session is
// a first-class, benchmarked number — see DESIGN.md "Serving at scale"):
//
//   * object id -> (session slot, anchor-chain head) is an open-addressing
//     flat hash map (common/flat_hash_map.h), not a node-based tree, so an
//     Upsert reaches the anchors straight from the index entry and the
//     session record's stores overlap the anchor load;
//   * sessions, anchors (the constraint set), and PDP observations (the
//     judgement history) live in per-shard slab arenas of fixed-width,
//     index-linked records (common/slab.h) — a uint32 "next" instead of
//     pointers, freelist reuse instead of per-node malloc;
//   * each anchor links its observations newest-first and keeps running
//     sums of pdp·weight and weight, so an Upsert writes only the new
//     observation and a Snapshot is O(anchors), not O(history);
//   * each shard can carry a live-byte budget: when an ingest pushes the
//     shard past it, least-recently-touched sessions are evicted under
//     pressure (`serving.evictions.pressure`), and `serving.shard.bytes`
//     tracks the live footprint.
//
// Sessions are sharded by object id.  Each shard has its own mutex, so
// ingestion workers handling different shards never contend; the serving
// engine additionally routes every shard to exactly one worker, which
// makes per-object processing order deterministic (FIFO per queue).
//
// All timestamps are logical seconds (serving/clock.h).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/json.h"
#include "common/slab.h"
#include "common/status.h"
#include "geometry/vec2.h"
#include "localization/proximity.h"

namespace nomloc::localization {
class SpSolverSession;  // localization/sp_session.h
}

namespace nomloc::serving {

/// Identifies one measurement source within a session.  Static APs use
/// (ap_id, 0); a nomadic AP's dwell sites use (ap_id, site_index).
struct AnchorKey {
  int ap_id = 0;
  std::size_t site_index = 0;

  friend auto operator<=>(const AnchorKey&, const AnchorKey&) = default;
};

/// One ingested report's contribution to an anchor: the batch-mean PDP,
/// how many frames backed it, and when it was measured.
struct PdpObservation {
  double pdp = 0.0;        ///< Mean PDP of the report's frames [mW].
  double weight = 1.0;     ///< Frame count behind the mean.
  double timestamp_s = 0.0;
};

struct SessionStoreConfig {
  std::size_t shards = 8;
  /// Observations older than this are evicted (the time-decay horizon for
  /// a nomadic AP's old-site judgements).
  double anchor_ttl_s = 30.0;
  /// Sessions untouched for this long are evicted wholesale.
  double session_idle_ttl_s = 300.0;
  /// Live-byte budget per shard (0 = unlimited).  An Upsert that pushes a
  /// shard past its budget evicts least-recently-touched sessions until
  /// the shard fits again (`serving.evictions.pressure`).
  std::size_t shard_bytes_budget = 0;
  /// Expected steady-state totals (across all shards).  Pre-sizes the
  /// index and slabs so resident bytes track live bytes instead of
  /// vector-doubling past them; 0 = grow on demand.
  std::size_t reserve_sessions = 0;
  std::size_t reserve_anchors = 0;
  std::size_t reserve_observations = 0;

  common::Result<void> Validate() const;
};

/// The last successful estimate served for an object — degradation level
/// 3's answer when everything newer has failed or aged out.
struct LastKnownGood {
  geometry::Vec2 position;
  double confidence = 0.0;   ///< Confidence of the original response.
  double timestamp_s = 0.0;  ///< Logical time it was served.
};

/// Deterministic view of one session at a given logical time: live anchors
/// sorted by AnchorKey, ready to feed core::LocateRequest::anchors.
struct SessionSnapshot {
  std::vector<localization::Anchor> anchors;
  /// Distinct anchor keys currently live / ever observed.  live < ever
  /// means constraints have aged out — the response is degraded.
  std::size_t live_keys = 0;
  std::size_t keys_ever = 0;
  double last_touch_s = 0.0;
};

/// Aggregated footprint of the store (see also the per-shard
/// `serving.shard.bytes` histogram).
struct MemoryStats {
  std::size_t sessions = 0;
  std::size_t anchors = 0;
  std::size_t observations = 0;
  /// Bytes of live records + index load (the budgeted quantity).
  std::size_t live_bytes = 0;
  /// Bytes actually allocated (slab capacity, freelist slack, index
  /// headroom included).
  std::size_t resident_bytes = 0;
};

class SessionStore {
 public:
  explicit SessionStore(const SessionStoreConfig& config);

  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  std::size_t ShardCount() const noexcept { return shards_.size(); }
  std::size_t ShardOf(std::uint64_t object_id) const noexcept;

  /// Appends one observation to the object's session (creating the session
  /// and anchor entry as needed).  `position` updates the anchor's
  /// reported position (latest report wins).  Returns true when a new
  /// session was created.
  bool Upsert(std::uint64_t object_id, AnchorKey key, geometry::Vec2 position,
              bool is_nomadic, const PdpObservation& obs, double now_s);

  /// Prunes expired observations of the object's session and returns the
  /// surviving anchors sorted by AnchorKey.  An anchor's PDP is its
  /// observations' weight-averaged mean (a single observation passes
  /// through bit-exactly).  kNotFound when the session does not exist.
  common::Result<SessionSnapshot> Snapshot(std::uint64_t object_id,
                                           double now_s);

  /// Sweeps one shard completely: drops expired observations, empty
  /// anchors, and idle sessions.  Returns the number of sessions evicted.
  /// Also feeds the serving.shard.occupancy / serving.shard.bytes
  /// histograms and eviction counters.
  std::size_t SweepShard(std::size_t shard, double now_s);
  /// Sweeps every shard.
  std::size_t SweepAll(double now_s);
  /// Incremental sweep: examines at most `max_sessions` session slots of
  /// the shard, resuming where the previous step stopped (a round-robin
  /// cursor).  This is the per-query sweep the serving hot path uses — a
  /// full SweepShard is O(sessions/shard) and would dominate query latency
  /// at millions of sessions.  Returns sessions evicted.
  std::size_t SweepStep(std::size_t shard, double now_s,
                        std::size_t max_sessions);

  std::size_t SessionCount() const;

  /// Whether the object currently has a live session.
  bool Contains(std::uint64_t object_id) const;

  /// Removes the object's session and everything it links (anchors,
  /// observations, solver state).  Returns true when a session existed.
  /// This is the cluster's anti-entropy primitive: a promoted or repaired
  /// copy supersedes the local one, which is erased before the merge.
  bool Erase(std::uint64_t object_id);

  /// Sorted ids of every live session satisfying `pred` (null = all).
  std::vector<std::uint64_t> ObjectIds(
      const std::function<bool(std::uint64_t)>& pred) const;

  /// Live/resident footprint aggregated over all shards.
  MemoryStats Memory() const;

  /// Remembers the object's most recent successful estimate (creating the
  /// session if it was already evicted).  Serves the last rung of the
  /// degradation ladder.
  void RecordEstimate(std::uint64_t object_id, const LastKnownGood& estimate,
                      double now_s);
  /// kNotFound when the object has no session or no recorded estimate.
  common::Result<LastKnownGood> LastGood(std::uint64_t object_id) const;

  /// The object's stateful solver session, created with `make` on first
  /// use (and again after an eviction dropped it).  Returns nullptr when
  /// the object has no store session — there is nothing to solve then.
  /// The shared_ptr keeps the solver alive even if a concurrent sweep
  /// evicts the session while the caller is mid-solve.  Solver sessions
  /// are scratch state: they are not checkpointed, and a restored store
  /// rebuilds them lazily.
  std::shared_ptr<localization::SpSolverSession> SolverSession(
      std::uint64_t object_id,
      const std::function<std::shared_ptr<localization::SpSolverSession>()>&
          make);

  /// Serialises the sessions (anchors, observations, last-known-good
  /// estimates) whose object id satisfies `owned` — every session when
  /// it is null — into a schema-versioned JSON document.  Sessions are
  /// sorted by object id (flat-map iteration order depends on insertion
  /// history), so equal stores checkpoint to equal bytes no matter how
  /// their contents were built up, and checkpoints taken with
  /// complementary predicates merge via MergeFromJson into the bytes of
  /// one full checkpoint.  A filtered checkpoint is the shard-migration
  /// path: a cluster router dumps just the ids a placement range owns.
  common::Json CheckpointJson(
      const std::function<bool(std::uint64_t)>& owned = nullptr) const;

  /// Replaces the store's contents with a checkpoint produced by
  /// CheckpointJson.  Returns the number of sessions restored; fails with
  /// kInvalidArgument on schema mismatch and kDataCorruption on
  /// non-finite recorded values or duplicate object/anchor ids, leaving
  /// the store unchanged on error.
  common::Result<std::size_t> RestoreFromJson(const common::Json& json);

  /// Adds a checkpoint's sessions to the store *without* clearing it —
  /// the merge half of filtered checkpoints.  An object id that already
  /// has a live session keeps it and the checkpoint's copy is skipped:
  /// the live session formed from newer traffic and supersedes the copy.
  /// Each id is checked and linked under one shard lock, so an Upsert
  /// racing the merge can only make its own session skip.  Returns the
  /// number of sessions merged; like RestoreFromJson the store is
  /// unchanged on any error.
  common::Result<std::size_t> MergeFromJson(const common::Json& json);

 private:
  /// One PDP report, index-linked into its anchor's history chain.
  struct ObsRec {
    double pdp = 0.0;
    double weight = 0.0;
    double timestamp_s = 0.0;
    /// The observation appended before this one (the chain runs
    /// newest-first, so appending writes no older record).
    std::uint32_t next = common::kSlabNil;
  };
  /// One constraint source, fixed width, index-linked into its session's
  /// key-sorted chain.  64 B, the size of one cache line; the fields the
  /// chain walk reads come first.
  struct AnchorRec {
    std::int32_t ap_id = 0;
    std::uint32_t site = 0;
    std::uint32_t next = common::kSlabNil;
    /// Newest observation of the chain.
    std::uint32_t obs_head = common::kSlabNil;
    double x = 0.0;
    double y = 0.0;
    /// Sums of pdp·weight and weight over the chain, added in append
    /// order (oldest first) from 0.0: the same fold a walk of the chain
    /// oldest-first computes, so their quotient is that walk's mean bit
    /// for bit.  A prune that drops any observation re-adds the survivors
    /// oldest-first.
    double pdp_weight_sum = 0.0;
    double weight_sum = 0.0;
    /// Max timestamp ever appended.  For a live anchor this equals the
    /// newest surviving observation (expiry can only strip the max after
    /// everything older has expired too, which frees the whole anchor),
    /// so "is this key fully expired?" is one comparison, not a chain
    /// walk — Upsert's reuse-vs-create decision stays O(1).
    double newest_ts = std::numeric_limits<double>::lowest();
    /// Observations in the chain; a single one passes its PDP through.
    std::uint32_t obs_count = 0;
    bool is_nomadic = false;
  };
  static_assert(sizeof(AnchorRec) == 64, "AnchorRec must stay 64 B");
  struct SessionRec {
    std::uint64_t object_id = 0;
    double last_touch_s = 0.0;
    /// Lower bound on the timestamps of the session's observations (+inf
    /// when it has none).  Upsert lowers it, a PruneSession walk resets
    /// it to the survivors' minimum, and restore sets it; -inf forces the
    /// next prune to walk (a restored anchor without observations must
    /// still be dropped).
    double oldest_ts = std::numeric_limits<double>::infinity();
    double lkg_x = 0.0, lkg_y = 0.0, lkg_confidence = 0.0, lkg_t = 0.0;
    /// Head of the key-sorted anchor chain, mirrored in the session's
    /// IndexEntry; only SetAnchorHead writes either.  Kept here so the
    /// sweep's per-slot emptiness check needs no index probe.
    std::uint32_t anchor_head = common::kSlabNil;
    std::uint32_t keys_ever = 0;
    bool has_lkg = false;
    /// Warm SP solver state for streaming queries (never checkpointed).
    std::shared_ptr<localization::SpSolverSession> solver;
  };
  /// What the shard index maps an object id to.
  struct IndexEntry {
    std::uint32_t slot = common::kSlabNil;
    /// Mirror of SessionRec::anchor_head: Upsert starts its anchor walk
    /// here without loading the session record first.
    std::uint32_t anchor_head = common::kSlabNil;
  };
  struct Shard {
    mutable std::mutex mutex;
    common::FlatHashMap<std::uint64_t, IndexEntry> index;
    common::Slab<SessionRec> sessions;
    common::Slab<AnchorRec> anchors;
    common::Slab<ObsRec> observations;
    /// Round-robin cursor for SweepStep.
    std::size_t sweep_cursor = 0;
    /// Deterministic per-shard stream for pressure-eviction sampling.
    std::uint64_t rng_state = 0;
  };

  /// Bytes of live records + index load in one shard (caller holds the
  /// shard mutex).
  std::size_t ShardLiveBytes(const Shard& shard) const noexcept;
  std::size_t ShardResidentBytes(const Shard& shard) const noexcept;

  /// The one writer of a session's anchor-chain head: sets
  /// SessionRec::anchor_head and its IndexEntry mirror.  `entry` may be
  /// null, and is then looked up.  Caller holds the shard mutex.
  static void SetAnchorHead(Shard& shard, SessionRec& session,
                            IndexEntry* entry, std::uint32_t head);
  /// Links observation `index` as the anchor's newest and adds it to the
  /// running sums.
  static void AppendObservation(AnchorRec& anchor, std::uint32_t index,
                                ObsRec& obs);
  /// Drops expired observations / empty anchors; returns #observations
  /// evicted.  Caller holds the shard mutex.  Returns 0 without touching
  /// the chains when `now_s - oldest_ts <= anchor_ttl_s` (and oldest_ts
  /// is not -inf): no observation is older than the bound and rounded
  /// subtraction is monotone, so nothing can have expired.  That keeps
  /// the per-query sweep and every snapshot from walking histories where
  /// nothing ages out.  A walk that drops the head anchor refreshes the
  /// index mirror with one lookup.
  std::size_t PruneSession(Shard& shard, SessionRec& session,
                           double now_s) const;
  /// Frees the session's anchors and observations (caller holds the
  /// mutex, then frees the session record and erases its index entry).
  void FreeSessionRecords(Shard& shard, SessionRec& session) const;
  /// Evicts least-recently-touched sessions (sampled) until the shard is
  /// back under its byte budget.  `keep` is never evicted (it is the
  /// session the triggering ingest just touched).  Caller holds the
  /// mutex.  Returns sessions evicted.
  std::size_t EvictForPressure(Shard& shard, std::uint32_t keep_slot);
  /// Prunes one session slot and evicts it when idle/empty.  Returns true
  /// when the slot was evicted.  Caller holds the mutex.
  bool SweepSlot(Shard& shard, std::uint32_t slot, double now_s,
                 std::size_t& observations_evicted);
  /// Shared body of RestoreFromJson (`replace` clears the store first)
  /// and MergeFromJson.
  common::Result<std::size_t> RestoreImpl(const common::Json& json,
                                          bool replace);

  SessionStoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nomloc::serving

// The shard router and the Cluster that owns it.
//
// A Cluster is N shard hosts (each a StreamingLocalizer behind a wire
// transport — see shard_host.h) plus the router: every IngestPacket is
// encoded once and written to the shard the rendezvous placement table
// owns its object id to.  The router is the cluster's admission boundary
// and reuses the serving layer's typed verdicts:
//
//   kRejectedShutdown   after Shutdown()
//   kRejectedDeadline   deadline already passed on the router clock
//   kRejectedQueueFull  transport backpressure (loopback reject-not-block)
//   kRejectedBreakerOpen no healthy candidate shard remained
//
// Per-shard health is a CircuitBreaker (PR 5 idiom): a transport write
// failure is RecordFailure — `failure_threshold` consecutive ones trip
// the breaker open (`cluster.shard_trips`), a restarted shard is probed
// half-open after the backoff, and a successful write re-closes it.
// While a shard is unhealthy the router walks the object's rendezvous
// preference order and delivers to the best healthy shard instead
// (`cluster.rerouted`) — sessions re-form there from subsequent traffic.
// Backpressure deliberately does NOT reroute: scattering an object's
// session over a transient full queue would split its anchor history.
//
// Responses flow back asynchronously: one router-side reader thread per
// shard reassembles response frames (WireDecoder) into TakeResponses().
// Flush() is a token round-trip — every live shard gets kFlush(token) and
// the call blocks until each kFlushAck(token) arrives, so after Flush()
// every accepted query's response is in TakeResponses().
//
// Live migration (Migrate): flush, checkpoint the shard's SessionStore
// *filtered to the ids its placement slot owns*, build a replacement host
// on a fresh link, restore the checkpoint, then atomically swap the slot
// (ingest holds the slot mutex for the swap only).  The placement table
// itself never changes — a slot keeps its id range; only the host behind
// it is replaced, which is why a migrated cluster stays bit-identical to
// an unsharded golden run.
//
// Replication (ClusterConfig::replicate): every accepted observation is
// dual-written as a replicate frame to the object's standby shard — the
// first live slot in its preference order after the one that took the
// primary write — where it lands in a warm-standby SessionStore.  When a
// primary dies, the first packet that finds it dead triggers automatic
// failover: a flush fence, a placement-epoch bump (broadcast in-band as
// kEpochSet; older-stamped replicate frames become typed
// kRejectedStaleEpoch — the split-brain fence), and an anti-entropy
// repair that promotes the dead shard's standby copies into their new
// primaries.  Recover() reverses it: the shard comes back (from its WAL
// + checkpoint file when durable_dir is set), drops the sessions a live
// peer owns, promoted sessions are handed back, and standby copies are
// re-seeded from the live primaries.  A shard persists only the sessions
// it owns; a standby copy is never on disk.  See DESIGN.md
// "Replication & failover".
//
// All cluster metrics are namespaced `cluster.*`; AllMetricNames() is the
// canonical list (tested against --metrics output).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "cluster/shard_host.h"
#include "cluster/transport.h"
#include "core/nomloc.h"
#include "serving/clock.h"
#include "serving/service.h"
#include "serving/wire.h"

namespace nomloc::cluster {

struct ClusterConfig {
  std::size_t shards = 4;
  TransportConfig transport;
  /// Per-host serving config (workers, queue bounds, store, breakers...).
  serving::ServingConfig serving;
  /// Per-shard transport health breakers.
  serving::CircuitBreakerConfig shard_breaker;
  /// Walk the rendezvous preference order around unhealthy shards.  Off,
  /// an unhealthy owner rejects with kRejectedBreakerOpen instead.
  bool route_around = true;
  /// Dual-write every accepted observation to the object's standby shard
  /// (the first live slot in its preference order after the one that took
  /// the primary write), and promote standbys automatically when a
  /// primary dies (see "Replication & failover" in DESIGN.md).  Requires
  /// >= 2 shards.
  bool replicate = false;
  /// Durable state root (empty = in-memory cluster).  Each shard gets
  /// `<durable_dir>/shard-N` holding its WAL segments + checkpoint.json
  /// (its own sessions, never standby copies); Recover() brings a killed
  /// shard back from them.
  std::string durable_dir;
  bool wal_fsync = true;
  /// Router-side reconnect/retry policy: a transport write that reports
  /// backpressure is retried up to this many times with exponential
  /// backoff (1 ms doubling to 50 ms) + deterministic jitter before the
  /// typed kRejectedQueueFull is surfaced (0 = reject immediately, the
  /// pre-replication behavior).  An exhausted budget also feeds the
  /// shard's breaker, so persistent pressure trips it and re-admission
  /// flows through the half-open probe.  True re-dialing does not exist
  /// for in-process link pairs — Restart()/Recover() is the reconnect;
  /// the budget covers the transient window.
  std::size_t write_retry_budget = 0;

  common::Result<void> Validate() const;
};

/// One response received from a shard, stamped on arrival for
/// coordinated-omission-free latency measurement (the scheduled send wall
/// time cannot cross the wire, so the *router* closes the loop).
struct ClusterResponse {
  serving::WireResponse response;
  std::size_t shard = 0;
  std::chrono::steady_clock::time_point received_wall{};
};

class Cluster {
 public:
  /// `engine` and `clock` must outlive the cluster.  `clock` may be null
  /// (router admission then runs on wall time).
  static common::Result<std::unique_ptr<Cluster>> Create(
      const core::NomLocEngine& engine, ClusterConfig config,
      const serving::Clock* clock = nullptr);

  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Routes one packet (see the admission table above).
  serving::AdmitStatus Ingest(const serving::IngestPacket& packet);

  /// Token round-trip on every live shard; on return all responses to
  /// previously accepted packets are available via TakeResponses().
  void Flush();

  std::vector<ClusterResponse> TakeResponses();

  /// Flush + filtered checkpoint of `shard`'s store (only ids its
  /// placement slot owns); the dump is kept for Restart().
  common::Result<void> Checkpoint(std::size_t shard);

  /// Live migration: drain, checkpoint (filtered), restore into a fresh
  /// host on a fresh link, swap atomically.  Bit-identity is preserved —
  /// the replacement answers exactly as the original would have.
  common::Result<void> Migrate(std::size_t shard);

  /// Chaos: abrupt shard death.  The host and both link ends die; later
  /// writes fail and trip the shard's breaker.  `unclean` is the crash
  /// end of the spectrum: the host aborts mid-stream (decoded-but-
  /// unapplied bytes die with it) instead of draining — state then comes
  /// back only through Recover()'s WAL replay, never a graceful drain.
  void Kill(std::size_t shard, bool unclean = false);

  /// Brings a killed shard back on a fresh host + link, loaded from the
  /// last Checkpoint()/Migrate() dump (sessions since that dump are lost —
  /// they age out via TTL).  A replicated shard comes back without
  /// standby copies: the dump holds only its own sessions, and the next
  /// repair reseeds them.  The shard's breaker is kept: the router
  /// re-admits it through the half-open probe path.
  common::Result<void> Restart(std::size_t shard);

  /// Full recovery of a killed shard: reattach a host (which, with a
  /// durable_dir, self-restores its own sessions from checkpoint.json +
  /// WAL replay), bump the placement epoch, drop every session the
  /// recovered host replayed for an object a live peer owns (the first
  /// live slot in the object's preference order), and in replicate mode
  /// run anti-entropy repair — promoted sessions are handed back to the
  /// recovered owner (its replayed copy is superseded by the promoted
  /// one, which kept absorbing writes while it was down) and every
  /// session's standby copy is re-seeded from its live primary.  The
  /// shard's breaker is reset: after Recover() the cluster serves
  /// exactly as if the failure never happened.
  common::Result<void> Recover(std::size_t shard);

  /// Chaos: stall `shard`'s ingest direction (bytes queue up to the
  /// loopback capacity, then writes see backpressure).  Returns false on
  /// transports that cannot stall.
  bool SetStalled(std::size_t shard, bool stalled);

  std::size_t ShardCount() const noexcept;
  std::size_t ShardOf(std::uint64_t object_id) const noexcept;
  bool ShardLive(std::size_t shard) const;
  const PlacementTable& Placement() const noexcept { return table_; }
  /// The current placement epoch (bumped by failover and recovery;
  /// stamped into every control and replicate frame).
  std::uint64_t PlacementEpoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Test/tool introspection; null while the shard is killed.
  serving::SessionStore* StoreOf(std::size_t shard);
  /// The shard's warm-standby store (replica copies of other shards'
  /// sessions); null while the shard is killed.
  serving::SessionStore* StandbyStoreOf(std::size_t shard);

  /// Closes every link and joins every thread.  Idempotent; Ingest
  /// afterwards returns kRejectedShutdown.
  void Shutdown();

 private:
  struct Slot;

  Cluster(const core::NomLocEngine& engine, ClusterConfig config,
          const serving::Clock* clock, PlacementTable table);

  /// Builds a connected host (+ its router-side reader) for `slot`,
  /// restoring its primary store from `dump` and its standby store from
  /// `standby_dump` when given.
  common::Result<void> AttachHost(std::size_t shard, const std::string* dump,
                                  const std::string* standby_dump = nullptr);
  void DetachHost(std::size_t shard);
  void ReaderLoop(std::size_t shard);
  /// Write under the slot mutex, stream header included on first use.
  LinkWrite WriteToSlot(Slot& slot, std::string_view bytes);
  /// `<durable_dir>/shard-N` (empty when the cluster is in-memory).
  std::string ShardDurableDir(std::size_t shard) const;
  /// Dual-writes one accepted observation to the object's standby shard
  /// (first live preference-order slot != `delivered`).
  void ReplicateWrite(const serving::IngestPacket& packet,
                      std::size_t delivered);
  /// Promotes the dead shard's standbys exactly once (flush fence, epoch
  /// bump + broadcast, anti-entropy repair).  Races resolve to a single
  /// promotion via the slot's failed_over latch.
  void MaybeFailover(std::size_t shard);
  /// Each slot's host while it is live, else null.
  std::vector<ShardHost*> LiveHosts();
  /// In-band kEpochSet to every live shard.
  void BroadcastEpoch(std::uint64_t epoch);
  /// Global 4-pass convergence sweep (caller holds failover_mutex_ and
  /// has flushed): promote owed standbys, hand sessions back to their
  /// effective primary, drop misplaced standby copies, reseed missing
  /// ones.  Shared by failover promotion and Recover().
  void AntiEntropyRepair();

  const core::NomLocEngine& engine_;
  ClusterConfig config_;
  std::unique_ptr<serving::SteadyClock> owned_clock_;
  const serving::Clock* clock_;  ///< Never null.
  PlacementTable table_;

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> flush_token_{0};
  /// Authoritative placement epoch (mirrored into table_ under
  /// failover_mutex_).
  std::atomic<std::uint64_t> epoch_{0};
  /// Serializes failover promotion, recovery, and anti-entropy repair.
  std::mutex failover_mutex_;
  /// Deterministic stream for retry-backoff jitter, from a fixed seed.
  std::atomic<std::uint64_t> retry_jitter_state_{0x2545f4914f6cdd1dull};

  std::mutex ack_mutex_;
  std::condition_variable ack_cv_;

  std::mutex responses_mutex_;
  std::vector<ClusterResponse> responses_;
};

/// Canonical names of every cluster metric, for drift tests and tooling.
std::span<const std::string_view> AllMetricNames();

/// Registers every cluster metric in the global registry so a --metrics
/// dump lists the full cluster surface even before traffic.
void TouchMetrics();

}  // namespace nomloc::cluster

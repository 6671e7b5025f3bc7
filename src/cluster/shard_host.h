// One shard host: a StreamingLocalizer behind a wire-format byte stream.
//
// The host owns a reader thread that drains its transport Link, feeds an
// incremental serving::WireDecoder, and applies the decoded frames in
// exact stream order:
//
//   observation / query  -> StreamingLocalizer::Ingest (after advancing
//                           the host's logical clock to the packet
//                           timestamp)
//   replicate            -> warm-standby SessionStore::Upsert — the
//                           backup copy of another shard's primary write
//                           (epoch-fenced; see ApplyReplicate; never
//                           logged: a standby copy is derived state)
//   kEpochSet            -> adopt the router's placement epoch; replicate
//                           frames stamped with an older epoch are
//                           rejected from then on
//   kFlush               -> Flush the localizer, write one response frame
//                           per completed query (ordered by ingest seq),
//                           then a kFlushAck echoing the token
//
// Logical time therefore travels *in-band*: each host sees exactly the
// timestamps of its own shard's packets, and because the replay stream is
// globally timestamp-sorted, the host clock at every serve is the same as
// the unsharded run's — the keystone of the cluster's bit-identity
// guarantee (see DESIGN.md "Cluster shard topology").
//
// Durability (ShardHostOptions::durable_dir): the host keeps a
// write-ahead log of the frames that carry its own state — observation,
// query, kEpochSet; kFlush is a barrier, and a replicate frame only
// feeds the standby store — appending each decoded batch *before*
// applying it.  Create() then recovers a crashed host's primary store:
// restore checkpoint.json, replay the WAL on top, discard the replayed
// queries' responses (the router collected the originals before the
// crash).  The standby store is never on disk: it comes back empty, and
// only a live primary reseeds it (the router's dual-write and its repair
// pass).  See serving/wal.h for the torn-tail and corruption contract.
//
// The host never reads the router's clock and shares no memory with the
// router beyond the Link: everything it needs crosses the wire, so the
// same code serves an in-process loopback shard and a socket-connected
// one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/transport.h"
#include "core/nomloc.h"
#include "serving/clock.h"
#include "serving/service.h"
#include "serving/wal.h"
#include "serving/wire.h"

namespace nomloc::cluster {

/// The checkpoint file inside a shard's durable directory (next to its
/// WAL segments; the WAL's `wal-NNNNNN.log` scan ignores it).
inline std::string ShardCheckpointPath(const std::string& durable_dir) {
  return durable_dir + "/checkpoint.json";
}

struct ShardHostOptions {
  /// The placement epoch the host starts at.  A promoted cluster bumps
  /// its epoch and broadcasts kEpochSet; replicate frames carrying an
  /// older epoch are stale-fenced (`cluster.placement.stale_epoch`).
  std::uint64_t placement_epoch = 0;
  /// Durable state directory (empty = in-memory host).  Holds the WAL
  /// segments plus checkpoint.json, the primary store's sessions only;
  /// Create() recovers from both before the reader starts.
  std::string durable_dir;
  bool wal_fsync = true;
};

class ShardHost {
 public:
  /// `engine` must outlive the host.  Takes ownership of the host end of
  /// a Link pair.  With a durable_dir, recovers checkpoint.json + WAL
  /// before accepting traffic.
  static common::Result<std::unique_ptr<ShardHost>> Create(
      const core::NomLocEngine& engine, serving::ServingConfig serving_config,
      std::unique_ptr<Link> link, ShardHostOptions options = {});

  ~ShardHost();

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  /// Graceful stop: closes the link, joins the reader (which drains every
  /// byte already in flight), and shuts the localizer down.  Idempotent.
  void Stop();

  /// Unclean stop: the crash end of the chaos spectrum.  The reader
  /// abandons decoded-but-unapplied batches instead of draining them, so
  /// the host dies mid-stream exactly like a killed process — recovery
  /// must come from the WAL + checkpoint file, not a graceful drain.
  /// (Frames already WAL-appended may be unapplied; replay reconciles.)
  void Abort();

  /// The host's session store — the router checkpoints it for migration
  /// while the host is quiesced (flushed, or stopped).
  serving::SessionStore& Store() { return localizer_->Store(); }
  /// Warm-standby copies of *other* shards' sessions, fed by replicate
  /// frames and the router's repair.  Promotion moves entries from here
  /// into a primary store.  In memory only: a recovered host starts it
  /// empty.
  serving::SessionStore& StandbyStore() { return *standby_; }

  std::uint64_t PlacementEpoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Applies one dual-written observation to the standby store.  The
  /// split-brain fence: a frame whose epoch predates the host's is
  /// kRejectedStaleEpoch (`cluster.placement.stale_epoch`) and touches
  /// nothing — a router that lost a failover race cannot write into a
  /// standby that was already promoted.  An observation the primary's
  /// Ingest would reject as corrupt (serving::IsCorruptObservation) is
  /// kRejectedCorrupt here too.  Mirrors the worker's
  /// observation apply bit-exactly (deadline check, then Upsert) with
  /// now = the packet timestamp, so a promoted standby answers as the
  /// primary would have.
  serving::AdmitStatus ApplyReplicate(const serving::WireReplicate& replicate);

  /// Deletes every WAL segment (compaction).  Call only while quiesced
  /// and immediately after the state the WAL reflects was saved to
  /// checkpoint.json — the two together are one logical step.
  common::Result<void> ResetWal();

  const std::string& DurableDir() const noexcept {
    return options_.durable_dir;
  }

 private:
  ShardHost(const core::NomLocEngine& engine, std::unique_ptr<Link> link,
            ShardHostOptions options);

  /// Restores checkpoint.json + WAL replay (durable_dir set), then
  /// opens the WAL for appending.  Runs before the reader starts.
  common::Result<void> Recover();
  void ReaderLoop();
  /// Applies one decoded frame.  `outbound` is the reader's write buffer
  /// (null during WAL replay, when no flush frames exist to answer).
  void ApplyEvent(const serving::WireEvent& event, std::string* outbound);
  /// Re-encodes the frames of a batch that carry the host's own state
  /// for the WAL (kFlush and kFlushAck are barriers and replicate frames
  /// feed the standby store: all three are skipped).
  static void EncodeForWal(const serving::WireEvent& event, std::string& out);
  /// Flush + encode responses + ack.  Runs on the reader thread.
  void HandleFlush(std::uint64_t token, std::string& outbound);
  /// Writes with bounded retries on backpressure (the response pipe is
  /// drained by the router's reader, so pressure is transient).
  void WriteOut(std::string& outbound);

  serving::ManualClock clock_;
  std::unique_ptr<serving::StreamingLocalizer> localizer_;
  std::unique_ptr<serving::SessionStore> standby_;
  std::unique_ptr<Link> link_;
  const ShardHostOptions options_;
  std::atomic<std::uint64_t> epoch_;
  /// Guards wal_ between the reader's appends and ResetWal().
  std::mutex wal_mutex_;
  std::unique_ptr<serving::WriteAheadLog> wal_;
  bool header_sent_ = false;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> aborted_{false};
  std::thread reader_;
};

}  // namespace nomloc::cluster

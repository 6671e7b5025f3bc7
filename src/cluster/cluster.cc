#include "cluster/cluster.h"

#include <algorithm>
#include <optional>

#include "common/metrics.h"
#include "serving/wal.h"

namespace nomloc::cluster {

namespace {

constexpr std::string_view kCounterNames[] = {
    "cluster.routed",
    "cluster.rerouted",
    "cluster.rejected.backpressure",
    "cluster.rejected.breaker",
    "cluster.rejected.deadline",
    "cluster.rejected.shutting_down",
    "cluster.shard_trips",
    "cluster.migrations",
    "cluster.checkpoints",
    "cluster.restarts",
    "cluster.kills",
    "cluster.flushes",
    "cluster.responses",
    "cluster.host.rejected",
    "cluster.replicated",
    "cluster.replicate.failed",
    "cluster.failovers",
    "cluster.promoted_sessions",
    "cluster.repair.sessions",
    "cluster.repair.skipped",
    "cluster.recoveries",
    "cluster.placement.stale_epoch",
    "cluster.write_retries",
};

common::MetricCounter& Metric(std::string_view name) {
  return common::MetricRegistry::Global().Counter(name);
}

/// splitmix64 step, for deterministic retry-backoff jitter.
std::uint64_t JitterMix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// An object's effective primary: the first slot in its preference order
/// whose host is live (kNoShard when none is).  `order` is a reused
/// buffer.
std::size_t EffectivePrimary(const PlacementTable& table,
                             const std::vector<ShardHost*>& hosts,
                             std::uint64_t object_id,
                             std::vector<std::size_t>& order) {
  table.PreferenceOrder(object_id, order);
  for (std::size_t index : order)
    if (hosts[index] != nullptr) return index;
  return kNoShard;
}

/// Write-retry backoff: the first wait, doubling up to the cap.
constexpr double kWriteRetryBaseMs = 1.0;
constexpr double kWriteRetryMaxMs = 50.0;

}  // namespace

std::span<const std::string_view> AllMetricNames() { return kCounterNames; }

void TouchMetrics() {
  for (std::string_view name : kCounterNames) Metric(name);
}

common::Result<void> ClusterConfig::Validate() const {
  if (shards == 0)
    return common::InvalidArgument("cluster needs at least one shard");
  if (replicate && shards < 2)
    return common::InvalidArgument(
        "replication needs at least two shards (a standby must live "
        "somewhere else)");
  NOMLOC_RETURN_IF_ERROR(transport.Validate().status());
  NOMLOC_RETURN_IF_ERROR(serving.Validate().status());
  NOMLOC_RETURN_IF_ERROR(shard_breaker.Validate().status());
  return {};
}

/// Everything the router knows about one shard slot.  `mutex` guards the
/// write side (link, header, breaker, live flag, failed_over latch); the
/// read side is the slot's dedicated reader thread, which owns the raw
/// Link pointer it was spawned with and never touches these fields.
struct Cluster::Slot {
  explicit Slot(const serving::CircuitBreakerConfig& breaker_config)
      : breaker(breaker_config) {}

  std::mutex mutex;
  std::unique_ptr<ShardHost> host;
  std::unique_ptr<Link> link;  ///< Router end.
  bool header_sent = false;
  bool live = false;
  /// Set by the one failover that promoted this slot's standbys; cleared
  /// on reattach.  The exactly-once latch for MaybeFailover races.
  bool failed_over = false;
  serving::CircuitBreaker breaker;
  std::thread reader;
  /// Guarded by Cluster::ack_mutex_.
  std::uint64_t acked_token = 0;
  bool reader_done = true;
  /// Last Checkpoint()/Migrate() dump, for Restart().
  std::string checkpoint;
};

common::Result<std::unique_ptr<Cluster>> Cluster::Create(
    const core::NomLocEngine& engine, ClusterConfig config,
    const serving::Clock* clock) {
  NOMLOC_RETURN_IF_ERROR(config.Validate().status());
  NOMLOC_ASSIGN_OR_RETURN(
      PlacementTable table,
      PlacementTable::Create(config.shards));
  auto cluster = std::unique_ptr<Cluster>(
      new Cluster(engine, std::move(config), clock, std::move(table)));
  for (std::size_t shard = 0; shard < cluster->config_.shards; ++shard) {
    auto status = cluster->AttachHost(shard, nullptr);
    if (!status.ok()) {
      cluster->Shutdown();
      return status.status();
    }
  }
  return cluster;
}

Cluster::Cluster(const core::NomLocEngine& engine, ClusterConfig config,
                 const serving::Clock* clock, PlacementTable table)
    : engine_(engine), config_(std::move(config)), clock_(clock),
      table_(std::move(table)) {
  if (clock_ == nullptr) {
    owned_clock_ = std::make_unique<serving::SteadyClock>();
    clock_ = owned_clock_.get();
  }
  slots_.reserve(config_.shards);
  for (std::size_t shard = 0; shard < config_.shards; ++shard)
    slots_.push_back(std::make_unique<Slot>(config_.shard_breaker));
}

Cluster::~Cluster() { Shutdown(); }

std::string Cluster::ShardDurableDir(std::size_t shard) const {
  if (config_.durable_dir.empty()) return {};
  return config_.durable_dir + "/shard-" + std::to_string(shard);
}

common::Result<void> Cluster::AttachHost(std::size_t shard,
                                         const std::string* dump,
                                         const std::string* standby_dump) {
  NOMLOC_ASSIGN_OR_RETURN(LinkPair pair, ConnectLinkPair(config_.transport));
  ShardHostOptions options;
  options.placement_epoch = epoch_.load(std::memory_order_acquire);
  options.durable_dir = ShardDurableDir(shard);
  options.wal_fsync = config_.wal_fsync;
  NOMLOC_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardHost> host,
      ShardHost::Create(engine_, config_.serving, std::move(pair.host_end),
                        std::move(options)));
  const auto restore = [](const std::string* from,
                          serving::SessionStore& into) -> common::Result<void> {
    if (from == nullptr || from->empty()) return {};
    NOMLOC_ASSIGN_OR_RETURN(common::Json checkpoint,
                            common::Json::Parse(*from));
    return into.RestoreFromJson(checkpoint).status();
  };
  auto restored = restore(dump, host->Store());
  if (restored.ok()) restored = restore(standby_dump, host->StandbyStore());
  if (!restored.ok()) {
    host->Stop();
    return restored;
  }
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  slot.host = std::move(host);
  slot.link = std::move(pair.router_end);
  slot.header_sent = false;
  slot.live = true;
  slot.failed_over = false;
  {
    std::lock_guard<std::mutex> ack_lock(ack_mutex_);
    slot.reader_done = false;
  }
  slot.reader = std::thread([this, shard] { ReaderLoop(shard); });
  return {};
}

void Cluster::DetachHost(std::size_t shard) {
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.live && slot.host == nullptr) return;
  slot.live = false;
  if (slot.link) slot.link->Close();
  if (slot.reader.joinable()) slot.reader.join();
  if (slot.host) slot.host->Stop();
  slot.host.reset();
  slot.link.reset();
  ack_cv_.notify_all();
}

void Cluster::ReaderLoop(std::size_t shard) {
  Slot& slot = *slots_[shard];
  // The attach that spawned this thread set the link before the spawn
  // (thread creation synchronizes), and DetachHost joins us before
  // resetting it — a plain read is race-free for the thread's lifetime.
  Link* const link = slot.link.get();
  serving::WireDecoder decoder(serving::WireDecoderAccept{
      .packets = false, .responses = true, .controls = true, .ordered = true});
  std::string incoming;
  static auto& responses_counter = Metric("cluster.responses");
  while (true) {
    incoming.clear();
    if (link->Read(incoming) == 0) break;
    if (!decoder.Feed(incoming).ok()) break;
    for (const serving::WireEvent& event : decoder.TakeEvents()) {
      if (event.kind == serving::kWireResponseFrame) {
        ClusterResponse response;
        response.response = event.response;
        response.shard = shard;
        response.received_wall = std::chrono::steady_clock::now();
        responses_counter.Increment();
        std::lock_guard<std::mutex> lock(responses_mutex_);
        responses_.push_back(response);
      } else if (event.kind == serving::kWireControlFrame &&
                 event.control.op == serving::WireControlOp::kFlushAck) {
        std::lock_guard<std::mutex> lock(ack_mutex_);
        if (event.control.token > slot.acked_token)
          slot.acked_token = event.control.token;
        ack_cv_.notify_all();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(ack_mutex_);
    slot.reader_done = true;
  }
  ack_cv_.notify_all();
}

LinkWrite Cluster::WriteToSlot(Slot& slot, std::string_view bytes) {
  if (!slot.header_sent) {
    std::string first = serving::WireHeader();
    first.append(bytes.data(), bytes.size());
    const LinkWrite verdict = slot.link->Write(first);
    if (verdict == LinkWrite::kOk) slot.header_sent = true;
    return verdict;
  }
  return slot.link->Write(bytes);
}

serving::AdmitStatus Cluster::Ingest(const serving::IngestPacket& packet) {
  static auto& routed = Metric("cluster.routed");
  static auto& rerouted = Metric("cluster.rerouted");
  static auto& rejected_backpressure = Metric("cluster.rejected.backpressure");
  static auto& rejected_breaker = Metric("cluster.rejected.breaker");
  static auto& rejected_deadline = Metric("cluster.rejected.deadline");
  static auto& rejected_shutting_down =
      Metric("cluster.rejected.shutting_down");
  static auto& trips = Metric("cluster.shard_trips");
  static auto& write_retries = Metric("cluster.write_retries");

  if (shutdown_.load(std::memory_order_acquire))
    return serving::AdmitStatus::kRejectedShutdown;
  const double now_s = clock_->NowSeconds();
  // Same admission comparison as StreamingLocalizer::Ingest, so a
  // router-side rejection is exactly the rejection the unsharded run
  // would have issued (neither produces a response).
  if (now_s > packet.deadline_s) {
    rejected_deadline.Increment();
    return serving::AdmitStatus::kRejectedDeadline;
  }

  std::string frame;
  serving::AppendWireFrame(packet, frame);

  const auto record_failure = [&](Slot& slot) {
    const bool was_open = slot.breaker.State() == serving::BreakerState::kOpen;
    slot.breaker.RecordFailure(now_s);
    if (!was_open && slot.breaker.State() == serving::BreakerState::kOpen)
      trips.Increment();
  };

  // nullopt = this candidate cannot take the packet (dead / breaker
  // open / transport closed); a definite verdict stops the walk.
  auto try_slot =
      [&](std::size_t index) -> std::optional<serving::AdmitStatus> {
    Slot& slot = *slots_[index];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.breaker.Allow(now_s)) return std::nullopt;
    if (!slot.live || slot.link == nullptr) {
      if (shutdown_.load(std::memory_order_acquire)) {
        // The teardown race, not a shard fault: typed as shutting-down
        // (definite, no breaker count — nothing will probe back).
        rejected_shutting_down.Increment();
        return serving::AdmitStatus::kRejectedShuttingDown;
      }
      // A dead shard fails its candidates like a broken transport: the
      // breaker counts toward a trip, then Allow() short-circuits.
      record_failure(slot);
      return std::nullopt;
    }
    const LinkWrite verdict = WriteToSlot(slot, frame);
    if (verdict == LinkWrite::kOk) {
      slot.breaker.RecordSuccess(now_s);
      return serving::AdmitStatus::kAccepted;
    }
    if (verdict == LinkWrite::kBackpressure) {
      // Typed backpressure, no reroute: scattering an object's session
      // across shards over a transient full pipe would split its anchor
      // history.  The sender retries; the owner keeps the session.
      return serving::AdmitStatus::kRejectedQueueFull;
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      rejected_shutting_down.Increment();
      return serving::AdmitStatus::kRejectedShuttingDown;
    }
    record_failure(slot);
    return std::nullopt;
  };

  // The reconnect/retry policy: transient backpressure is waited out with
  // exponential backoff + jitter before the typed rejection escapes.  An
  // exhausted budget feeds the breaker so persistent pressure trips it
  // and re-admission runs through the half-open probe.
  auto try_slot_with_retry =
      [&](std::size_t index) -> std::optional<serving::AdmitStatus> {
    auto verdict = try_slot(index);
    if (config_.write_retry_budget == 0) return verdict;
    double backoff_ms = kWriteRetryBaseMs;
    for (std::size_t attempt = 0;
         verdict.has_value() &&
         *verdict == serving::AdmitStatus::kRejectedQueueFull &&
         attempt < config_.write_retry_budget;
         ++attempt) {
      write_retries.Increment();
      const std::uint64_t draw = JitterMix(
          retry_jitter_state_.fetch_add(1, std::memory_order_relaxed));
      const double frac = double(draw >> 11) * 0x1.0p-53;  // [0, 1)
      const double sleep_ms = backoff_ms * (0.5 + 0.5 * frac);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
      backoff_ms = std::min(backoff_ms * 2.0, kWriteRetryMaxMs);
      verdict = try_slot(index);
    }
    if (verdict.has_value() &&
        *verdict == serving::AdmitStatus::kRejectedQueueFull) {
      Slot& slot = *slots_[index];
      std::lock_guard<std::mutex> lock(slot.mutex);
      record_failure(slot);
    }
    return verdict;
  };

  const std::size_t primary = table_.ShardOf(packet.object_id);
  if (auto verdict = try_slot_with_retry(primary)) {
    if (*verdict == serving::AdmitStatus::kAccepted) {
      routed.Increment();
      if (config_.replicate &&
          packet.kind == serving::PacketKind::kObservation)
        ReplicateWrite(packet, primary);
    } else if (*verdict == serving::AdmitStatus::kRejectedQueueFull) {
      rejected_backpressure.Increment();
    }
    return *verdict;
  }
  // The owner is definitively unreachable.  In replicate mode promote its
  // standbys *before* the route-around walk, so the shard that takes this
  // packet already holds the object's full history.
  if (config_.replicate) MaybeFailover(primary);
  if (config_.route_around) {
    std::vector<std::size_t> order;
    table_.PreferenceOrder(packet.object_id, order);
    for (std::size_t index : order) {
      if (index == primary) continue;
      if (auto verdict = try_slot_with_retry(index)) {
        if (*verdict == serving::AdmitStatus::kAccepted) {
          rerouted.Increment();
          if (config_.replicate &&
              packet.kind == serving::PacketKind::kObservation)
            ReplicateWrite(packet, index);
        } else if (*verdict == serving::AdmitStatus::kRejectedQueueFull) {
          rejected_backpressure.Increment();
        }
        return *verdict;
      }
    }
  }
  rejected_breaker.Increment();
  return serving::AdmitStatus::kRejectedBreakerOpen;
}

void Cluster::ReplicateWrite(const serving::IngestPacket& packet,
                             std::size_t delivered) {
  static auto& replicated = Metric("cluster.replicated");
  static auto& failed = Metric("cluster.replicate.failed");
  serving::WireReplicate replicate;
  replicate.slot = static_cast<std::uint32_t>(delivered);
  replicate.epoch = epoch_.load(std::memory_order_acquire);
  replicate.packet = packet;
  std::string frame;
  serving::AppendWireReplicateFrame(replicate, frame);
  std::vector<std::size_t> order;
  table_.PreferenceOrder(packet.object_id, order);
  for (std::size_t index : order) {
    if (index == delivered) continue;
    Slot& slot = *slots_[index];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.live || slot.link == nullptr) continue;
    // Replicate frames ride the same ordered stream as packets; a brief
    // backpressure window is waited out.
    LinkWrite verdict = LinkWrite::kClosed;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      verdict = WriteToSlot(slot, frame);
      if (verdict != LinkWrite::kBackpressure) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (verdict == LinkWrite::kOk) {
      replicated.Increment();
      return;
    }
  }
  // No live standby candidate took the copy: the write stays accepted
  // (the primary has it) but unprotected until the next repair sweep.
  failed.Increment();
}

void Cluster::MaybeFailover(std::size_t shard) {
  if (!config_.replicate || shutdown_.load(std::memory_order_acquire)) return;
  {
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.live || slot.failed_over) return;
  }
  std::lock_guard<std::mutex> failover_lock(failover_mutex_);
  if (shutdown_.load(std::memory_order_acquire)) return;
  {
    // Exactly-once: the first thread through here latches the slot; a
    // racing half-open probe (or second ingest) re-checks under the slot
    // mutex and finds the promotion already claimed.
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.live || slot.failed_over) return;
    slot.failed_over = true;
  }
  Metric("cluster.failovers").Increment();
  // Fence: every frame written before now — including the dead primary's
  // dual-written replicate frames — is applied on its standby host before
  // the repair reads the standby stores.
  Flush();
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  table_.SetEpoch(epoch);
  // Hosts adopt the new epoch in stream order, so any replicate frame a
  // lagging router stamped with the old epoch and enqueued *after* this
  // broadcast is rejected as stale — a promoted standby can never be
  // silently written into (the split-brain fence).
  BroadcastEpoch(epoch);
  AntiEntropyRepair();
}

void Cluster::BroadcastEpoch(std::uint64_t epoch) {
  serving::WireControl control;
  control.op = serving::WireControlOp::kEpochSet;
  control.epoch = epoch;
  std::string frame;
  serving::AppendWireControlFrame(control, frame);
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.live || slot.link == nullptr) continue;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const LinkWrite verdict = WriteToSlot(slot, frame);
      if (verdict != LinkWrite::kBackpressure) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::vector<ShardHost*> Cluster::LiveHosts() {
  std::vector<ShardHost*> hosts(slots_.size(), nullptr);
  for (std::size_t index = 0; index < slots_.size(); ++index) {
    Slot& slot = *slots_[index];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.live && slot.host != nullptr) hosts[index] = slot.host.get();
  }
  return hosts;
}

void Cluster::AntiEntropyRepair() {
  static auto& promoted = Metric("cluster.promoted_sessions");
  static auto& repaired = Metric("cluster.repair.sessions");
  static auto& skipped = Metric("cluster.repair.skipped");

  // Snapshot the live hosts.  The caller holds failover_mutex_ and the
  // cluster is flushed; Kill/Restart/Migrate must not run concurrently
  // (the same single-driver contract Migrate already has).
  const std::vector<ShardHost*> hosts = LiveHosts();
  std::vector<std::size_t> order;
  const auto effective_primary = [&](std::uint64_t object_id) {
    return EffectivePrimary(table_, hosts, object_id, order);
  };
  const auto proper_standby = [&](std::uint64_t object_id) {
    table_.PreferenceOrder(object_id, order);
    std::size_t primary = kNoShard;
    for (std::size_t index : order) {
      if (hosts[index] == nullptr) continue;
      if (primary == kNoShard) {
        primary = index;
        continue;
      }
      return index;
    }
    return kNoShard;
  };
  // Sessions cross stores as one filtered checkpoint per (source,
  // destination) pair: byte-exact anchors/observations/LKG.  One dump per
  // pair (not per session) keeps a pass linear in the stores' sizes.
  // Ingest keeps running during a repair (routers that find the failover
  // latched reroute at once; a recovered owner is live before the
  // hand-back), so an id can gain a live session on `to` after the
  // caller's scan.  That live session supersedes the copy: the merge
  // skips it per session instead of failing the whole batch, and the
  // skip is counted.  `replace` erases `to`'s copies first — after the
  // dump is taken, to keep that window short.  Returns the sessions
  // copied.
  const auto copy_sessions = [](serving::SessionStore& from,
                                serving::SessionStore& to,
                                std::vector<std::uint64_t>& ids,
                                bool replace) {
    std::sort(ids.begin(), ids.end());
    std::size_t offered = 0;
    const common::Json dump = from.CheckpointJson([&](std::uint64_t id) {
      const bool hit = std::binary_search(ids.begin(), ids.end(), id);
      offered += hit;
      return hit;
    });
    if (replace)
      for (std::uint64_t id : ids) to.Erase(id);
    const auto merged = to.MergeFromJson(dump);
    const std::size_t copied = merged.ok() ? *merged : 0;
    skipped.Increment(offered - copied);
    return copied;
  };
  // Per-destination id lists of one source store, reused across hosts.
  std::vector<std::vector<std::uint64_t>> outgoing(hosts.size());

  // Pass 1: promote standby copies whose effective primary is this host.
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h] == nullptr) continue;
    std::vector<std::uint64_t> owed, promote;
    for (std::uint64_t id : hosts[h]->StandbyStore().ObjectIds(nullptr)) {
      if (effective_primary(id) != h) continue;
      owed.push_back(id);
      // A live primary session supersedes the standby copy (it formed
      // from traffic after this host already became the owner).
      if (!hosts[h]->Store().Contains(id)) promote.push_back(id);
    }
    if (!promote.empty())
      promoted.Increment(copy_sessions(hosts[h]->StandbyStore(),
                                       hosts[h]->Store(), promote,
                                       /*replace=*/false));
    for (std::uint64_t id : owed) hosts[h]->StandbyStore().Erase(id);
  }
  // Pass 2: hand sessions back to their effective primary.  The donor's
  // copy is authoritative — it kept absorbing writes while the owner was
  // down — so the owner's (checkpoint+WAL-replayed, pre-death) copy is
  // erased first.
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h] == nullptr) continue;
    for (auto& ids : outgoing) ids.clear();
    for (std::uint64_t id : hosts[h]->Store().ObjectIds(nullptr)) {
      const std::size_t owner = effective_primary(id);
      if (owner != h && owner != kNoShard) outgoing[owner].push_back(id);
    }
    for (std::size_t owner = 0; owner < hosts.size(); ++owner) {
      if (outgoing[owner].empty()) continue;
      repaired.Increment(copy_sessions(hosts[h]->Store(),
                                       hosts[owner]->Store(), outgoing[owner],
                                       /*replace=*/true));
      for (std::uint64_t id : outgoing[owner]) hosts[h]->Store().Erase(id);
    }
  }
  // Pass 3: drop standby copies sitting on the wrong host (stale after a
  // promotion or recovery changed the live set).
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h] == nullptr) continue;
    for (std::uint64_t id : hosts[h]->StandbyStore().ObjectIds(nullptr))
      if (proper_standby(id) != h) hosts[h]->StandbyStore().Erase(id);
  }
  // Pass 4: reseed missing standby copies from their primary, so the
  // next failure is covered too.
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h] == nullptr) continue;
    for (auto& ids : outgoing) ids.clear();
    for (std::uint64_t id : hosts[h]->Store().ObjectIds(nullptr)) {
      if (effective_primary(id) != h) continue;
      const std::size_t standby = proper_standby(id);
      if (standby != kNoShard && !hosts[standby]->StandbyStore().Contains(id))
        outgoing[standby].push_back(id);
    }
    for (std::size_t standby = 0; standby < hosts.size(); ++standby)
      if (!outgoing[standby].empty())
        repaired.Increment(copy_sessions(hosts[h]->Store(),
                                         hosts[standby]->StandbyStore(),
                                         outgoing[standby],
                                         /*replace=*/false));
  }
}

void Cluster::Flush() {
  static auto& flushes = Metric("cluster.flushes");
  flushes.Increment();
  std::vector<std::pair<std::size_t, std::uint64_t>> waits;
  for (std::size_t shard = 0; shard < slots_.size(); ++shard) {
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (!slot.live || slot.link == nullptr) continue;
    const std::uint64_t token =
        flush_token_.fetch_add(1, std::memory_order_relaxed) + 1;
    serving::WireControl control;
    control.op = serving::WireControlOp::kFlush;
    control.token = token;
    control.epoch = epoch_.load(std::memory_order_acquire);
    std::string frame;
    serving::AppendWireControlFrame(control, frame);
    LinkWrite verdict = LinkWrite::kClosed;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      verdict = WriteToSlot(slot, frame);
      if (verdict != LinkWrite::kBackpressure) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (verdict == LinkWrite::kOk) waits.emplace_back(shard, token);
  }
  std::unique_lock<std::mutex> lock(ack_mutex_);
  for (const auto& [shard, token] : waits) {
    Slot& slot = *slots_[shard];
    ack_cv_.wait(lock, [&] {
      return slot.acked_token >= token || slot.reader_done;
    });
  }
}

std::vector<ClusterResponse> Cluster::TakeResponses() {
  std::lock_guard<std::mutex> lock(responses_mutex_);
  std::vector<ClusterResponse> out;
  out.swap(responses_);
  return out;
}

common::Result<void> Cluster::Checkpoint(std::size_t shard) {
  if (shard >= slots_.size())
    return common::InvalidArgument("no such shard");
  Flush();
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.live || slot.host == nullptr)
    return common::FailedPrecondition("shard is not live");
  // Filtered to the ids this placement slot owns: sessions that landed
  // here via route-around belong to (and will re-form on) other shards.
  const common::Json checkpoint = slot.host->Store().CheckpointJson(
      [this, shard](std::uint64_t object_id) {
        return table_.ShardOf(object_id) == shard;
      });
  slot.checkpoint = checkpoint.Dump();
  if (!config_.durable_dir.empty()) {
    // Durable checkpoint + WAL reset are one logical step, taken while
    // the shard is quiesced: the file reflects exactly the state whose
    // WAL prefix is being discarded.
    const std::string dir = slot.host->DurableDir();
    NOMLOC_RETURN_IF_ERROR(
        serving::SaveCheckpointFile(ShardCheckpointPath(dir),
                                    slot.checkpoint).status());
    NOMLOC_RETURN_IF_ERROR(slot.host->ResetWal().status());
  }
  Metric("cluster.checkpoints").Increment();
  return {};
}

common::Result<void> Cluster::Migrate(std::size_t shard) {
  NOMLOC_RETURN_IF_ERROR(Checkpoint(shard).status());
  std::string dump, standby_dump;
  {
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    dump = slot.checkpoint;
    // The new host takes over the warm-standby copies too, in memory
    // (they are never on disk): without them a crash of another shard
    // right after the migration would promote nothing.
    if (config_.replicate && slot.host != nullptr)
      standby_dump = slot.host->StandbyStore().CheckpointJson().Dump();
  }
  // The flush above drained every in-flight frame, so between here and
  // the swap the slot only has to hold new ingest off (AttachHost takes
  // the slot mutex for the flip itself).
  DetachHost(shard);
  NOMLOC_RETURN_IF_ERROR(AttachHost(shard, &dump, &standby_dump).status());
  Metric("cluster.migrations").Increment();
  return {};
}

void Cluster::Kill(std::size_t shard, bool unclean) {
  if (shard >= slots_.size()) return;
  if (unclean) {
    // Crash semantics: the host abandons decoded-but-unapplied bytes
    // instead of draining them — DetachHost below then joins a reader
    // that died mid-stream, exactly like a SIGKILLed process.
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.host) slot.host->Abort();
  }
  DetachHost(shard);
  Metric("cluster.kills").Increment();
}

common::Result<void> Cluster::Restart(std::size_t shard) {
  if (shard >= slots_.size())
    return common::InvalidArgument("no such shard");
  std::string dump;
  {
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.live) return common::FailedPrecondition("shard is still live");
    dump = slot.checkpoint;
  }
  NOMLOC_RETURN_IF_ERROR(AttachHost(shard, &dump).status());
  Metric("cluster.restarts").Increment();
  return {};
}

common::Result<void> Cluster::Recover(std::size_t shard) {
  if (shard >= slots_.size())
    return common::InvalidArgument("no such shard");
  {
    Slot& slot = *slots_[shard];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.live) return common::FailedPrecondition("shard is still live");
  }
  // A crash no write has found yet has promoted nothing: fail over first,
  // so the repair below hands the standby copies back to this shard.
  MaybeFailover(shard);
  // The fresh host self-restores from its checkpoint file + WAL replay
  // when the cluster is durable (ShardHost::Recover).
  NOMLOC_RETURN_IF_ERROR(AttachHost(shard, nullptr).status());
  {
    std::lock_guard<std::mutex> failover_lock(failover_mutex_);
    {
      Slot& slot = *slots_[shard];
      std::lock_guard<std::mutex> lock(slot.mutex);
      // A recovered shard serves immediately; re-admission must not wait
      // out a breaker backoff the failure already paid for.
      slot.breaker = serving::CircuitBreaker(config_.shard_breaker);
    }
    Flush();
    const std::uint64_t epoch =
        epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    table_.SetEpoch(epoch);
    BroadcastEpoch(epoch);
    // The WAL replays every frame the host received, including traffic
    // it served for other shards' objects while they were down.  Drop
    // the sessions whose effective primary is another shard: the repair
    // would otherwise hand these stale copies back over the owners'
    // newer ones.
    const std::vector<ShardHost*> hosts = LiveHosts();
    std::vector<std::size_t> order;
    if (ShardHost* host = hosts[shard])
      for (std::uint64_t id : host->Store().ObjectIds(nullptr))
        if (EffectivePrimary(table_, hosts, id, order) != shard)
          host->Store().Erase(id);
    if (config_.replicate) AntiEntropyRepair();
  }
  Metric("cluster.recoveries").Increment();
  return {};
}

bool Cluster::SetStalled(std::size_t shard, bool stalled) {
  if (shard >= slots_.size()) return false;
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.live || slot.link == nullptr) return false;
  return slot.link->SetStalled(stalled);
}

std::size_t Cluster::ShardCount() const noexcept { return slots_.size(); }

std::size_t Cluster::ShardOf(std::uint64_t object_id) const noexcept {
  return table_.ShardOf(object_id);
}

bool Cluster::ShardLive(std::size_t shard) const {
  if (shard >= slots_.size()) return false;
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.live;
}

serving::SessionStore* Cluster::StoreOf(std::size_t shard) {
  if (shard >= slots_.size()) return nullptr;
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.host ? &slot.host->Store() : nullptr;
}

serving::SessionStore* Cluster::StandbyStoreOf(std::size_t shard) {
  if (shard >= slots_.size()) return nullptr;
  Slot& slot = *slots_[shard];
  std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.host ? &slot.host->StandbyStore() : nullptr;
}

void Cluster::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  for (std::size_t shard = 0; shard < slots_.size(); ++shard)
    DetachHost(shard);
}

}  // namespace nomloc::cluster

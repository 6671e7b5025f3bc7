#include "serving/session_store.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/metrics.h"

namespace nomloc::serving {

namespace {

/// Distinct-stream constant so pressure-eviction sampling never correlates
/// with shard routing.
constexpr std::uint64_t kEvictionRngSalt = 0x9e3779b97f4a7c15ULL;

std::uint64_t NextRandom(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Pressure eviction draws this many candidate sessions and evicts the
/// least recently touched (Redis-style sampled LRU: O(1) per eviction,
/// no global recency list to maintain on the ingest hot path).
constexpr std::size_t kEvictionSamples = 8;

// Hot-path series, looked up once (metrics.h: lookup takes the registry
// mutex).
common::MetricHistogram& ShardBytesHistogram() {
  static auto& histogram = common::MetricRegistry::Global().Histogram(
      "serving.shard.bytes", {}, 1.0, 1e9, 64);
  return histogram;
}

common::MetricCounter& ObservationsEvicted() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("serving.observations.evicted");
  return counter;
}

common::MetricCounter& SessionsEvicted() {
  static auto& counter =
      common::MetricRegistry::Global().Counter("serving.sessions.evicted");
  return counter;
}

}  // namespace

common::Result<void> SessionStoreConfig::Validate() const {
  if (shards == 0) return common::InvalidArgument("shards must be >= 1");
  if (anchor_ttl_s <= 0.0)
    return common::InvalidArgument("anchor_ttl_s must be positive");
  if (session_idle_ttl_s <= 0.0)
    return common::InvalidArgument("session_idle_ttl_s must be positive");
  return {};
}

SessionStore::SessionStore(const SessionStoreConfig& config)
    : config_(config) {
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng_state = kEvictionRngSalt * (i + 1);
    if (config_.reserve_sessions > 0) {
      const std::size_t per_shard =
          (config_.reserve_sessions + config_.shards - 1) / config_.shards;
      shard->index.Reserve(per_shard);
      shard->sessions.Reserve(per_shard);
    }
    if (config_.reserve_anchors > 0)
      shard->anchors.Reserve(
          (config_.reserve_anchors + config_.shards - 1) / config_.shards);
    if (config_.reserve_observations > 0)
      shard->observations.Reserve(
          (config_.reserve_observations + config_.shards - 1) /
          config_.shards);
    shards_.push_back(std::move(shard));
  }
}

std::size_t SessionStore::ShardOf(std::uint64_t object_id) const noexcept {
  // splitmix64 finalizer: adjacent object ids spread over all shards.
  std::uint64_t x = object_id + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards_.size());
}

std::size_t SessionStore::ShardLiveBytes(const Shard& shard) const noexcept {
  // The index's load-factor headroom is structural (a flat map cannot run
  // at 100% load), so its full slot array counts as live.
  return shard.index.CapacityBytes() + shard.sessions.LiveBytes() +
         shard.anchors.LiveBytes() + shard.observations.LiveBytes();
}

std::size_t SessionStore::ShardResidentBytes(
    const Shard& shard) const noexcept {
  return shard.index.CapacityBytes() + shard.sessions.CapacityBytes() +
         shard.anchors.CapacityBytes() + shard.observations.CapacityBytes();
}

bool SessionStore::Upsert(std::uint64_t object_id, AnchorKey key,
                          geometry::Vec2 position, bool is_nomadic,
                          const PdpObservation& obs, double now_s) {
  Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [entry, created] = shard.index.Insert(object_id);
  if (created) {
    entry->slot = shard.sessions.Alloc();
    shard.sessions[entry->slot].object_id = object_id;
  }
  const std::uint32_t slot = entry->slot;
  // The anchor walk starts from the index entry, so these session-record
  // updates overlap the anchor load instead of preceding it.
  SessionRec& session = shard.sessions[slot];
  session.last_touch_s = now_s;
  session.oldest_ts = std::min(session.oldest_ts, obs.timestamp_s);

  // Find the anchor in the key-sorted chain (sessions hold a handful of
  // anchors, so the linear walk beats any per-session table).
  const std::int32_t ap_id = static_cast<std::int32_t>(key.ap_id);
  const std::uint32_t site = static_cast<std::uint32_t>(key.site_index);
  std::uint32_t prev = common::kSlabNil;
  std::uint32_t cur = entry->anchor_head;
  while (cur != common::kSlabNil) {
    const AnchorRec& a = shard.anchors[cur];
    if (a.ap_id > ap_id || (a.ap_id == ap_id && a.site >= site)) break;
    prev = cur;
    cur = a.next;
  }
  const bool matched = cur != common::kSlabNil &&
                       shard.anchors[cur].ap_id == ap_id &&
                       shard.anchors[cur].site == site;
  std::uint32_t anchor_index = cur;
  // Decide reuse-vs-create from the key's own expiry, not from whether a
  // query-time prune happened to run first: keys_ever must be a pure
  // function of the observation stream's timestamps, because a
  // replication standby never serves queries yet has to agree with its
  // primary on the `degraded` flag after a promotion.  The check is one
  // comparison against newest_ts; the chain walk only happens when the
  // whole key expired, and each observation is freed at most once, so
  // the ingest hot path stays amortized O(1).  Partially expired
  // observations age out at the next snapshot or sweep, as before.
  if (matched &&
      now_s - shard.anchors[cur].newest_ts > config_.anchor_ttl_s) {
    // Fully expired: the upsert re-creates the key in the same record.
    AnchorRec& a = shard.anchors[cur];
    std::size_t evicted = 0;
    std::uint32_t obs_index = a.obs_head;
    while (obs_index != common::kSlabNil) {
      const std::uint32_t next = shard.observations[obs_index].next;
      shard.observations.Free(obs_index);
      ++evicted;
      obs_index = next;
    }
    ObservationsEvicted().Increment(evicted);
    const std::uint32_t next_anchor = a.next;
    a = AnchorRec{};
    a.ap_id = ap_id;
    a.site = site;
    a.next = next_anchor;
    ++session.keys_ever;
  } else if (!matched) {
    anchor_index = shard.anchors.Alloc();
    AnchorRec& a = shard.anchors[anchor_index];
    a.ap_id = ap_id;
    a.site = site;
    a.next = cur;
    if (prev == common::kSlabNil)
      SetAnchorHead(shard, session, entry, anchor_index);
    else
      shard.anchors[prev].next = anchor_index;
    ++session.keys_ever;
  }
  AnchorRec& anchor = shard.anchors[anchor_index];
  anchor.x = position.x;
  anchor.y = position.y;
  anchor.is_nomadic = is_nomadic;

  const std::uint32_t obs_index = shard.observations.Alloc();
  ObsRec& rec = shard.observations[obs_index];
  rec.pdp = obs.pdp;
  rec.weight = obs.weight;
  rec.timestamp_s = obs.timestamp_s;
  AppendObservation(anchor, obs_index, rec);

  if (created) {
    static auto& sessions_created =
        common::MetricRegistry::Global().Counter("serving.sessions.created");
    sessions_created.Increment();
  }
  if (config_.shard_bytes_budget > 0 &&
      ShardLiveBytes(shard) > config_.shard_bytes_budget)
    EvictForPressure(shard, slot);
  return created;
}

std::size_t SessionStore::EvictForPressure(Shard& shard,
                                           std::uint32_t keep_slot) {
  static auto& pressure_counter =
      common::MetricRegistry::Global().Counter("serving.evictions.pressure");
  std::size_t evicted = 0;
  while (ShardLiveBytes(shard) > config_.shard_bytes_budget &&
         shard.sessions.live() > 1) {
    // Sampled LRU: draw a few random live slots, evict the oldest touch.
    std::uint32_t victim = common::kSlabNil;
    double victim_touch_s = 0.0;
    const std::size_t capacity = shard.sessions.capacity();
    for (std::size_t draw = 0; draw < kEvictionSamples; ++draw) {
      std::uint32_t slot =
          static_cast<std::uint32_t>(NextRandom(shard.rng_state) % capacity);
      // Walk to the next live slot (wrapping) so draws always land.
      for (std::size_t step = 0; step < capacity; ++step) {
        if (shard.sessions.IsLive(slot)) break;
        slot = static_cast<std::uint32_t>((slot + 1) % capacity);
      }
      if (!shard.sessions.IsLive(slot) || slot == keep_slot) continue;
      const double touch = shard.sessions[slot].last_touch_s;
      if (victim == common::kSlabNil || touch < victim_touch_s) {
        victim = slot;
        victim_touch_s = touch;
      }
    }
    if (victim == common::kSlabNil) break;  // only the protected session left
    SessionRec& session = shard.sessions[victim];
    shard.index.Erase(session.object_id);
    FreeSessionRecords(shard, session);
    shard.sessions.Free(victim);
    ++evicted;
  }
  if (evicted > 0) {
    pressure_counter.Increment(evicted);
    SessionsEvicted().Increment(evicted);
  }
  return evicted;
}

void SessionStore::FreeSessionRecords(Shard& shard,
                                      SessionRec& session) const {
  std::uint32_t anchor_index = session.anchor_head;
  while (anchor_index != common::kSlabNil) {
    AnchorRec& anchor = shard.anchors[anchor_index];
    std::uint32_t obs_index = anchor.obs_head;
    while (obs_index != common::kSlabNil) {
      const std::uint32_t next = shard.observations[obs_index].next;
      shard.observations.Free(obs_index);
      obs_index = next;
    }
    const std::uint32_t next = anchor.next;
    shard.anchors.Free(anchor_index);
    anchor_index = next;
  }
}

void SessionStore::SetAnchorHead(Shard& shard, SessionRec& session,
                                 IndexEntry* entry, std::uint32_t head) {
  if (entry == nullptr) entry = shard.index.Find(session.object_id);
  session.anchor_head = head;
  entry->anchor_head = head;
}

void SessionStore::AppendObservation(AnchorRec& anchor, std::uint32_t index,
                                     ObsRec& obs) {
  obs.next = anchor.obs_head;
  anchor.obs_head = index;
  anchor.pdp_weight_sum += obs.pdp * obs.weight;
  anchor.weight_sum += obs.weight;
  ++anchor.obs_count;
  anchor.newest_ts = std::max(anchor.newest_ts, obs.timestamp_s);
}

std::size_t SessionStore::PruneSession(Shard& shard, SessionRec& session,
                                       double now_s) const {
  if (session.oldest_ts != -std::numeric_limits<double>::infinity() &&
      now_s - session.oldest_ts <= config_.anchor_ttl_s)
    return 0;
  std::size_t evicted = 0;
  double oldest_ts = std::numeric_limits<double>::infinity();
  std::uint32_t head = session.anchor_head;
  std::uint32_t prev_anchor = common::kSlabNil;
  std::uint32_t anchor_index = head;
  while (anchor_index != common::kSlabNil) {
    AnchorRec& anchor = shard.anchors[anchor_index];
    // Delay injection can land an old-timestamped observation behind a
    // newer one, so expiry scans the whole chain, not just the oldest.
    // Reversing the chain first visits it in append order, so the
    // survivors re-enter the running sums oldest-first and are relinked
    // newest-first.
    std::uint32_t oldest_first = common::kSlabNil;
    for (std::uint32_t obs_index = anchor.obs_head;
         obs_index != common::kSlabNil;) {
      ObsRec& obs = shard.observations[obs_index];
      const std::uint32_t next = obs.next;
      obs.next = oldest_first;
      oldest_first = obs_index;
      obs_index = next;
    }
    anchor.obs_head = common::kSlabNil;
    anchor.pdp_weight_sum = 0.0;
    anchor.weight_sum = 0.0;
    anchor.obs_count = 0;
    for (std::uint32_t obs_index = oldest_first;
         obs_index != common::kSlabNil;) {
      ObsRec& obs = shard.observations[obs_index];
      const std::uint32_t next = obs.next;
      if (now_s - obs.timestamp_s > config_.anchor_ttl_s) {
        shard.observations.Free(obs_index);
        ++evicted;
      } else {
        oldest_ts = std::min(oldest_ts, obs.timestamp_s);
        AppendObservation(anchor, obs_index, obs);
      }
      obs_index = next;
    }
    const std::uint32_t next_anchor = anchor.next;
    if (anchor.obs_head == common::kSlabNil) {
      if (prev_anchor == common::kSlabNil)
        head = next_anchor;
      else
        shard.anchors[prev_anchor].next = next_anchor;
      shard.anchors.Free(anchor_index);
    } else {
      prev_anchor = anchor_index;
    }
    anchor_index = next_anchor;
  }
  if (head != session.anchor_head)
    SetAnchorHead(shard, session, nullptr, head);
  session.oldest_ts = oldest_ts;
  return evicted;
}

common::Result<SessionSnapshot> SessionStore::Snapshot(
    std::uint64_t object_id, double now_s) {
  Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const IndexEntry* entry = shard.index.Find(object_id);
  if (entry == nullptr) return common::NotFound("no session for object");
  SessionRec& session = shard.sessions[entry->slot];
  const std::size_t evicted = PruneSession(shard, session, now_s);
  if (evicted > 0) ObservationsEvicted().Increment(evicted);

  SessionSnapshot snap;
  snap.keys_ever = session.keys_ever;
  snap.last_touch_s = session.last_touch_s;
  // Walked from the index mirror, which Upsert also starts from (the
  // checkpoint walks from the session record).
  for (std::uint32_t anchor_index = entry->anchor_head;
       anchor_index != common::kSlabNil;
       anchor_index = shard.anchors[anchor_index].next) {
    const AnchorRec& anchor = shard.anchors[anchor_index];
    localization::Anchor out;
    out.position = {anchor.x, anchor.y};
    out.is_nomadic_site = anchor.is_nomadic;
    if (anchor.obs_count == 1) {
      // Bit-exact pass-through: the streaming path must reproduce the
      // batch pipeline exactly when each anchor arrived as one report.
      out.pdp = shard.observations[anchor.obs_head].pdp;
    } else {
      out.pdp = anchor.weight_sum > 0.0
                    ? anchor.pdp_weight_sum / anchor.weight_sum
                    : 0.0;
    }
    snap.anchors.push_back(out);
  }
  snap.live_keys = snap.anchors.size();
  return snap;
}

bool SessionStore::SweepSlot(Shard& shard, std::uint32_t slot, double now_s,
                             std::size_t& observations_evicted) {
  SessionRec& session = shard.sessions[slot];
  observations_evicted += PruneSession(shard, session, now_s);
  const bool idle = now_s - session.last_touch_s > config_.session_idle_ttl_s;
  if (!idle && session.anchor_head != common::kSlabNil) return false;
  shard.index.Erase(session.object_id);
  FreeSessionRecords(shard, session);
  shard.sessions.Free(slot);
  return true;
}

std::size_t SessionStore::SweepShard(std::size_t shard_index, double now_s) {
  static auto& occupancy_hist = common::MetricRegistry::Global().Histogram(
      "serving.shard.occupancy", {}, 1.0, 1e6, 48);
  Shard& shard = *shards_[shard_index];
  std::size_t sessions_evicted = 0;
  std::size_t observations_evicted = 0;
  std::size_t occupancy = 0;
  std::size_t live_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t capacity = shard.sessions.capacity();
    for (std::size_t slot = 0; slot < capacity; ++slot) {
      if (!shard.sessions.IsLive(static_cast<std::uint32_t>(slot))) continue;
      if (SweepSlot(shard, static_cast<std::uint32_t>(slot), now_s,
                    observations_evicted))
        ++sessions_evicted;
    }
    occupancy = shard.sessions.live();
    live_bytes = ShardLiveBytes(shard);
  }
  if (observations_evicted > 0)
    ObservationsEvicted().Increment(observations_evicted);
  if (sessions_evicted > 0) SessionsEvicted().Increment(sessions_evicted);
  occupancy_hist.Record(static_cast<double>(occupancy));
  ShardBytesHistogram().Record(static_cast<double>(live_bytes));
  return sessions_evicted;
}

std::size_t SessionStore::SweepStep(std::size_t shard_index, double now_s,
                                    std::size_t max_sessions) {
  Shard& shard = *shards_[shard_index];
  std::size_t sessions_evicted = 0;
  std::size_t observations_evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::size_t capacity = shard.sessions.capacity();
    if (capacity == 0) return 0;
    std::size_t cursor = shard.sweep_cursor % capacity;
    const std::size_t steps = std::min(max_sessions, capacity);
    for (std::size_t i = 0; i < steps; ++i) {
      const auto slot = static_cast<std::uint32_t>(cursor);
      cursor = (cursor + 1) % capacity;
      if (!shard.sessions.IsLive(slot)) continue;
      if (SweepSlot(shard, slot, now_s, observations_evicted))
        ++sessions_evicted;
    }
    shard.sweep_cursor = cursor;
  }
  if (observations_evicted > 0)
    ObservationsEvicted().Increment(observations_evicted);
  if (sessions_evicted > 0) SessionsEvicted().Increment(sessions_evicted);
  return sessions_evicted;
}

std::size_t SessionStore::SweepAll(double now_s) {
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    evicted += SweepShard(i, now_s);
  return evicted;
}

bool SessionStore::Contains(std::uint64_t object_id) const {
  const Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.index.Find(object_id) != nullptr;
}

bool SessionStore::Erase(std::uint64_t object_id) {
  Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const IndexEntry* entry = shard.index.Find(object_id);
  if (entry == nullptr) return false;
  const std::uint32_t session_slot = entry->slot;
  SessionRec& session = shard.sessions[session_slot];
  shard.index.Erase(object_id);
  FreeSessionRecords(shard, session);
  shard.sessions.Free(session_slot);
  return true;
}

std::vector<std::uint64_t> SessionStore::ObjectIds(
    const std::function<bool(std::uint64_t)>& pred) const {
  std::vector<std::uint64_t> ids;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.ForEach([&](std::uint64_t object_id, const IndexEntry&) {
      if (!pred || pred(object_id)) ids.push_back(object_id);
    });
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t SessionStore::SessionCount() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->sessions.live();
  }
  return n;
}

MemoryStats SessionStore::Memory() const {
  MemoryStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.sessions += shard->sessions.live();
    stats.anchors += shard->anchors.live();
    stats.observations += shard->observations.live();
    stats.live_bytes += ShardLiveBytes(*shard);
    stats.resident_bytes += ShardResidentBytes(*shard);
  }
  return stats;
}

void SessionStore::RecordEstimate(std::uint64_t object_id,
                                  const LastKnownGood& estimate,
                                  double now_s) {
  Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto [entry, created] = shard.index.Insert(object_id);
  if (created) {
    entry->slot = shard.sessions.Alloc();
    shard.sessions[entry->slot].object_id = object_id;
  }
  SessionRec& session = shard.sessions[entry->slot];
  session.last_touch_s = now_s;
  session.lkg_x = estimate.position.x;
  session.lkg_y = estimate.position.y;
  session.lkg_confidence = estimate.confidence;
  session.lkg_t = estimate.timestamp_s;
  session.has_lkg = true;
}

common::Result<LastKnownGood> SessionStore::LastGood(
    std::uint64_t object_id) const {
  const Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const IndexEntry* entry = shard.index.Find(object_id);
  if (entry == nullptr) return common::NotFound("no session for object");
  const SessionRec& session = shard.sessions[entry->slot];
  if (!session.has_lkg)
    return common::NotFound("no recorded estimate for object");
  LastKnownGood lkg;
  lkg.position = {session.lkg_x, session.lkg_y};
  lkg.confidence = session.lkg_confidence;
  lkg.timestamp_s = session.lkg_t;
  return lkg;
}

std::shared_ptr<localization::SpSolverSession> SessionStore::SolverSession(
    std::uint64_t object_id,
    const std::function<std::shared_ptr<localization::SpSolverSession>()>&
        make) {
  Shard& shard = *shards_[ShardOf(object_id)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const IndexEntry* entry = shard.index.Find(object_id);
  if (entry == nullptr) return nullptr;
  SessionRec& session = shard.sessions[entry->slot];
  if (session.solver == nullptr) session.solver = make();
  return session.solver;
}

namespace {

constexpr double kCheckpointSchemaVersion = 1.0;

common::Json LastGoodToJson(const LastKnownGood& lkg) {
  common::JsonObject obj;
  obj["x"] = common::Json(lkg.position.x);
  obj["y"] = common::Json(lkg.position.y);
  obj["confidence"] = common::Json(lkg.confidence);
  obj["t"] = common::Json(lkg.timestamp_s);
  return common::Json(std::move(obj));
}

common::Result<LastKnownGood> LastGoodFromJson(const common::Json& json) {
  LastKnownGood lkg;
  NOMLOC_ASSIGN_OR_RETURN(lkg.position.x, json.GetDouble("x"));
  NOMLOC_ASSIGN_OR_RETURN(lkg.position.y, json.GetDouble("y"));
  NOMLOC_ASSIGN_OR_RETURN(lkg.confidence, json.GetDouble("confidence"));
  NOMLOC_ASSIGN_OR_RETURN(lkg.timestamp_s, json.GetDouble("t"));
  return lkg;
}

}  // namespace

common::Json SessionStore::CheckpointJson(
    const std::function<bool(std::uint64_t)>& owned) const {
  common::JsonObject root;
  root["schema_version"] = common::Json(kCheckpointSchemaVersion);
  // Flat-map iteration order depends on insertion history, so sessions
  // are serialised per shard and then sorted by object id — equal stores
  // checkpoint to equal bytes regardless of how they were built.
  std::vector<std::pair<std::uint64_t, common::Json>> ordered;
  std::vector<const ObsRec*> newest_first;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.ForEach([&](std::uint64_t object_id,
                            const IndexEntry& entry) {
      if (owned && !owned(object_id)) return;
      const SessionRec& session = shard.sessions[entry.slot];
      common::JsonObject s;
      s["object_id"] = common::Json(double(object_id));
      s["keys_ever"] = common::Json(std::size_t{session.keys_ever});
      s["last_touch_s"] = common::Json(session.last_touch_s);
      if (session.has_lkg) {
        LastKnownGood lkg;
        lkg.position = {session.lkg_x, session.lkg_y};
        lkg.confidence = session.lkg_confidence;
        lkg.timestamp_s = session.lkg_t;
        s["last_good"] = LastGoodToJson(lkg);
      }
      common::JsonArray anchors;
      for (std::uint32_t anchor_index = session.anchor_head;
           anchor_index != common::kSlabNil;
           anchor_index = shard.anchors[anchor_index].next) {
        const AnchorRec& anchor = shard.anchors[anchor_index];
        common::JsonObject a;
        a["ap_id"] = common::Json(int(anchor.ap_id));
        a["site_index"] = common::Json(std::size_t{anchor.site});
        a["x"] = common::Json(anchor.x);
        a["y"] = common::Json(anchor.y);
        a["nomadic"] = common::Json(anchor.is_nomadic);
        // The chain runs newest-first; checkpoints list oldest-first.
        newest_first.clear();
        for (std::uint32_t obs_index = anchor.obs_head;
             obs_index != common::kSlabNil;
             obs_index = shard.observations[obs_index].next)
          newest_first.push_back(&shard.observations[obs_index]);
        common::JsonArray observations;
        for (auto it = newest_first.rbegin(); it != newest_first.rend();
             ++it) {
          const ObsRec& obs = **it;
          common::JsonObject o;
          o["pdp"] = common::Json(obs.pdp);
          o["weight"] = common::Json(obs.weight);
          o["t"] = common::Json(obs.timestamp_s);
          observations.push_back(common::Json(std::move(o)));
        }
        a["observations"] = common::Json(std::move(observations));
        anchors.push_back(common::Json(std::move(a)));
      }
      s["anchors"] = common::Json(std::move(anchors));
      ordered.emplace_back(object_id, common::Json(std::move(s)));
    });
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  common::JsonArray sessions;
  for (auto& [object_id, json] : ordered) sessions.push_back(std::move(json));
  root["sessions"] = common::Json(std::move(sessions));
  return common::Json(std::move(root));
}

common::Result<std::size_t> SessionStore::RestoreFromJson(
    const common::Json& json) {
  return RestoreImpl(json, /*replace=*/true);
}

common::Result<std::size_t> SessionStore::MergeFromJson(
    const common::Json& json) {
  return RestoreImpl(json, /*replace=*/false);
}

common::Result<std::size_t> SessionStore::RestoreImpl(const common::Json& json,
                                                      bool replace) {
  NOMLOC_ASSIGN_OR_RETURN(double version, json.GetDouble("schema_version"));
  if (version != kCheckpointSchemaVersion)
    return common::InvalidArgument("unsupported checkpoint schema version");
  NOMLOC_ASSIGN_OR_RETURN(common::Json sessions_json, json.Get("sessions"));
  if (!sessions_json.is_array())
    return common::InvalidArgument("'sessions' must be an array");

  // Decode into staging structures first so a corrupt checkpoint leaves
  // the live store untouched.
  struct StagedAnchor {
    AnchorKey key;
    geometry::Vec2 position;
    bool is_nomadic = false;
    std::vector<PdpObservation> observations;
  };
  struct StagedSession {
    std::uint64_t object_id = 0;
    std::size_t keys_ever = 0;
    double last_touch_s = 0.0;
    bool has_lkg = false;
    LastKnownGood lkg;
    std::vector<StagedAnchor> anchors;
  };
  std::vector<StagedSession> staged;
  common::FlatHashMap<std::uint64_t, std::uint8_t> seen_ids;
  for (const common::Json& s : sessions_json.AsArray()) {
    NOMLOC_ASSIGN_OR_RETURN(double id_raw, s.GetDouble("object_id"));
    if (!(id_raw >= 0.0) || id_raw != std::floor(id_raw))
      return common::DataCorruption("checkpoint object_id is not an integer");
    StagedSession session;
    session.object_id = std::uint64_t(id_raw);
    if (!seen_ids.Insert(session.object_id).second)
      return common::DataCorruption(
          "duplicate object_id " + std::to_string(session.object_id) +
          " in checkpoint");
    NOMLOC_ASSIGN_OR_RETURN(double keys_ever, s.GetDouble("keys_ever"));
    session.keys_ever = std::size_t(keys_ever);
    NOMLOC_ASSIGN_OR_RETURN(session.last_touch_s,
                            s.GetDouble("last_touch_s"));
    if (auto lkg = s.Get("last_good"); lkg.ok()) {
      NOMLOC_ASSIGN_OR_RETURN(session.lkg, LastGoodFromJson(*lkg));
      session.has_lkg = true;
    }
    NOMLOC_ASSIGN_OR_RETURN(common::Json anchors_json, s.Get("anchors"));
    if (!anchors_json.is_array())
      return common::InvalidArgument("'anchors' must be an array");
    for (const common::Json& a : anchors_json.AsArray()) {
      StagedAnchor anchor;
      NOMLOC_ASSIGN_OR_RETURN(double ap_id, a.GetDouble("ap_id"));
      anchor.key.ap_id = int(ap_id);
      NOMLOC_ASSIGN_OR_RETURN(double site_index, a.GetDouble("site_index"));
      if (!(site_index >= 0.0) || site_index > double(0xffffffffu))
        return common::DataCorruption("checkpoint site_index out of range");
      anchor.key.site_index = std::size_t(site_index);
      for (const StagedAnchor& existing : session.anchors)
        if (existing.key == anchor.key)
          return common::DataCorruption(
              "duplicate anchor key in checkpoint session " +
              std::to_string(session.object_id));
      NOMLOC_ASSIGN_OR_RETURN(anchor.position.x, a.GetDouble("x"));
      NOMLOC_ASSIGN_OR_RETURN(anchor.position.y, a.GetDouble("y"));
      NOMLOC_ASSIGN_OR_RETURN(anchor.is_nomadic, a.GetBool("nomadic"));
      if (!std::isfinite(anchor.position.x) ||
          !std::isfinite(anchor.position.y))
        return common::DataCorruption("non-finite checkpoint position");
      NOMLOC_ASSIGN_OR_RETURN(common::Json obs_json, a.Get("observations"));
      if (!obs_json.is_array())
        return common::InvalidArgument("'observations' must be an array");
      for (const common::Json& o : obs_json.AsArray()) {
        PdpObservation obs;
        NOMLOC_ASSIGN_OR_RETURN(obs.pdp, o.GetDouble("pdp"));
        NOMLOC_ASSIGN_OR_RETURN(obs.weight, o.GetDouble("weight"));
        NOMLOC_ASSIGN_OR_RETURN(obs.timestamp_s, o.GetDouble("t"));
        if (!std::isfinite(obs.pdp) || obs.pdp <= 0.0)
          return common::DataCorruption("corrupt checkpoint PDP");
        anchor.observations.push_back(obs);
      }
      session.anchors.push_back(std::move(anchor));
    }
    // Snapshot expects the anchor chain key-sorted (std::map gave the old
    // store this for free).
    std::sort(session.anchors.begin(), session.anchors.end(),
              [](const StagedAnchor& a, const StagedAnchor& b) {
                return a.key < b.key;
              });
    staged.push_back(std::move(session));
  }

  if (replace) {
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->index.Clear();
      shard->sessions.Clear();
      shard->anchors.Clear();
      shard->observations.Clear();
      shard->sweep_cursor = 0;
    }
  }
  std::size_t restored = 0;
  for (const StagedSession& session : staged) {
    Shard& shard = *shards_[ShardOf(session.object_id)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A live session supersedes the checkpoint's copy (after a replace's
    // clear, only a racing Upsert can have made one).
    if (shard.index.Find(session.object_id) != nullptr) continue;
    const std::uint32_t slot = shard.sessions.Alloc();
    IndexEntry* entry = shard.index.Insert(session.object_id).first;
    entry->slot = slot;
    // Link anchors (already key-sorted) and their observation chains.
    // Records are built directly rather than via Upsert so restore never
    // bumps ingest counters or triggers pressure eviction mid-rebuild.
    std::uint32_t prev_anchor = common::kSlabNil;
    std::uint32_t anchor_head = common::kSlabNil;
    double oldest_ts = std::numeric_limits<double>::infinity();
    for (const StagedAnchor& anchor : session.anchors) {
      // An anchor without observations must go at the next prune.
      if (anchor.observations.empty())
        oldest_ts = -std::numeric_limits<double>::infinity();
      const std::uint32_t anchor_index = shard.anchors.Alloc();
      AnchorRec& a = shard.anchors[anchor_index];
      a.ap_id = static_cast<std::int32_t>(anchor.key.ap_id);
      a.site = static_cast<std::uint32_t>(anchor.key.site_index);
      a.x = anchor.position.x;
      a.y = anchor.position.y;
      a.is_nomadic = anchor.is_nomadic;
      // Checkpoints list observations oldest-first: the append order.
      for (const PdpObservation& obs : anchor.observations) {
        const std::uint32_t obs_index = shard.observations.Alloc();
        ObsRec& o = shard.observations[obs_index];
        o.pdp = obs.pdp;
        o.weight = obs.weight;
        o.timestamp_s = obs.timestamp_s;
        AppendObservation(a, obs_index, o);
        oldest_ts = std::min(oldest_ts, obs.timestamp_s);
      }
      if (prev_anchor == common::kSlabNil)
        anchor_head = anchor_index;
      else
        shard.anchors[prev_anchor].next = anchor_index;
      prev_anchor = anchor_index;
    }
    SessionRec& rec = shard.sessions[slot];
    rec.object_id = session.object_id;
    rec.last_touch_s = session.last_touch_s;
    rec.keys_ever = static_cast<std::uint32_t>(session.keys_ever);
    SetAnchorHead(shard, rec, entry, anchor_head);
    rec.oldest_ts = oldest_ts;
    if (session.has_lkg) {
      rec.lkg_x = session.lkg.position.x;
      rec.lkg_y = session.lkg.position.y;
      rec.lkg_confidence = session.lkg.confidence;
      rec.lkg_t = session.lkg.timestamp_s;
      rec.has_lkg = true;
    }
    ++restored;
  }
  common::MetricRegistry::Global()
      .Counter("serving.checkpoint.restored")
      .Increment(restored);
  return restored;
}

}  // namespace nomloc::serving

#include "cluster/chaos.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "common/rng.h"
#include "geometry/vec2.h"
#include "serving/clock.h"
#include "serving/wire.h"

namespace nomloc::cluster {

std::string_view ChaosKindName(ChaosKind kind) noexcept {
  switch (kind) {
    case ChaosKind::kAnchorDeath: return "ANCHOR_DEATH";
    case ChaosKind::kAnchorFlap: return "ANCHOR_FLAP";
    case ChaosKind::kTraceCorruption: return "TRACE_CORRUPTION";
    case ChaosKind::kClockJump: return "CLOCK_JUMP";
    case ChaosKind::kLateDelivery: return "LATE_DELIVERY";
    case ChaosKind::kQueueSaturation: return "QUEUE_SATURATION";
    case ChaosKind::kShardKill: return "SHARD_KILL";
    case ChaosKind::kShardMigrate: return "SHARD_MIGRATE";
    case ChaosKind::kTransportStall: return "TRANSPORT_STALL";
    case ChaosKind::kShardKillUnclean: return "SHARD_KILL_UNCLEAN";
  }
  return "UNKNOWN";
}

namespace {

ChaosVocabulary VocabularyOf(ChaosKind kind) {
  return kind < ChaosKind::kShardKill ? ChaosVocabulary::kDataPlane
                                      : ChaosVocabulary::kTopology;
}

/// Data-plane windows last up to this fraction of one epoch interval.
constexpr double kMaxWindowFraction = 0.75;
/// Clock jumps are drawn uniform in ±this many seconds.
constexpr double kMaxClockJumpS = 0.5;
/// Queue-saturation bursts enqueue this many filler packets.
constexpr std::size_t kSaturationBurst = 256;
/// Kill and stall windows last up to this many epoch intervals.
constexpr std::size_t kMaxWindowEpochs = 2;

/// Object id for queue-saturation filler traffic — far above any replay
/// object id, so filler sessions never collide with real ones.
constexpr std::uint64_t kFillerObjectId = 0xC4405F111E7ULL;

/// A vocabulary's own slice of the weight table.  Each vocabulary keeps a
/// separate list: Rng::Categorical falls back to the last index, which
/// must stay the vocabulary's own last kind.
std::span<const double> VocabularyWeights(const ChaosConfig& config,
                                          ChaosVocabulary vocabulary) {
  const std::size_t first = std::size_t(ChaosKind::kShardKill);
  const std::span<const double> all(config.weights);
  return vocabulary == ChaosVocabulary::kDataPlane
             ? all.first(first)
             : all.subspan(first);
}

void DrawDataPlane(const ChaosConfig& config, common::Rng& rng,
                   const serving::ReplayPlan& plan, double epoch_interval_s,
                   std::size_t targets, ChaosSchedule& schedule) {
  const double duration_s = double(plan.epoch_count) * epoch_interval_s;
  const std::size_t anchors = std::max<std::size_t>(1, targets);
  const auto weights = VocabularyWeights(config, ChaosVocabulary::kDataPlane);
  for (std::size_t i = 0; i < config.events; ++i) {
    ChaosEvent event;
    event.kind = ChaosKind(rng.Categorical(weights));
    event.start_s = rng.Uniform(0.1 * duration_s, 0.7 * duration_s);
    const double window_s =
        rng.Uniform(0.1, kMaxWindowFraction) * epoch_interval_s;
    switch (event.kind) {
      case ChaosKind::kLateDelivery:
        event.magnitude = rng.Uniform(0.0, epoch_interval_s);  // Delay.
        [[fallthrough]];
      case ChaosKind::kAnchorDeath:
      case ChaosKind::kTraceCorruption:
        event.end_s = event.start_s + window_s;
        event.target = rng.UniformInt(anchors);
        break;
      case ChaosKind::kAnchorFlap:
        event.end_s = event.start_s + window_s;
        event.target = rng.UniformInt(anchors);
        // Up/down period: a handful of flips per window.
        event.magnitude = window_s / rng.Uniform(3.0, 8.0);
        break;
      case ChaosKind::kClockJump:
        // The jump skews whichever timestamp group comes next, so its
        // effect window conservatively spans one epoch interval.
        event.end_s = event.start_s + epoch_interval_s;
        event.magnitude = rng.Uniform(-kMaxClockJumpS, kMaxClockJumpS);
        break;
      default:  // kQueueSaturation.
        event.end_s = event.start_s;
        event.magnitude = double(kSaturationBurst);
        break;
    }
    // Keep the whole effect window inside the first 70% of the run so the
    // tail epochs always measure post-clearance recovery.
    const double overshoot = event.end_s - 0.7 * duration_s;
    if (overshoot > 0.0) {
      const double shift =
          std::min(overshoot, event.start_s - 0.1 * duration_s);
      event.start_s -= shift;
      event.end_s -= shift;
    }
    schedule.events.push_back(event);
  }
}

void DrawTopology(const ChaosConfig& config, common::Rng& rng,
                  const serving::ReplayPlan& plan, double epoch_interval_s,
                  std::size_t shards, ChaosSchedule& schedule) {
  const auto weights = VocabularyWeights(config, ChaosVocabulary::kTopology);
  const std::size_t first_epoch = 1;
  const std::size_t last_start =
      std::max<std::size_t>(first_epoch + 1,
                            std::size_t(0.7 * double(plan.epoch_count)));
  std::set<std::size_t> unclean_epochs;
  for (std::size_t i = 0; i < config.events; ++i) {
    ChaosEvent event;
    event.kind = ChaosKind(std::size_t(ChaosKind::kShardKill) +
                           rng.Categorical(weights));
    event.target = rng.UniformInt(shards);
    std::size_t start_epoch =
        first_epoch + rng.UniformInt(last_start - first_epoch);
    if (event.kind == ChaosKind::kShardKillUnclean) {
      // One crash per trigger group: replication factor one tolerates a
      // single unclean kill per flush group — two crashes landing in the
      // same group can destroy both copies of an in-flight observation
      // (the primary's bytes and the standby's replicate frame die in
      // their pipes together), which is a double fault outside the
      // declared tolerance, not a replication bug.  Probe to a free
      // trigger epoch; with none left, draw a migration instead.
      const std::size_t span = last_start - first_epoch;
      std::size_t tried = 0;
      while (unclean_epochs.count(start_epoch) != 0 && tried < span) {
        start_epoch = first_epoch + (start_epoch - first_epoch + 1) % span;
        ++tried;
      }
      if (unclean_epochs.count(start_epoch) != 0)
        event.kind = ChaosKind::kShardMigrate;
      else
        unclean_epochs.insert(start_epoch);
    }
    if (event.kind == ChaosKind::kShardKillUnclean) {
      // Deliberately OFF the epoch grid: the crash lands in the middle of
      // an epoch, between flushed groups.  Queries sit at 0.4 of the
      // interval, so the [0.5, 0.9) trigger window is observation-only —
      // the crash can lose in-flight observations (replication keeps
      // them) but never an accepted query's response.
      event.start_s = (double(start_epoch) + 0.5 + 0.4 * rng.Uniform()) *
                      epoch_interval_s;
    } else {
      event.start_s = double(start_epoch) * epoch_interval_s;
    }
    if (event.kind == ChaosKind::kShardMigrate) {
      event.end_s = event.start_s;
    } else {
      std::size_t end_epoch =
          start_epoch + 1 + rng.UniformInt(kMaxWindowEpochs);
      // A crash kill only fires at the first group past start_s (epoch
      // start_epoch + 1), so its recovery edge needs a strictly later
      // group or the window would collapse to nothing.
      if (event.kind == ChaosKind::kShardKillUnclean)
        end_epoch = std::max(end_epoch, start_epoch + 2);
      end_epoch = std::min(end_epoch, plan.epoch_count - 1);
      event.end_s = double(end_epoch) * epoch_interval_s;
    }
    schedule.events.push_back(event);
  }
}

/// Sorts the events by start (stable) and records when the last clears.
void Normalize(ChaosSchedule& schedule) {
  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.start_s < b.start_s;
                   });
  schedule.last_event_end_s = 0.0;
  for (const ChaosEvent& event : schedule.events)
    schedule.last_event_end_s =
        std::max(schedule.last_event_end_s, event.end_s);
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// The fields of `a` that differ from `b` (doubles compared as raw bits),
/// comma-separated; empty when every field matches.
std::string DifferingFields(const serving::WireResponse& a,
                            const serving::WireResponse& b) {
  std::string fields;
  const auto check = [&](bool same, const char* name) {
    if (same) return;
    if (!fields.empty()) fields += ", ";
    fields += name;
  };
  check(a.status == b.status, "status");
  check(a.degradation == b.degradation, "degradation");
  check(a.degraded == b.degraded, "degraded");
  check(a.anchor_count == b.anchor_count, "anchor_count");
  check(Bits(a.position.x) == Bits(b.position.x), "position.x");
  check(Bits(a.position.y) == Bits(b.position.y), "position.y");
  check(Bits(a.relaxation_cost) == Bits(b.relaxation_cost),
        "relaxation_cost");
  check(Bits(a.feasible_area_m2) == Bits(b.feasible_area_m2),
        "feasible_area_m2");
  check(Bits(a.confidence) == Bits(b.confidence), "confidence");
  return fields;
}

std::string Describe(const serving::WireResponse& response,
                     const std::string& what) {
  return "object " + std::to_string(response.object_id) + " t=" +
         std::to_string(response.timestamp_s) + ": " + what;
}

/// A hash of the observation's fields, PDP bits included: it picks the
/// packets a partial-share event hits, so the pick varies with the replay
/// seed but not from run to run.
std::uint64_t PacketKey(const serving::IngestPacket& packet) {
  std::uint64_t key = 0;
  for (const std::uint64_t field :
       {packet.object_id, std::uint64_t(packet.ap_id),
        Bits(packet.timestamp_s), Bits(packet.pdp)}) {
    std::uint64_t state = key ^ field;
    key = common::SplitMix64(state);
  }
  return key;
}

/// Whether `event` hits the packet with `key`: every packet at share 1,
/// else a uniform draw from the key salted with the kind.
bool Hits(const ChaosEvent& event, std::uint64_t key) {
  if (event.share >= 1.0) return true;
  std::uint64_t state = key ^ std::uint64_t(event.kind);
  return double(common::SplitMix64(state) >> 11) * 0x1.0p-53 < event.share;
}

/// Applies the data-plane faults covering an observation: death drops it
/// for the whole window, flap during the "down" half of each period,
/// corruption scribbles its PDP with NaN, and late delivery pulls its
/// deadline in by the delay, so the target admits it as if it arrived
/// that much later.  Returns false when it was dropped.
bool ApplyObservationFaults(const std::vector<ChaosEvent>& events,
                            serving::IngestPacket& packet,
                            ChaosReport& report) {
  if (packet.kind != serving::PacketKind::kObservation) return true;
  const double t = packet.timestamp_s;
  const std::uint64_t key = PacketKey(packet);
  bool corrupted = false;
  bool delayed = false;
  for (const ChaosEvent& event : events) {
    if (VocabularyOf(event.kind) != ChaosVocabulary::kDataPlane ||
        packet.ap_id < 0 || std::size_t(packet.ap_id) != event.target ||
        t < event.start_s || t > event.end_s || !Hits(event, key))
      continue;
    bool dropped = event.kind == ChaosKind::kAnchorDeath;
    if (event.kind == ChaosKind::kAnchorFlap) {
      const double phase =
          (t - event.start_s) / std::max(event.magnitude, 1e-9);
      dropped = (std::int64_t(phase) % 2) == 1;
    }
    if (dropped) {
      ++report.executed[std::size_t(event.kind)];
      return false;
    }
    if (event.kind == ChaosKind::kTraceCorruption) {
      packet.pdp = std::numeric_limits<double>::quiet_NaN();
      corrupted = true;
    }
    if (event.kind == ChaosKind::kLateDelivery) {
      packet.deadline_s -= event.magnitude;
      delayed = true;
    }
  }
  if (corrupted) ++report.executed[std::size_t(ChaosKind::kTraceCorruption)];
  if (delayed) ++report.executed[std::size_t(ChaosKind::kLateDelivery)];
  return true;
}

}  // namespace

common::Result<void> ChaosConfig::Validate(ChaosVocabulary vocabulary) const {
  double total = 0.0;
  for (double weight : weights)
    if (weight < 0.0)
      return common::InvalidArgument("event weights must be >= 0");
  for (double weight : VocabularyWeights(*this, vocabulary)) total += weight;
  if (events > 0 && total <= 0.0)
    return common::InvalidArgument("at least one event weight must be > 0");
  return {};
}

ChaosSchedule BuildChaosSchedule(const ChaosConfig& config,
                                 ChaosVocabulary vocabulary,
                                 const serving::ReplayPlan& plan,
                                 double epoch_interval_s,
                                 std::size_t targets) {
  ChaosSchedule schedule;
  if (config.events == 0) return schedule;
  if (vocabulary == ChaosVocabulary::kTopology &&
      (plan.epoch_count < 3 || targets == 0))
    return schedule;
  common::Rng rng(config.seed);
  schedule.events.reserve(config.events);
  if (vocabulary == ChaosVocabulary::kDataPlane)
    DrawDataPlane(config, rng, plan, epoch_interval_s, targets, schedule);
  else
    DrawTopology(config, rng, plan, epoch_interval_s, targets, schedule);
  Normalize(schedule);
  return schedule;
}

common::Result<ChaosReport> RunChaosSchedule(const core::NomLocEngine& engine,
                                             const serving::ReplayPlan& plan,
                                             double epoch_interval_s,
                                             ChaosSchedule schedule,
                                             ChaosTarget target,
                                             bool check_parity) {
  if (plan.packets.empty())
    return common::InvalidArgument("replay plan has no packets");
  ClusterConfig* cluster_config = std::get_if<ClusterConfig>(&target);
  const ChaosVocabulary vocabulary = cluster_config != nullptr
                                         ? ChaosVocabulary::kTopology
                                         : ChaosVocabulary::kDataPlane;
  for (const ChaosEvent& event : schedule.events) {
    if (VocabularyOf(event.kind) != vocabulary)
      return common::InvalidArgument(std::string(ChaosKindName(event.kind)) +
                                     " is not in the target's vocabulary");
    if (!(event.end_s >= event.start_s))
      return common::InvalidArgument("chaos event ends before it starts");
    if (!(event.share >= 0.0 && event.share <= 1.0))
      return common::InvalidArgument("chaos event share must be in [0, 1]");
    if (event.kind == ChaosKind::kLateDelivery && !(event.magnitude >= 0.0))
      return common::InvalidArgument("late delivery needs a delay >= 0");
    if (cluster_config != nullptr && event.target >= cluster_config->shards)
      return common::InvalidArgument("chaos event targets a missing shard");
  }
  Normalize(schedule);

  serving::ServingConfig& serving_config =
      cluster_config != nullptr ? cluster_config->serving
                                : std::get<serving::ServingConfig>(target);
  serving_config.expected_anchors = plan.expected_anchors;
  if (serving_config.store.anchor_ttl_s <= 0.0 ||
      serving_config.store.anchor_ttl_s ==
          serving::SessionStoreConfig{}.anchor_ttl_s)
    serving_config.store.anchor_ttl_s = plan.suggested_anchor_ttl_s;
  serving_config.start_paused = false;

  // One logical clock for the target (the router's, for a cluster) and
  // the golden twin: both see every group at the same time.
  serving::ManualClock clock(0.0);
  std::unique_ptr<serving::StreamingLocalizer> golden;
  if (check_parity) {
    NOMLOC_ASSIGN_OR_RETURN(
        golden,
        serving::StreamingLocalizer::Create(engine, serving_config, &clock));
  }
  std::unique_ptr<serving::StreamingLocalizer> localizer;
  std::unique_ptr<Cluster> cluster;
  if (cluster_config != nullptr) {
    NOMLOC_ASSIGN_OR_RETURN(
        cluster, Cluster::Create(engine, std::move(*cluster_config), &clock));
  } else {
    NOMLOC_ASSIGN_OR_RETURN(
        localizer, serving::StreamingLocalizer::Create(
                       engine, std::move(serving_config), &clock));
  }
  const auto ingest = [&](const serving::IngestPacket& packet) {
    return cluster != nullptr ? cluster->Ingest(packet)
                              : localizer->Ingest(packet);
  };
  const auto flush = [&] {
    if (cluster != nullptr)
      cluster->Flush();
    else
      localizer->Flush();
  };

  ChaosReport report;
  report.schedule = std::move(schedule);
  const std::vector<ChaosEvent>& events = report.schedule.events;
  const auto tally = [&](std::array<std::size_t, kChaosKindCount>& counts,
                         const ChaosEvent& event) {
    ++counts[std::size_t(event.kind)];
  };
  std::vector<bool> started(events.size(), false);
  std::vector<bool> ended(events.size(), false);
  std::vector<std::size_t> crash_pending;
  // A clock jump skews the next timestamp group only: the target sees one
  // batch at stepped time (stressing eviction and deadline math in both
  // directions), then the clock resyncs.  A permanent skew would age
  // every later epoch's anchors against their packet timestamps and keep
  // the run degraded forever — that is drift, not a jump.
  double pending_jump_s = 0.0;

  // Fires event `e`'s start edge; returns whether its window stays open.
  const auto start = [&](std::size_t e) {
    const ChaosEvent& event = events[e];
    switch (event.kind) {
      case ChaosKind::kAnchorDeath:
      case ChaosKind::kAnchorFlap:
      case ChaosKind::kTraceCorruption:
      case ChaosKind::kLateDelivery:
        return true;  // Applied per packet (ApplyObservationFaults).
      case ChaosKind::kClockJump:
        pending_jump_s += event.magnitude;
        tally(report.executed, event);
        return false;
      case ChaosKind::kQueueSaturation: {
        tally(report.executed, event);
        clock.Set(event.start_s);
        serving::IngestPacket filler;
        filler.kind = serving::PacketKind::kObservation;
        filler.object_id = kFillerObjectId;
        filler.ap_id = 0;
        filler.reported_position = {0.0, 0.0};
        filler.pdp = 1.0;
        filler.timestamp_s = event.start_s;
        for (std::size_t b = 0; b < std::size_t(event.magnitude); ++b)
          (void)ingest(filler);  // Queue-full rejections expected.
        // Drain the burst so saturation stresses admission control
        // without starving the real stream downstream of the event.
        flush();
        return false;
      }
      case ChaosKind::kShardKill:
        // An overlapping kill finds the shard already down: a no-op.
        if (!cluster->ShardLive(event.target) ||
            !cluster->Checkpoint(event.target).ok())
          return false;
        cluster->Kill(event.target);
        tally(report.executed, event);
        return true;
      case ChaosKind::kShardMigrate:
        if (cluster->Migrate(event.target).ok())
          tally(report.executed, event);
        return false;
      case ChaosKind::kTransportStall:
        tally(report.executed, event);
        return true;
      case ChaosKind::kShardKillUnclean:
        // Deferred until this group is written (see the loop below).
        if (!cluster->ShardLive(event.target)) return false;
        crash_pending.push_back(e);
        return true;
    }
    return false;
  };
  // Fires event `e`'s end edge; returns false while its window must stay
  // open (a crash kill that has not fired yet).
  const auto end = [&](std::size_t e) {
    const ChaosEvent& event = events[e];
    if (event.kind == ChaosKind::kShardKill) {
      if (!cluster->ShardLive(event.target) &&
          cluster->Restart(event.target).ok())
        tally(report.recovered, event);
    } else if (event.kind == ChaosKind::kShardKillUnclean) {
      if (std::find(crash_pending.begin(), crash_pending.end(), e) !=
          crash_pending.end())
        return false;
      if (!cluster->ShardLive(event.target) &&
          cluster->Recover(event.target).ok())
        tally(report.recovered, event);
    }
    return true;
  };
  // Topology kinds, stalls included, only ever run against a cluster.
  const auto set_open_stalls = [&](bool stalled) {
    for (std::size_t e = 0; e < events.size(); ++e)
      if (started[e] && !ended[e] &&
          events[e].kind == ChaosKind::kTransportStall)
        cluster->SetStalled(events[e].target, stalled);
  };

  std::size_t i = 0;
  while (i < plan.packets.size()) {
    const double t = plan.packets[i].timestamp_s;

    // Fire event edges due at or before this timestamp group.  Everything
    // up to here is flushed, so a clean kill loses no in-flight work.
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (!started[e] && events[e].start_s <= t) {
        started[e] = true;
        ended[e] = !start(e);
      }
      if (started[e] && !ended[e] && events[e].end_s <= t) ended[e] = end(e);
    }
    set_open_stalls(true);
    clock.Set(t + pending_jump_s);
    pending_jump_s = 0.0;

    // Ingest the whole same-timestamp group, then flush: every serve of
    // this group runs at this exact logical time, independent of worker
    // scheduling.
    for (; i < plan.packets.size() && plan.packets[i].timestamp_s == t; ++i) {
      serving::IngestPacket packet = plan.packets[i];
      if (!ApplyObservationFaults(events, packet, report)) continue;
      const serving::AdmitStatus admit = ingest(packet);
      ++report.admitted[std::size_t(admit)];
      if (admit != serving::AdmitStatus::kAccepted) continue;
      if (packet.kind == serving::PacketKind::kQuery)
        ++report.accepted_queries;
      // The golden twin sees exactly the accepted stream, so a typed
      // rejection (stall backpressure, breaker) never breaks parity.
      if (golden != nullptr) golden->Ingest(packet);
    }

    // Crash kills land between the group's write and its flush, so the
    // primary dies with this group's bytes in flight.  No checkpoint:
    // recovery must come from replication and the WAL.
    for (std::size_t e : crash_pending) {
      cluster->Kill(events[e].target, /*unclean=*/true);
      tally(report.executed, events[e]);
    }
    crash_pending.clear();
    set_open_stalls(false);
    flush();
    if (golden != nullptr) golden->Flush();
  }
  // Close every window whose end edge fell past the last group: each
  // executed kill ends in its recovery, so the tallies balance and
  // Shutdown sees a fully live cluster.
  for (std::size_t e = 0; e < events.size(); ++e)
    if (started[e] && !ended[e]) ended[e] = end(e);
  flush();

  std::vector<serving::WireResponse> responses;
  if (cluster != nullptr) {
    for (const ClusterResponse& received : cluster->TakeResponses())
      responses.push_back(received.response);
    cluster->Shutdown();
  } else {
    localizer->Shutdown();
    for (const serving::ServeResponse& response : localizer->TakeResponses())
      if (response.object_id != kFillerObjectId)
        responses.push_back(serving::ToWireResponse(response));
  }
  std::sort(responses.begin(), responses.end(),
            [](const serving::WireResponse& a, const serving::WireResponse& b) {
              if (a.timestamp_s != b.timestamp_s)
                return a.timestamp_s < b.timestamp_s;
              return a.object_id < b.object_id;
            });

  if (golden != nullptr) {
    golden->Flush();
    golden->Shutdown();
    report.parity_checked = true;
    std::map<std::pair<std::uint64_t, std::uint64_t>, serving::WireResponse>
        expected;
    for (const serving::ServeResponse& response : golden->TakeResponses())
      expected[{response.object_id, Bits(response.timestamp_s)}] =
          serving::ToWireResponse(response);
    const auto mismatch = [&](std::string what) {
      if (report.parity_mismatches++ == 0)
        report.first_mismatch = std::move(what);
    };
    for (const serving::WireResponse& response : responses) {
      ++report.parity_compared;
      const auto it =
          expected.find({response.object_id, Bits(response.timestamp_s)});
      if (it == expected.end()) {
        mismatch(Describe(response, "no golden twin"));
        continue;
      }
      const std::string fields = DifferingFields(response, it->second);
      if (!fields.empty()) mismatch(Describe(response, fields + " differ"));
      expected.erase(it);
    }
    // Whatever the golden still expects, the target lost.
    for (const auto& [key, lost] : expected)
      mismatch(Describe(lost, "lost by the target"));
  }

  const double last_end_s = report.schedule.last_event_end_s;
  double tail_error_sum = 0.0;
  std::size_t tail_error_count = 0;
  report.outcomes.reserve(responses.size());
  for (const serving::WireResponse& response : responses) {
    ChaosOutcome outcome;
    outcome.object_id = response.object_id;
    outcome.epoch = std::size_t(response.timestamp_s / epoch_interval_s);
    outcome.timestamp_s = response.timestamp_s;
    outcome.status = serving::ServeStatus(response.status);
    outcome.degradation = common::DegradationLevel(response.degradation);
    outcome.confidence = response.confidence;
    const bool ok = outcome.status == serving::ServeStatus::kOk;
    const std::size_t row =
        outcome.epoch * plan.objects + std::size_t(response.object_id);
    if (ok && row < plan.epochs.size())
      outcome.error_m = geometry::Distance(response.position,
                                           plan.epochs[row].true_position);
    if (response.degradation < report.degradation_counts.size())
      ++report.degradation_counts[response.degradation];
    if (ok && outcome.timestamp_s > last_end_s) {
      tail_error_sum += outcome.error_m;
      ++tail_error_count;
    }
    if (ok && !events.empty() && report.recovery_latency_s < 0.0 &&
        outcome.timestamp_s >= last_end_s &&
        outcome.degradation == common::DegradationLevel::kNone)
      report.recovery_latency_s = outcome.timestamp_s - last_end_s;
    report.outcomes.push_back(outcome);
  }
  if (tail_error_count > 0)
    report.tail_mean_error_m = tail_error_sum / double(tail_error_count);
  report.responses = std::move(responses);
  return report;
}

common::Result<ChaosReport> RunChaos(const core::NomLocEngine& engine,
                                     const serving::ReplayPlan& plan,
                                     double epoch_interval_s,
                                     const ChaosConfig& chaos,
                                     ChaosTarget target) {
  const ClusterConfig* cluster_config = std::get_if<ClusterConfig>(&target);
  const ChaosVocabulary vocabulary = cluster_config != nullptr
                                         ? ChaosVocabulary::kTopology
                                         : ChaosVocabulary::kDataPlane;
  NOMLOC_RETURN_IF_ERROR(chaos.Validate(vocabulary).status());
  if (plan.packets.empty())
    return common::InvalidArgument("replay plan has no packets");
  ChaosSchedule schedule = BuildChaosSchedule(
      chaos, vocabulary, plan, epoch_interval_s,
      cluster_config != nullptr ? cluster_config->shards
                                : plan.expected_anchors);
  return RunChaosSchedule(engine, plan, epoch_interval_s, std::move(schedule),
                          std::move(target), chaos.check_parity);
}

}  // namespace nomloc::cluster

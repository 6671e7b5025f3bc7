// The deterministic chaos engine for the serving and cluster layers.
//
// A schedule of fault events is replayed over a ReplayPlan's timeline
// against one of two targets, driven on a ManualClock.  The target picks
// the vocabulary its schedules draw from:
//
//   * a StreamingLocalizer takes the data-plane kinds: anchor death and
//     flap, trace corruption, clock jumps, late delivery, queue
//     saturation;
//   * a Cluster takes the topology kinds: shard kills with later
//     checkpoint-restores, live migrations, transport stalls, crash kills.
//
// Building a schedule (BuildChaosSchedule, seeded) is separate from
// running one (RunChaosSchedule), so a caller can also run a hand-built
// schedule: `nomloc_cluster --migrate`, `--kill` and `--kill-primary` each
// add one event, and `nomloc_serve --dropout`, `--loss` and `--delay-rate`
// build whole-run anchor windows.  Observation kinds hit only their
// event's `share` of the window's observations, picked by a hash of each
// packet (PDP bits included), so a run stays a pure function of (plan,
// schedule, target config) and every seed is a reproducible failure
// scenario.
//
// The replay loop steps the clock to each same-timestamp group, ingests
// the group and flushes it, so every serve runs at its group's logical
// time and events fire on drained boundaries.  Crash kills are the one
// exception: they fire after their trigger group is written and before
// it is flushed, so bytes in flight to the primary die unapplied.
//
// With check_parity an unsharded golden StreamingLocalizer is fed the
// accepted packets in lockstep, and every response is compared with its
// twin as raw bits: status, degradation, degraded, anchor_count and the
// five doubles.  Responses the golden lacks, and golden responses the
// target lost, count as mismatches too.
//
// The ctest suites (label `chaos`) replay several seeds and assert the
// resilience invariants:
//
//   * no crash, and exactly one response per accepted query;
//   * every response carries a valid DegradationLevel, and its
//     confidence is capped by that rung's scale;
//   * packets a dead shard cannot take reroute along the rendezvous
//     preference order or reject with a typed verdict, never vanish;
//   * after the last event clears, accuracy returns to the fault-free
//     run's;
//   * with replication on, crash kills and migrations keep bit parity.
//
// `nomloc_serve` and `nomloc_cluster` run every replay on this engine;
// `--chaos [SEED]` replays one seed from the command line.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cluster/cluster.h"
#include "common/degradation.h"
#include "common/status.h"
#include "serving/replay.h"
#include "serving/service.h"
#include "serving/wire.h"

namespace nomloc::cluster {

enum class ChaosKind : std::uint8_t {
  // Data-plane vocabulary (StreamingLocalizer target).
  kAnchorDeath,      ///< An AP goes silent for the window (packets dropped).
  kAnchorFlap,       ///< An AP alternates up/down with period `magnitude`.
  kTraceCorruption,  ///< An AP's reports are scribbled with NaN PDPs.
  /// The next timestamp group runs `magnitude` seconds off the timeline;
  /// the clock resyncs after it.
  kClockJump,
  /// An AP's reports arrive `magnitude` seconds late: each is admitted as
  /// if it arrived then, so one that lands past its deadline is
  /// kRejectedDeadline.
  kLateDelivery,
  /// `magnitude` filler packets flood the queues, then drain.
  kQueueSaturation,
  // Topology vocabulary (Cluster target).
  /// Checkpoint + Kill at start_s; Restart from that checkpoint at end_s.
  kShardKill,
  /// Live migration (drain, filtered checkpoint, host swap) at start_s.
  kShardMigrate,
  /// Ingest-direction transport stall over [start_s, end_s): packets
  /// queue in the pipe and overflow as typed backpressure.  The stall is
  /// cleared before each flush (a flush through a stalled pipe would
  /// never ack) and applied again while the window lasts.
  kTransportStall,
  /// Crash kill with no checkpoint, fired after the trigger group is
  /// written and before it is flushed; Recover() (WAL replay +
  /// anti-entropy repair) at end_s.  Meaningful with
  /// ClusterConfig::replicate and/or durable_dir.
  kShardKillUnclean,
};
inline constexpr std::size_t kChaosKindCount = 10;

std::string_view ChaosKindName(ChaosKind kind) noexcept;

enum class ChaosVocabulary { kDataPlane, kTopology };

struct ChaosEvent {
  ChaosKind kind = ChaosKind::kAnchorDeath;
  double start_s = 0.0;
  double end_s = 0.0;  ///< Instantaneous events have end_s == start_s.
  /// The AP id (anchor kinds) or the shard (topology kinds).
  std::size_t target = 0;
  /// kClockJump: signed jump [s].  kAnchorFlap: up/down period [s].
  /// kLateDelivery: delay [s].  kQueueSaturation: burst size in packets.
  double magnitude = 0.0;
  /// The anchor kinds and kLateDelivery hit this share of the
  /// observations in their window, in [0, 1]; drawn events hit them all.
  double share = 1.0;
};

struct ChaosSchedule {
  std::vector<ChaosEvent> events;  ///< Sorted by start_s.
  double last_event_end_s = 0.0;
};

struct ChaosConfig {
  /// Defaults for one vocabulary: six data-plane or four topology events.
  explicit ChaosConfig(
      ChaosVocabulary vocabulary = ChaosVocabulary::kDataPlane) noexcept
      : events(vocabulary == ChaosVocabulary::kDataPlane ? 6 : 4) {}

  std::uint64_t seed = 1;
  /// Fault events drawn over the replay window.
  std::size_t events;
  /// Relative draw weight per kind (zero disables a kind); each
  /// vocabulary draws from its own slice.  Late delivery and crash kills
  /// are off by default: a zero weight consumes no draw, so seeds drawn
  /// before they existed reproduce bit-identically.
  std::array<double, kChaosKindCount> weights = {3.0, 2.0, 3.0, 1.0, 0.0,
                                                 1.0, 3.0, 2.0, 2.0, 0.0};
  /// Run the golden twin and bit-compare every response (see above).
  /// With replicate on and a mix of crash kills and migrations, every
  /// mismatch is a bug; a clean kill's restart from its checkpoint
  /// legitimately drops post-checkpoint sessions.
  bool check_parity = false;

  double& Weight(ChaosKind kind) { return weights[std::size_t(kind)]; }
  common::Result<void> Validate(ChaosVocabulary vocabulary) const;
};

/// Draws the deterministic event schedule for one replay plan from
/// `vocabulary`.  `targets` is the anchor count (data plane) or the shard
/// count (topology).  Data-plane windows land in the run's first 70%;
/// topology events start on epoch boundaries there (crash kills mid-epoch,
/// one per trigger epoch) and close by the second-to-last epoch, so the
/// tail always measures post-recovery behaviour.
ChaosSchedule BuildChaosSchedule(const ChaosConfig& config,
                                 ChaosVocabulary vocabulary,
                                 const serving::ReplayPlan& plan,
                                 double epoch_interval_s,
                                 std::size_t targets);

/// What a run drives: one StreamingLocalizer (data-plane vocabulary) or a
/// Cluster (topology vocabulary).  The harness forces the ManualClock and
/// the plan's anchor TTL and expected anchor count onto the serving config.
using ChaosTarget = std::variant<serving::ServingConfig, ClusterConfig>;

/// One query's outcome, joined against the plan's golden truth.
struct ChaosOutcome {
  std::uint64_t object_id = 0;
  std::size_t epoch = 0;
  double timestamp_s = 0.0;
  serving::ServeStatus status = serving::ServeStatus::kOk;
  common::DegradationLevel degradation = common::DegradationLevel::kNone;
  double confidence = 0.0;
  /// Distance to the epoch's true position [m]; meaningful when status
  /// is kOk.
  double error_m = 0.0;
};

struct ChaosReport {
  ChaosSchedule schedule;
  std::vector<ChaosOutcome> outcomes;  ///< Sorted by (timestamp, object).
  /// The responses themselves, index-aligned with `outcomes`.
  std::vector<serving::WireResponse> responses;
  /// As executed, per kind: anchor kinds and late delivery count the
  /// packets they ate, corrupted or delayed, every other kind the events
  /// that fired.
  std::array<std::size_t, kChaosKindCount> executed{};
  /// Windows closed by their recovery action, per kind: Restart() for
  /// kShardKill, Recover() for kShardKillUnclean.
  std::array<std::size_t, kChaosKindCount> recovered{};
  /// Admission verdicts over the replayed stream (filler excluded).
  std::array<std::size_t, serving::kAdmitStatusCount> admitted{};
  /// Accepted queries (every one must produce exactly one outcome).
  std::size_t accepted_queries = 0;
  /// Responses per degradation rung (index = level).
  std::array<std::size_t, 4> degradation_counts{};
  /// Logical time from the last event clearing to the first later
  /// full-fidelity (kOk, kNone) response; negative when there is none or
  /// nothing was scheduled.
  double recovery_latency_s = -1.0;
  /// Mean kOk error over responses strictly after the last event cleared;
  /// negative when there is none.
  double tail_mean_error_m = -1.0;
  /// check_parity: responses compared and mismatches.  A clean run has
  /// parity_checked && parity_mismatches == 0.
  bool parity_checked = false;
  std::size_t parity_compared = 0;
  std::size_t parity_mismatches = 0;
  /// The first mismatch: its object, time, and the fields that differ.
  std::string first_mismatch;

  std::size_t Executed(ChaosKind kind) const noexcept {
    return executed[std::size_t(kind)];
  }
  std::size_t Recovered(ChaosKind kind) const noexcept {
    return recovered[std::size_t(kind)];
  }
  std::size_t Admitted(serving::AdmitStatus status) const noexcept {
    return admitted[std::size_t(status)];
  }
};

/// Replays `plan` through a fresh target while applying `schedule` (sorted
/// here).  Every event must belong to the target's vocabulary, shard
/// targets must exist, shares lie in [0, 1] and delays are >= 0.
/// Deterministic for a given configuration: a crash kill's in-flight loss
/// varies per host, but the post-failover state is donor-authoritative
/// (the standby saw every accepted observation synchronously), so
/// responses do not.  The exception is a loopback pipe smaller than a
/// group's frames: the router's writes then race the host reader, and
/// admission counts vary from run to run.
common::Result<ChaosReport> RunChaosSchedule(const core::NomLocEngine& engine,
                                             const serving::ReplayPlan& plan,
                                             double epoch_interval_s,
                                             ChaosSchedule schedule,
                                             ChaosTarget target,
                                             bool check_parity = false);

/// Draws the schedule from `chaos` in the target's vocabulary and runs it.
common::Result<ChaosReport> RunChaos(const core::NomLocEngine& engine,
                                     const serving::ReplayPlan& plan,
                                     double epoch_interval_s,
                                     const ChaosConfig& chaos,
                                     ChaosTarget target);

}  // namespace nomloc::cluster

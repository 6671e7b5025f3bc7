// Deterministic chaos harness for the streaming serving layer.
//
// A seeded schedule of fault events — anchor death, anchor flap, trace
// corruption, clock jumps, queue saturation — is replayed against a
// StreamingLocalizer driven on a ManualClock.  The schedule is a pure
// function of (seed, replay plan), so a chaos run is exactly as
// reproducible as the replay it perturbs; the ctest suite (label `chaos`)
// replays several seeds and asserts the resilience invariants:
//
//   * no crash and one response per accepted query,
//   * every response carries a valid DegradationLevel, and any response
//     above kNone is flagged degraded with a down-scaled confidence,
//   * error stays bounded while faults are active,
//   * after the last fault clears (plus one TTL), accuracy returns to
//     within a few percent of the fault-free run.
//
// `nomloc_serve --chaos SEED` reports recovery latency — logical time
// from fault clearance to the first full-fidelity (kNone) response — over
// the same harness.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/degradation.h"
#include "common/status.h"
#include "eval/scenario.h"
#include "serving/replay.h"
#include "serving/service.h"

namespace nomloc::serving {

enum class ChaosEventKind {
  kAnchorDeath,      ///< An AP goes silent for a window (packets dropped).
  kAnchorFlap,       ///< An AP alternates up/down within the window.
  kTraceCorruption,  ///< An AP's reports are scribbled with NaN PDPs.
  kClockJump,        ///< The logical clock jumps by `magnitude` seconds.
  kQueueSaturation,  ///< A burst of filler packets floods the queues.
};

std::string_view ChaosEventKindName(ChaosEventKind kind) noexcept;

struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kAnchorDeath;
  double start_s = 0.0;
  double end_s = 0.0;    ///< Instantaneous events have end_s == start_s.
  int ap_id = 0;         ///< Target AP (anchor events only).
  /// kClockJump: signed jump [s].  kAnchorFlap: up/down period [s].
  /// kQueueSaturation: burst size in packets.
  double magnitude = 0.0;
};

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Fault events drawn over the replay window.
  std::size_t events = 6;
  /// Event-kind mix (relative weights; zero disables a kind).
  double anchor_death_weight = 3.0;
  double anchor_flap_weight = 2.0;
  double corruption_weight = 3.0;
  double clock_jump_weight = 1.0;
  double queue_saturation_weight = 1.0;
  /// Fault windows last up to this fraction of one epoch interval.
  double max_window_fraction = 0.75;
  /// Clock jumps are drawn uniform in ±this many seconds.
  double max_clock_jump_s = 0.5;
  /// Queue-saturation bursts enqueue this many filler packets.
  std::size_t saturation_burst = 256;

  common::Result<void> Validate() const;
};

struct ChaosSchedule {
  std::vector<ChaosEvent> events;  ///< Sorted by start_s.
  double last_event_end_s = 0.0;
};

/// Derives the deterministic event schedule for one replay plan.  Anchor
/// targets are drawn from [0, expected_anchors); windows from the plan's
/// timeline.
ChaosSchedule BuildChaosSchedule(const ChaosConfig& config,
                                 const ReplayPlan& plan,
                                 double epoch_interval_s);

/// One query's outcome, joined against the plan's golden truth.
struct ChaosQueryOutcome {
  std::uint64_t object_id = 0;
  std::size_t epoch = 0;
  double timestamp_s = 0.0;
  ServeStatus status = ServeStatus::kOk;
  common::DegradationLevel degradation = common::DegradationLevel::kNone;
  double confidence = 0.0;
  /// Distance to the epoch's true position [m]; meaningful when status
  /// is kOk.
  double error_m = 0.0;
};

struct ChaosReport {
  ChaosSchedule schedule;
  std::vector<ChaosQueryOutcome> outcomes;
  /// Injection tallies.
  std::size_t injected_drops = 0;        ///< Packets eaten by death/flap.
  std::size_t injected_corruptions = 0;  ///< Reports scribbled with NaN.
  std::size_t clock_jumps = 0;
  std::size_t saturation_bursts = 0;
  /// Admission tallies over the real (non-filler) stream.
  std::size_t admit_accepted = 0;
  std::size_t admit_rejected_corrupt = 0;
  std::size_t admit_rejected_breaker = 0;
  std::size_t admit_rejected_queue_full = 0;
  std::size_t admit_rejected_deadline = 0;
  std::size_t admit_dropped_by_fault = 0;
  /// Responses per degradation rung (index = level).
  std::size_t degradation_counts[4] = {0, 0, 0, 0};
  /// Logical time from the last fault clearing to the first subsequent
  /// full-fidelity (kOk, kNone) response; negative when no such response
  /// exists (or no events were scheduled).
  double recovery_latency_s = -1.0;
};

/// Replays `plan` through a fresh StreamingLocalizer while applying the
/// chaos schedule.  `serving` seeds the service configuration (the
/// harness forces a ManualClock and anchor TTLs from the plan).  Fully
/// deterministic for a given (plan, chaos config, serving config).
common::Result<ChaosReport> RunChaos(const core::NomLocEngine& engine,
                                     const ReplayPlan& plan,
                                     double epoch_interval_s,
                                     const ChaosConfig& chaos,
                                     ServingConfig serving);

}  // namespace nomloc::serving

// nomloc_serve — streaming serving-layer driver.
//
//   nomloc_serve [--scenario lab|lobby|office] [--objects N] [--epochs N]
//                [--interval S] [--workers N] [--queue-capacity N]
//                [--deadline S] [--dropout R] [--loss R] [--delay-rate R]
//                [--delay S] [--packets N] [--dwells N] [--seed N]
//                [--breaker-threshold N] [--breaker-backoff S]
//                [--retry-budget N] [--no-lkg] [--incremental]
//                [--chaos SEED] [--chaos-events N] [--wire]
//                [--check] [--check-perturb] [--metrics]
//
// Replays a measurement campaign (objects x epochs, from the scenario's
// test sites) as a timestamped packet stream through one
// StreamingLocalizer, always on the chaos engine (cluster/chaos.h): the
// schedule is empty, built from the fault flags, or drawn by --chaos.
// Prints the schedule and what of it executed, admission counts,
// per-response outcomes, localization error, degradation-ladder counts,
// throughput, and the serving.latency timer's percentiles.
//
// Fault flags become whole-run anchor windows: --dropout R kills each
// distinct AP for the whole run with probability R (drawn once from
// --seed), --loss R drops a share R of every AP's reports, and
// --delay-rate R --delay S delivers a share R of them S seconds late, so
// one that lands past its --deadline is rejected.  The solver sees the
// reduced constraint set, each response carries a confidence plus a
// `degraded` flag, and --metrics shows the serving.* series.
//
// --wire round-trips the whole packet stream through the binary wire
// codec (serving/wire.h) before replay, so the served stream is exactly
// what a decoder would hand the service; with --check this proves that a
// wire-framed stream is bit-identical to the in-memory path.
//
// --check (no faults, no --chaos) additionally runs the same anchor sets
// through NomLocEngine::LocateBatch and exits non-zero unless every
// streamed estimate is bit-identical to its batch twin — the serving
// layer's end-to-end equivalence proof.  --check-perturb intentionally
// nudges one streamed estimate before comparing, proving the detector
// trips (the process must exit non-zero).
//
// --incremental switches the per-object solver sessions to
// SpSessionMode::kIncremental (warm constraint deltas instead of a cold
// LP per update — see DESIGN.md "Incremental session solver"); --metrics
// then shows the solver.fastpath / solver.warm_lp hit rates.
//
// Resilience knobs: --breaker-threshold / --breaker-backoff shape the
// per-anchor circuit breakers, --retry-budget re-queues failed queries,
// --no-lkg disables the last-known-good fallback.  --chaos SEED draws a
// seeded schedule (anchor death/flap, trace corruption, clock jumps,
// queue saturation) and reports when full fidelity returns.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/nomloc.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "serving/replay.h"
#include "serving/service.h"
#include "serving/wire.h"

using namespace nomloc;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario lab|lobby|office] [--objects N] [--epochs N]\n"
      "          [--interval S] [--workers N] [--queue-capacity N]\n"
      "          [--deadline S] [--dropout R] [--loss R] [--delay-rate R]\n"
      "          [--delay S] [--packets N] [--dwells N] [--seed N]\n"
      "          [--breaker-threshold N] [--breaker-backoff S]\n"
      "          [--retry-budget N] [--no-lkg] [--incremental]\n"
      "          [--chaos SEED] [--chaos-events N] [--wire]\n"
      "          [--check] [--check-perturb] [--metrics]\n",
      argv0);
  std::exit(2);
}

/// The fault flags as whole-run anchor windows on every AP of the plan.
/// Dropout draws each AP's fate once, in first-sight order.
cluster::ChaosSchedule FaultSchedule(const serving::ReplayPlan& plan,
                                     double epoch_interval_s, double dropout,
                                     double loss, double delay_rate,
                                     double delay_s, std::uint64_t seed) {
  std::vector<int> aps;
  for (const serving::IngestPacket& packet : plan.packets)
    if (packet.kind == serving::PacketKind::kObservation &&
        std::find(aps.begin(), aps.end(), packet.ap_id) == aps.end())
      aps.push_back(packet.ap_id);
  using cluster::ChaosKind;
  const double end_s = double(plan.epoch_count) * epoch_interval_s;
  common::Rng rng(seed);
  cluster::ChaosSchedule schedule;
  for (int ap : aps) {
    const std::size_t target = std::size_t(ap);
    if (rng.Bernoulli(dropout))
      schedule.events.push_back({ChaosKind::kAnchorDeath, 0.0, end_s, target});
    if (loss != 0.0)
      schedule.events.push_back(
          {ChaosKind::kAnchorDeath, 0.0, end_s, target, 0.0, loss});
    if (delay_rate != 0.0)
      schedule.events.push_back({ChaosKind::kLateDelivery, 0.0, end_s, target,
                                 delay_s, delay_rate});
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "lab";
  serving::ReplayConfig replay;
  replay.run.packets_per_batch = 20;
  replay.run.dwell_count = 6;
  serving::ServingConfig serve;
  cluster::ChaosConfig chaos;
  bool chaos_mode = false;
  double dropout = 0.0, loss = 0.0, delay_rate = 0.0, delay_s = 0.0;
  std::uint64_t fault_seed = 0x5e21;
  bool use_wire = false;
  bool check = false;
  bool check_perturb = false;
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_name = next();
    } else if (arg == "--objects") {
      replay.objects = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--epochs") {
      replay.epochs = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--interval") {
      replay.epoch_interval_s = std::strtod(next(), nullptr);
    } else if (arg == "--deadline") {
      replay.deadline_s = std::strtod(next(), nullptr);
    } else if (arg == "--workers") {
      serve.workers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--queue-capacity") {
      serve.queue_capacity = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--dropout") {
      dropout = std::strtod(next(), nullptr);
    } else if (arg == "--loss") {
      loss = std::strtod(next(), nullptr);
    } else if (arg == "--delay-rate") {
      delay_rate = std::strtod(next(), nullptr);
    } else if (arg == "--delay") {
      delay_s = std::strtod(next(), nullptr);
    } else if (arg == "--packets") {
      replay.run.packets_per_batch = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--dwells") {
      replay.run.dwell_count = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      replay.run.seed = std::strtoull(next(), nullptr, 10);
      fault_seed = replay.run.seed + 0x5e21;
    } else if (arg == "--breaker-threshold") {
      serve.breaker.failure_threshold = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--breaker-backoff") {
      serve.breaker.base_backoff_s = std::strtod(next(), nullptr);
      serve.breaker.max_backoff_s =
          std::max(serve.breaker.max_backoff_s, serve.breaker.base_backoff_s);
    } else if (arg == "--retry-budget") {
      serve.query_retry_budget = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--no-lkg") {
      serve.last_known_good_fallback = false;
    } else if (arg == "--incremental") {
      serve.solver_mode = localization::SpSessionMode::kIncremental;
    } else if (arg == "--chaos") {
      chaos.seed = std::strtoull(next(), nullptr, 10);
      chaos_mode = true;
    } else if (arg == "--chaos-events") {
      chaos.events = std::strtoul(next(), nullptr, 10);
      chaos_mode = true;
    } else if (arg == "--wire") {
      use_wire = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--check-perturb") {
      check = true;
      check_perturb = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      Usage(argv[0]);
    }
  }

  if (check && (dropout != 0.0 || loss != 0.0 || delay_rate != 0.0)) {
    std::fprintf(stderr,
                 "error: --check requires fault injection to be off\n");
    return 2;
  }
  if (check && chaos_mode) {
    std::fprintf(stderr, "error: --check requires --chaos to be off\n");
    return 2;
  }
  if (use_wire && chaos_mode) {
    // Chaos corrupts the stream after decoding; the round-trip proof
    // belongs to the fault-free replay.
    std::fprintf(stderr, "error: --wire requires --chaos to be off\n");
    return 2;
  }
  if (check && serve.solver_mode != localization::SpSessionMode::kColdEachSolve) {
    // Warm sessions are equivalent within solver tolerance, not
    // bit-identical; the equivalence suite covers that contract.
    std::fprintf(stderr, "error: --check requires the default solver mode\n");
    return 2;
  }
  if (!(dropout >= 0.0 && dropout <= 1.0)) {
    std::fprintf(stderr, "error: --dropout must be in [0, 1]\n");
    return 1;
  }

  auto scenario = eval::ScenarioByName(scenario_name);
  if (!scenario.ok()) {
    std::fprintf(stderr, "error: %s\n", scenario.status().ToString().c_str());
    return 1;
  }

  auto plan = serving::BuildReplayPlan(*scenario, replay);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  core::NomLocConfig engine_cfg = replay.run.engine;
  engine_cfg.bandwidth_hz = replay.run.channel.bandwidth_hz;
  auto engine =
      core::NomLocEngine::Create(scenario->env.Boundary(), engine_cfg);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  std::printf("scenario=%s objects=%zu epochs=%zu workers=%zu\n",
              scenario_name.c_str(), plan->objects, plan->epoch_count,
              serve.workers);
  // --wire: serve the stream a decoder hands back, not the in-memory one.
  if (use_wire) {
    const std::string encoded = serving::EncodeWireBinary(plan->packets);
    auto decoded = serving::DecodeWireBinary(encoded);
    if (!decoded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   decoded.status().ToString().c_str());
      return 1;
    }
    plan->packets = std::move(*decoded);
    std::printf("wire: binary round-trip, %zu packets in %zu bytes "
                "(%.1f B/packet)\n",
                plan->packets.size(), encoded.size(),
                plan->packets.empty()
                    ? 0.0
                    : double(encoded.size()) / double(plan->packets.size()));
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto report =
      chaos_mode
          ? cluster::RunChaos(*engine, *plan, replay.epoch_interval_s, chaos,
                              serve)
          : cluster::RunChaosSchedule(
                *engine, *plan, replay.epoch_interval_s,
                FaultSchedule(*plan, replay.epoch_interval_s, dropout, loss,
                              delay_rate, delay_s, fault_seed),
                serve);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }

  if (chaos_mode)
    std::printf("chaos: seed=%llu ",
                static_cast<unsigned long long>(chaos.seed));
  std::printf("events=%zu (last clears at %.2f s)\n",
              report->schedule.events.size(),
              report->schedule.last_event_end_s);
  for (const cluster::ChaosEvent& event : report->schedule.events) {
    std::printf("  %-16s ap=%zu  [%.2f, %.2f] s  magnitude=%.3f  "
                "share=%.2f\n",
                std::string(cluster::ChaosKindName(event.kind)).c_str(),
                event.target, event.start_s, event.end_s, event.magnitude,
                event.share);
  }
  using cluster::ChaosKind;
  using serving::AdmitStatus;
  std::printf("injected: %zu dropped, %zu corrupted, %zu delayed, "
              "%zu clock jumps, %zu saturation bursts\n",
              report->Executed(ChaosKind::kAnchorDeath) +
                  report->Executed(ChaosKind::kAnchorFlap),
              report->Executed(ChaosKind::kTraceCorruption),
              report->Executed(ChaosKind::kLateDelivery),
              report->Executed(ChaosKind::kClockJump),
              report->Executed(ChaosKind::kQueueSaturation));
  const std::size_t accepted = report->Admitted(AdmitStatus::kAccepted);
  std::printf("ingest: %zu accepted, %zu corrupt, %zu breaker-open, "
              "%zu queue-full, %zu past deadline\n",
              accepted, report->Admitted(AdmitStatus::kRejectedCorrupt),
              report->Admitted(AdmitStatus::kRejectedBreakerOpen),
              report->Admitted(AdmitStatus::kRejectedQueueFull),
              report->Admitted(AdmitStatus::kRejectedDeadline));

  std::size_t failed = 0, deadline_missed = 0, degraded = 0;
  std::vector<double> errors_m, confidences;
  for (std::size_t i = 0; i < report->outcomes.size(); ++i) {
    const cluster::ChaosOutcome& outcome = report->outcomes[i];
    degraded += report->responses[i].degraded;
    if (outcome.status == serving::ServeStatus::kOk) {
      errors_m.push_back(outcome.error_m);
      confidences.push_back(outcome.confidence);
    } else if (outcome.status == serving::ServeStatus::kRejectedDeadline) {
      ++deadline_missed;
    } else {
      ++failed;
    }
  }
  std::printf("responses: %zu ok, %zu failed, %zu past deadline, "
              "%zu degraded\n",
              errors_m.size(), failed, deadline_missed, degraded);
  std::printf("degradation: none %zu, relaxed %zu, centroid %zu, "
              "last-known-good %zu\n",
              report->degradation_counts[0], report->degradation_counts[1],
              report->degradation_counts[2], report->degradation_counts[3]);
  if (!errors_m.empty()) {
    std::printf("error: mean %.2f m | p50 %.2f m | p90 %.2f m | "
                "mean confidence %.3f\n",
                common::Mean(errors_m), common::Percentile(errors_m, 0.5),
                common::Percentile(errors_m, 0.9),
                common::Mean(confidences));
  }
  if (report->recovery_latency_s >= 0.0)
    std::printf("recovery: full fidelity %.3f s after last fault cleared\n",
                report->recovery_latency_s);
  std::printf("throughput: %.0f packets/s (%zu packets in %.3f s)\n",
              wall_s > 0.0 ? double(accepted) / wall_s : 0.0, accepted,
              wall_s);
  const common::MetricHistogram& latency =
      common::MetricRegistry::Global().Timer("serving.latency").Histogram();
  if (latency.Count() > 0) {
    std::printf("latency: p50 %.3f ms | p95 %.3f ms | p99 %.3f ms\n",
                1e3 * latency.Quantile(0.5), 1e3 * latency.Quantile(0.95),
                1e3 * latency.Quantile(0.99));
  }

  int exit_code = 0;
  std::vector<serving::WireResponse>& responses = report->responses;
  if (check_perturb) {
    // Self-test of the divergence detector: nudge one streamed estimate
    // by one ulp-scale step; the bit-compare below must now fail.
    for (serving::WireResponse& r : responses) {
      if (serving::ServeStatus(r.status) != serving::ServeStatus::kOk)
        continue;
      r.position.x += 1e-9;
      std::printf("check: perturbed object %llu by 1e-9 m\n",
                  static_cast<unsigned long long>(r.object_id));
      break;
    }
  }
  if (check) {
    // Batch twin: the exact anchor sets the plan promised each query.
    std::vector<core::LocateRequest> requests(plan->epochs.size());
    for (std::size_t i = 0; i < plan->epochs.size(); ++i)
      requests[i].anchors = plan->epochs[i].anchors;
    auto batch = (*engine).LocateBatch(requests, serve.workers);
    if (!batch.ok()) {
      std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
      return 1;
    }
    const auto same_bits = [](const auto& a, const auto& b) {
      return std::memcmp(&a, &b, sizeof a) == 0;
    };
    std::size_t compared = 0, mismatched = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const serving::WireResponse& r = responses[i];
      if (serving::ServeStatus(r.status) != serving::ServeStatus::kOk) {
        ++mismatched;  // the batch twin always succeeds
        continue;
      }
      const std::size_t epoch = report->outcomes[i].epoch;
      const std::size_t row = epoch * plan->objects + std::size_t(r.object_id);
      const core::LocationEstimate& want = (*batch)[row].estimate;
      ++compared;
      if (!same_bits(r.position, want.position) ||
          !same_bits(r.relaxation_cost, want.relaxation_cost) ||
          !same_bits(r.feasible_area_m2, want.feasible_area_m2)) {
        ++mismatched;
        std::fprintf(stderr,
                     "check: object %llu epoch %zu: streamed (%.17g, %.17g) "
                     "!= batch (%.17g, %.17g)\n",
                     static_cast<unsigned long long>(r.object_id), epoch,
                     r.position.x, r.position.y, want.position.x,
                     want.position.y);
      }
    }
    if (compared != plan->epochs.size() || mismatched != 0) {
      std::fprintf(stderr,
                   "check: FAILED (%zu of %zu compared, %zu mismatched)\n",
                   compared, plan->epochs.size(), mismatched);
      exit_code = 1;
    } else {
      std::printf("check: %zu streamed estimates bit-identical to "
                  "LocateBatch\n",
                  compared);
    }
  }

  if (metrics) {
    serving::TouchMetrics();
    auto& registry = common::MetricRegistry::Global();
    std::printf("\n%s", registry.DumpText().c_str());
    std::printf("summary: wire bytes in=%llu out=%llu\n",
                static_cast<unsigned long long>(
                    registry.Counter("serving.wire.bytes_in").Value()),
                static_cast<unsigned long long>(
                    registry.Counter("serving.wire.bytes_out").Value()));
  }
  return exit_code;
}

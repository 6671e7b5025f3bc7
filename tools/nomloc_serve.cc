// nomloc_serve — streaming serving-layer driver.
//
//   nomloc_serve [--scenario lab|lobby|office] [--objects N] [--epochs N]
//                [--interval S] [--workers N] [--queue-capacity N]
//                [--deadline S] [--dropout R] [--loss R] [--delay-rate R]
//                [--delay S] [--packets N] [--dwells N] [--seed N]
//                [--breaker-threshold N] [--breaker-backoff S]
//                [--retry-budget N] [--no-lkg] [--incremental]
//                [--chaos SEED] [--chaos-events N] [--wire binary|json]
//                [--check] [--check-perturb] [--metrics]
//
// Replays a measurement campaign (objects x epochs, from the scenario's
// test sites) as a timestamped packet stream through StreamingLocalizer
// and prints admission counts, per-response outcomes, localization error,
// degradation-ladder counts, throughput, and latency percentiles.
//
// --wire binary|json round-trips the whole packet stream through the
// hot-ingest wire codec (serving/wire.h) before replay, so the served
// stream is exactly what a decoder would hand the service.  Combined
// with --check this proves end-to-end that a wire-framed stream is
// bit-identical to the in-memory path — run it with both formats and the
// binary and JSON paths are bit-identical to each other by transitivity.
//
// --check (faults must be off) additionally runs the same anchor sets
// through NomLocEngine::LocateBatch and exits non-zero unless every
// streamed estimate is bit-identical to its batch twin — the serving
// layer's end-to-end equivalence proof.  --check-perturb intentionally
// nudges one streamed estimate before comparing, proving the detector
// trips (the process must exit non-zero).
//
// Fault flags (--dropout / --loss / --delay-rate) exercise graceful
// degradation: dead APs and lost packets shrink the constraint set, the
// solver falls back to the reduced program, and each response carries a
// confidence plus a `degraded` flag; --metrics shows the serving.* series
// (queue depth, shard occupancy, rejections, degradation events).
//
// --incremental switches the per-object solver sessions to
// SpSessionMode::kIncremental (warm constraint deltas instead of a cold
// LP per update — see DESIGN.md "Incremental session solver"); --metrics
// then shows the solver.fastpath / solver.warm_lp hit rates.
//
// Resilience knobs: --breaker-threshold / --breaker-backoff shape the
// per-anchor circuit breakers, --retry-budget re-queues failed queries,
// --no-lkg disables the last-known-good fallback.  --chaos SEED replays
// a seeded data-plane schedule (anchor death/flap, trace corruption, clock
// jumps, queue saturation) on the chaos engine (cluster::RunChaos) instead
// of the plain stream and reports injections, degradation counts, and
// recovery latency.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "common/degradation.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "core/nomloc.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "serving/clock.h"
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
      "          [--chaos SEED] [--chaos-events N] [--wire binary|json]\n"
      "          [--check] [--check-perturb] [--metrics]\n",
      argv0);
  std::exit(2);
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
  bool use_wire = false;
  serving::WireFormat wire_format = serving::WireFormat::kBinary;
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
      serve.faults.ap_dropout_rate = std::strtod(next(), nullptr);
    } else if (arg == "--loss") {
      serve.faults.packet_loss_rate = std::strtod(next(), nullptr);
    } else if (arg == "--delay-rate") {
      serve.faults.delay_rate = std::strtod(next(), nullptr);
    } else if (arg == "--delay") {
      serve.faults.delay_s = std::strtod(next(), nullptr);
    } else if (arg == "--packets") {
      replay.run.packets_per_batch = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--dwells") {
      replay.run.dwell_count = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      replay.run.seed = std::strtoull(next(), nullptr, 10);
      serve.faults.seed = replay.run.seed + 0x5e21;
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
      auto parsed = serving::ParseWireFormatName(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      wire_format = *parsed;
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

  if (check && serve.faults.Enabled()) {
    std::fprintf(stderr,
                 "error: --check requires fault injection to be off\n");
    return 2;
  }
  if (check && chaos_mode) {
    std::fprintf(stderr, "error: --check requires --chaos to be off\n");
    return 2;
  }
  if (use_wire && chaos_mode) {
    // Chaos builds its own corrupted stream; the wire round-trip only
    // makes sense on the plain replay.
    std::fprintf(stderr, "error: --wire requires --chaos to be off\n");
    return 2;
  }
  if (check && serve.solver_mode != localization::SpSessionMode::kColdEachSolve) {
    // Warm sessions are equivalent within solver tolerance, not
    // bit-identical; the equivalence suite covers that contract.
    std::fprintf(stderr, "error: --check requires the default solver mode\n");
    return 2;
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

  if (chaos_mode) {
    auto report = cluster::RunChaos(*engine, *plan, replay.epoch_interval_s,
                                    chaos, serve);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("chaos: seed=%llu events=%zu (last clears at %.2f s)\n",
                static_cast<unsigned long long>(chaos.seed),
                report->schedule.events.size(),
                report->schedule.last_event_end_s);
    for (const cluster::ChaosEvent& event : report->schedule.events) {
      std::printf("  %-16s ap=%zu  [%.2f, %.2f] s  magnitude=%.3f\n",
                  std::string(cluster::ChaosKindName(event.kind)).c_str(),
                  event.target, event.start_s, event.end_s, event.magnitude);
    }
    using cluster::ChaosKind;
    using serving::AdmitStatus;
    std::printf("injected: %zu dropped, %zu corrupted, %zu clock jumps, "
                "%zu saturation bursts\n",
                report->Executed(ChaosKind::kAnchorDeath) +
                    report->Executed(ChaosKind::kAnchorFlap),
                report->Executed(ChaosKind::kTraceCorruption),
                report->Executed(ChaosKind::kClockJump),
                report->Executed(ChaosKind::kQueueSaturation));
    std::printf("ingest: %zu accepted, %zu corrupt, %zu breaker-open, "
                "%zu queue-full\n",
                report->Admitted(AdmitStatus::kAccepted),
                report->Admitted(AdmitStatus::kRejectedCorrupt),
                report->Admitted(AdmitStatus::kRejectedBreakerOpen),
                report->Admitted(AdmitStatus::kRejectedQueueFull));
    std::printf("degradation: none %zu, relaxed %zu, centroid %zu, "
                "last-known-good %zu\n",
                report->degradation_counts[0], report->degradation_counts[1],
                report->degradation_counts[2], report->degradation_counts[3]);
    std::vector<double> errors_m;
    for (const cluster::ChaosOutcome& outcome : report->outcomes)
      if (outcome.status == serving::ServeStatus::kOk)
        errors_m.push_back(outcome.error_m);
    if (!errors_m.empty()) {
      std::printf("error: mean %.2f m | p50 %.2f m | p90 %.2f m "
                  "(%zu of %zu ok)\n",
                  common::Mean(errors_m), common::Percentile(errors_m, 0.5),
                  common::Percentile(errors_m, 0.9), errors_m.size(),
                  report->outcomes.size());
    }
    if (report->recovery_latency_s >= 0.0)
      std::printf("recovery: full fidelity %.3f s after last fault cleared\n",
                  report->recovery_latency_s);
    if (metrics) {
      serving::TouchMetrics();
      std::printf("\n%s", common::MetricRegistry::Global().DumpText().c_str());
    }
    return 0;
  }

  serve.store.anchor_ttl_s = plan->suggested_anchor_ttl_s;
  serve.store.session_idle_ttl_s = 10.0 * replay.epoch_interval_s;
  serve.expected_anchors = plan->expected_anchors;

  serving::ManualClock clock;
  auto service = serving::StreamingLocalizer::Create(*engine, serve, &clock);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }

  // --wire: serve the stream a decoder hands back, not the in-memory one.
  std::vector<serving::IngestPacket> stream = plan->packets;
  if (use_wire) {
    const std::string encoded = serving::EncodeWire(plan->packets,
                                                    wire_format);
    auto decoded = serving::DecodeWire(encoded, wire_format);
    if (!decoded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   decoded.status().ToString().c_str());
      return 1;
    }
    stream = std::move(*decoded);
    std::printf("wire: %s round-trip, %zu packets in %zu bytes "
                "(%.1f B/packet)\n",
                std::string(serving::WireFormatName(wire_format)).c_str(),
                stream.size(), encoded.size(),
                stream.empty() ? 0.0
                               : double(encoded.size()) / double(stream.size()));
  }

  // Replay on the logical timeline.  Flushing at each epoch boundary
  // pins the logical time every query is served at (its own timestamp),
  // which is what makes the no-fault stream reproducible: the session
  // TTL sees exactly the ages the plan promises.
  std::size_t accepted = 0, dropped = 0, rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next_packet = 0;
  for (std::size_t e = 0; e < plan->epoch_count; ++e) {
    const double epoch_end_s = double(e + 1) * replay.epoch_interval_s;
    while (next_packet < stream.size() &&
           stream[next_packet].timestamp_s < epoch_end_s) {
      const serving::IngestPacket& packet = stream[next_packet++];
      clock.Set(packet.timestamp_s);
      switch ((*service)->Ingest(packet)) {
        case serving::AdmitStatus::kAccepted: ++accepted; break;
        case serving::AdmitStatus::kDroppedByFault: ++dropped; break;
        default: ++rejected; break;
      }
    }
    (*service)->Flush();
  }
  (*service)->Shutdown();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  auto responses = (*service)->TakeResponses();
  std::sort(responses.begin(), responses.end(),
            [](const serving::ServeResponse& a,
               const serving::ServeResponse& b) { return a.seq < b.seq; });

  std::size_t ok = 0, failed = 0, deadline_missed = 0, degraded = 0;
  std::size_t ladder[4] = {0, 0, 0, 0};
  std::vector<double> errors_m, latencies_ms, confidences;
  for (const serving::ServeResponse& r : responses) {
    latencies_ms.push_back(1e3 * r.latency_s);
    if (r.degraded) ++degraded;
    if (std::size_t(r.degradation) < 4) ++ladder[std::size_t(r.degradation)];
    if (r.status == serving::ServeStatus::kOk) {
      ++ok;
      confidences.push_back(r.confidence);
      const std::size_t epoch =
          std::size_t(r.timestamp_s / replay.epoch_interval_s);
      const auto& golden =
          plan->epochs[epoch * plan->objects + std::size_t(r.object_id)];
      errors_m.push_back(
          (r.estimate.position - golden.true_position).Norm());
    } else if (r.status == serving::ServeStatus::kRejectedDeadline) {
      ++deadline_missed;
    } else {
      ++failed;
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());

  std::printf("scenario=%s objects=%zu epochs=%zu workers=%zu faults=%s\n",
              scenario_name.c_str(), plan->objects, plan->epoch_count,
              (*service)->WorkerCount(),
              serve.faults.Enabled() ? "on" : "off");
  std::printf("ingest: %zu accepted, %zu dropped by fault, %zu rejected\n",
              accepted, dropped, rejected);
  std::printf("responses: %zu ok, %zu failed, %zu past deadline, "
              "%zu degraded\n",
              ok, failed, deadline_missed, degraded);
  std::printf("degradation: none %zu, relaxed %zu, centroid %zu, "
              "last-known-good %zu\n",
              ladder[0], ladder[1], ladder[2], ladder[3]);
  if (!errors_m.empty()) {
    std::printf("error: mean %.2f m | p50 %.2f m | p90 %.2f m | "
                "mean confidence %.3f\n",
                common::Mean(errors_m), common::Percentile(errors_m, 0.5),
                common::Percentile(errors_m, 0.9),
                common::Mean(confidences));
  }
  std::printf("throughput: %.0f packets/s (%zu packets in %.3f s)\n",
              wall_s > 0.0 ? double(accepted) / wall_s : 0.0, accepted,
              wall_s);
  if (!latencies_ms.empty()) {
    std::printf("latency: p50 %.3f ms | p95 %.3f ms | p99 %.3f ms\n",
                common::Percentile(latencies_ms, 0.5),
                common::Percentile(latencies_ms, 0.95),
                common::Percentile(latencies_ms, 0.99));
  }

  int exit_code = 0;
  if (check_perturb) {
    // Self-test of the divergence detector: nudge one streamed estimate
    // by one ulp-scale step; the bit-compare below must now fail.
    for (serving::ServeResponse& r : responses) {
      if (r.status != serving::ServeStatus::kOk) continue;
      r.estimate.position.x += 1e-9;
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
    std::size_t compared = 0, mismatched = 0;
    for (const serving::ServeResponse& r : responses) {
      if (r.status != serving::ServeStatus::kOk) {
        ++mismatched;  // the batch twin always succeeds
        continue;
      }
      const std::size_t epoch =
          std::size_t(r.timestamp_s / replay.epoch_interval_s);
      const std::size_t row = epoch * plan->objects + std::size_t(r.object_id);
      const core::LocationEstimate& want = (*batch)[row].estimate;
      ++compared;
      if (std::memcmp(&r.estimate.position, &want.position,
                      sizeof(want.position)) != 0 ||
          r.estimate.relaxation_cost != want.relaxation_cost ||
          r.estimate.feasible_area_m2 != want.feasible_area_m2) {
        ++mismatched;
        std::fprintf(stderr,
                     "check: object %llu epoch %zu: streamed (%.17g, %.17g) "
                     "!= batch (%.17g, %.17g)\n",
                     static_cast<unsigned long long>(r.object_id), epoch,
                     r.estimate.position.x, r.estimate.position.y,
                     want.position.x, want.position.y);
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

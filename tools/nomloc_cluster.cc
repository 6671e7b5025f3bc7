// nomloc_cluster — multi-shard serving topology driver.
//
//   nomloc_cluster [--scenario lab|lobby|office] [--objects N] [--epochs N]
//                  [--interval S] [--workers N] [--packets N] [--dwells N]
//                  [--seed N] [--shards N] [--transport loopback|unix|tcp]
//                  [--breaker-threshold N] [--breaker-backoff S]
//                  [--migrate] [--kill] [--replicate] [--kill-primary]
//                  [--wal DIR] [--retry-budget N] [--chaos [SEED]]
//                  [--chaos-events N] [--check] [--metrics]
//
// Replays the same measurement campaign nomloc_serve drives, but through
// a Cluster: N shard hosts (each a StreamingLocalizer behind a byte-stream
// transport speaking the NLW wire format) fronted by the rendezvous-hash
// router.  Every run goes through the chaos engine (cluster/chaos.h) with
// a topology schedule: empty by default, hand-built by --migrate, --kill
// and --kill-primary, or seeded by --chaos.  Prints the shard topology,
// the schedule and what of it executed, admission tallies, localization
// error (also over the tail after the last event clears), throughput, and
// latency percentiles from the serving.latency timer, which every
// in-process localizer records into.
//
// --check runs the engine's golden twin, one unsharded StreamingLocalizer
// fed the accepted packets, and exits non-zero unless every response
// matches its twin bit for bit: status, degradation, degraded flag,
// anchor count, position, relaxation cost, feasible area and confidence.
// The replay stream is globally timestamp-sorted and every epoch is
// self-contained under the anchor TTL, so sharding and live migration
// (--migrate) must not change a single bit.  A kill/checkpoint-restore
// cycle (--kill) keeps every solution bit too, but while the router routes
// around the dead shard, a response from the fallback shard can report
// degraded = false where the unsharded run reports true: its fresh
// session has not counted the keys that aged out earlier.  The 4-object,
// 4-epoch run has no such response; 8 objects x 6 epochs has one, and
// --check fails on it.
//
// --migrate live-migrates shard 0 at the middle epoch boundary (drain,
// filtered checkpoint, restore into a fresh host, atomic flip).  --kill
// checkpoints and kills shard 0 there and restores it one epoch later; in
// between the router routes its objects around the dead shard along their
// rendezvous preference order.
//
// --replicate turns on the standby dual-write path (requires >= 2
// shards).  --kill-primary then crash-kills shard 0 WITHOUT a checkpoint,
// with the middle epoch's first group in flight, so the router fails over
// to the standby; it Recover()s one epoch later (WAL replay when --wal is
// set, then anti-entropy repair).  Under --check the whole episode must
// stay bit-identical to the unsharded golden run: the standby saw every
// accepted observation, so nothing is lost.
//
// --wal DIR makes every shard durable under DIR/shard-N (WAL segments +
// checkpoint files).  --retry-budget N enables router-side write retries
// with exponential backoff + jitter before a typed backpressure reject.
//
// --chaos [SEED] draws a seeded topology schedule instead (kills with
// later restores, migrations, transport stalls).  With --replicate the
// mix switches to the parity-preserving kinds (crash kills + migrations),
// and --check fails the run unless every response is bit-identical.
#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "core/nomloc.h"
#include "eval/runner.h"
#include "eval/scenario.h"
#include "serving/replay.h"
#include "serving/service.h"

using namespace nomloc;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenario lab|lobby|office] [--objects N] [--epochs N]\n"
      "          [--interval S] [--workers N] [--packets N] [--dwells N]\n"
      "          [--seed N] [--shards N] [--transport loopback|unix|tcp]\n"
      "          [--breaker-threshold N] [--breaker-backoff S]\n"
      "          [--migrate] [--kill] [--replicate] [--kill-primary]\n"
      "          [--wal DIR] [--retry-budget N] [--chaos [SEED]]\n"
      "          [--chaos-events N] [--check] [--metrics]\n",
      argv0);
  std::exit(2);
}

std::size_t Total(
    const std::array<std::size_t, cluster::kChaosKindCount>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

void PrintMetricsSummary() {
  auto& registry = common::MetricRegistry::Global();
  std::printf("summary: routed=%llu rerouted=%llu shard_trips=%llu "
              "migrations=%llu\n",
              static_cast<unsigned long long>(
                  registry.Counter("cluster.routed").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.rerouted").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.shard_trips").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.migrations").Value()));
  std::printf("summary: replicated=%llu failovers=%llu recoveries=%llu "
              "stale_epoch=%llu write_retries=%llu\n",
              static_cast<unsigned long long>(
                  registry.Counter("cluster.replicated").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.failovers").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.recoveries").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.placement.stale_epoch").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("cluster.write_retries").Value()));
  std::printf("summary: wire bytes in=%llu out=%llu\n",
              static_cast<unsigned long long>(
                  registry.Counter("serving.wire.bytes_in").Value()),
              static_cast<unsigned long long>(
                  registry.Counter("serving.wire.bytes_out").Value()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name = "lab";
  serving::ReplayConfig replay;
  replay.run.packets_per_batch = 20;
  replay.run.dwell_count = 6;
  cluster::ClusterConfig config;
  cluster::ChaosConfig chaos(cluster::ChaosVocabulary::kTopology);
  bool chaos_mode = false;
  bool migrate = false;
  bool kill = false;
  bool kill_primary = false;
  bool check = false;
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
    } else if (arg == "--workers") {
      config.serving.workers = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--packets") {
      replay.run.packets_per_batch = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--dwells") {
      replay.run.dwell_count = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--seed") {
      replay.run.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--shards") {
      config.shards = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--transport") {
      auto parsed = cluster::ParseTransportKindName(next());
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      config.transport.kind = *parsed;
    } else if (arg == "--breaker-threshold") {
      config.shard_breaker.failure_threshold =
          std::strtoul(next(), nullptr, 10);
    } else if (arg == "--breaker-backoff") {
      config.shard_breaker.base_backoff_s = std::strtod(next(), nullptr);
      config.shard_breaker.max_backoff_s =
          std::max(config.shard_breaker.max_backoff_s,
                   config.shard_breaker.base_backoff_s);
    } else if (arg == "--migrate") {
      migrate = true;
    } else if (arg == "--kill") {
      kill = true;
    } else if (arg == "--replicate") {
      config.replicate = true;
    } else if (arg == "--kill-primary") {
      kill_primary = true;
    } else if (arg == "--wal") {
      config.durable_dir = next();
    } else if (arg == "--retry-budget") {
      config.write_retry_budget = std::strtoul(next(), nullptr, 10);
    } else if (arg == "--chaos") {
      // The seed is optional so `--chaos --check` reads naturally.
      if (i + 1 < argc && std::isdigit(argv[i + 1][0]))
        chaos.seed = std::strtoull(argv[++i], nullptr, 10);
      chaos_mode = true;
    } else if (arg == "--chaos-events") {
      chaos.events = std::strtoul(next(), nullptr, 10);
      chaos_mode = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      Usage(argv[0]);
    }
  }

  if (chaos_mode && (migrate || kill || kill_primary)) {
    std::fprintf(stderr,
                 "error: --chaos schedules its own topology events\n");
    return 2;
  }
  if (kill_primary && !config.replicate) {
    std::fprintf(stderr,
                 "error: --kill-primary needs --replicate (a crash-killed "
                 "shard recovers through its standby)\n");
    return 2;
  }
  if (config.replicate && config.shards < 2) {
    std::fprintf(stderr, "error: --replicate needs at least 2 shards\n");
    return 2;
  }
  if (chaos_mode && config.replicate) {
    // Parity-preserving mix: crash kills + migrations.  A clean kill's
    // Restart(restore) legitimately drops post-checkpoint sessions and a
    // stall's typed rejections are fine but pointless here.
    chaos.Weight(cluster::ChaosKind::kShardKill) = 0.0;
    chaos.Weight(cluster::ChaosKind::kTransportStall) = 0.0;
    double& crash = chaos.Weight(cluster::ChaosKind::kShardKillUnclean);
    if (crash <= 0.0) crash = 3.0;
  }
  if (chaos_mode && check && !config.replicate) {
    std::fprintf(stderr,
                 "error: --chaos --check needs --replicate (bit-parity "
                 "under crash kills is the replication invariant)\n");
    return 2;
  }
  chaos.check_parity = check;

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

  // Hand-built events hit shard 0 at the middle epoch boundary; windows
  // close one epoch later.
  using cluster::ChaosKind;
  cluster::ChaosSchedule schedule;
  const double boundary_s =
      double(plan->epoch_count / 2) * replay.epoch_interval_s;
  const double reopen_s = boundary_s + replay.epoch_interval_s;
  if (migrate)
    schedule.events.push_back({ChaosKind::kShardMigrate, boundary_s,
                               boundary_s});
  if (kill)
    schedule.events.push_back({ChaosKind::kShardKill, boundary_s, reopen_s});
  if (kill_primary)
    schedule.events.push_back({ChaosKind::kShardKillUnclean, boundary_s,
                               reopen_s});
  const std::size_t windows = std::size_t(kill) + std::size_t(kill_primary);

  const auto t0 = std::chrono::steady_clock::now();
  auto report =
      chaos_mode
          ? cluster::RunChaos(*engine, *plan, replay.epoch_interval_s, chaos,
                              config)
          : cluster::RunChaosSchedule(*engine, *plan, replay.epoch_interval_s,
                                      schedule, config, check);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("scenario=%s objects=%zu epochs=%zu shards=%zu transport=%s\n",
              scenario_name.c_str(), plan->objects, plan->epoch_count,
              config.shards,
              std::string(cluster::TransportKindName(config.transport.kind))
                  .c_str());
  if (chaos_mode)
    std::printf("chaos: seed=%llu ",
                static_cast<unsigned long long>(chaos.seed));
  std::printf("events=%zu (last clears at %.2f s)\n",
              report->schedule.events.size(),
              report->schedule.last_event_end_s);
  for (const cluster::ChaosEvent& event : report->schedule.events) {
    std::printf("  %-16s shard=%zu  [%.2f, %.2f] s\n",
                std::string(cluster::ChaosKindName(event.kind)).c_str(),
                event.target, event.start_s, event.end_s);
  }
  std::printf("executed: %zu kills, %zu restores, %zu crash kills, "
              "%zu recoveries, %zu migrations, %zu stall windows\n",
              report->Executed(ChaosKind::kShardKill),
              report->Recovered(ChaosKind::kShardKill),
              report->Executed(ChaosKind::kShardKillUnclean),
              report->Recovered(ChaosKind::kShardKillUnclean),
              report->Executed(ChaosKind::kShardMigrate),
              report->Executed(ChaosKind::kTransportStall));
  const std::size_t accepted =
      report->Admitted(serving::AdmitStatus::kAccepted);
  std::printf("ingest: %zu accepted, %zu backpressure, %zu breaker-open, "
              "%zu past deadline\n",
              accepted,
              report->Admitted(serving::AdmitStatus::kRejectedQueueFull),
              report->Admitted(serving::AdmitStatus::kRejectedBreakerOpen),
              report->Admitted(serving::AdmitStatus::kRejectedDeadline));
  std::vector<double> errors_m;
  for (const cluster::ChaosOutcome& outcome : report->outcomes)
    if (outcome.status == serving::ServeStatus::kOk)
      errors_m.push_back(outcome.error_m);
  std::printf("responses: %zu (%zu ok, accepted queries %zu)\n",
              report->outcomes.size(), errors_m.size(),
              report->accepted_queries);
  if (!errors_m.empty())
    std::printf("error: mean %.2f m | p50 %.2f m | p90 %.2f m\n",
                common::Mean(errors_m), common::Percentile(errors_m, 0.5),
                common::Percentile(errors_m, 0.9));
  if (!report->schedule.events.empty() && report->tail_mean_error_m >= 0.0)
    std::printf("recovery: tail mean error %.2f m\n",
                report->tail_mean_error_m);
  std::printf("throughput: %.0f packets/s (%zu packets in %.3f s)\n",
              wall_s > 0.0 ? double(accepted) / wall_s : 0.0, accepted,
              wall_s);
  const common::MetricHistogram& latency =
      common::MetricRegistry::Global().Timer("serving.latency").Histogram();
  if (latency.Count() > 0)
    std::printf("latency: p50 %.3f ms | p95 %.3f ms | p99 %.3f ms\n",
                1e3 * latency.Quantile(0.5), 1e3 * latency.Quantile(0.95),
                1e3 * latency.Quantile(0.99));

  int exit_code = 0;
  if (!chaos_mode && (Total(report->executed) != schedule.events.size() ||
                      Total(report->recovered) != windows)) {
    std::fprintf(stderr,
                 "error: %zu of %zu scheduled events and %zu of %zu "
                 "recoveries executed\n",
                 Total(report->executed), schedule.events.size(),
                 Total(report->recovered), windows);
    exit_code = 1;
  }
  if (report->parity_checked) {
    if (report->parity_mismatches == 0) {
      const std::size_t executed = Total(report->executed);
      std::printf("check: %zu responses bit-identical to the unsharded "
                  "golden run (under %zu topology event%s)\n",
                  report->parity_compared, executed,
                  executed == 1 ? "" : "s");
    } else {
      std::fprintf(stderr,
                   "check: FAILED (%zu compared, %zu mismatched; first: %s)\n",
                   report->parity_compared, report->parity_mismatches,
                   report->first_mismatch.c_str());
      exit_code = 1;
    }
  }

  if (metrics) {
    serving::TouchMetrics();
    cluster::TouchMetrics();
    std::printf("\n%s", common::MetricRegistry::Global().DumpText().c_str());
    PrintMetricsSummary();
  }
  return exit_code;
}

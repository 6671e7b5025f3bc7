// cluster_hot: a 2-shard loopback cluster with replication and warm
// (incremental) solvers over a 100k-session population that fits in L3.
// Reads sit beside writes, and most of the work is in the router, wire
// codec, transport, dual-write and state transfer, which the other
// workloads never touch.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>

#include "bench.h"
#include "cluster/cluster.h"
#include "serving/clock.h"
#include "serving/loadgen.h"
#include "serving/session_store.h"
#include "serving/wire.h"

namespace perfbench {

namespace {

namespace serving = nomloc::serving;
namespace cluster = nomloc::cluster;

constexpr std::size_t kSessions = 100'000;
constexpr std::size_t kAnchorsPerSession = 3;
constexpr std::size_t kShards = 2;
constexpr double kZipf = 0.99;
constexpr double kQueryFraction = 0.2;
/// Constant offered rate of the paced pass; also the schedule's logical
/// rate, so a logical epoch lasts as long in wall time.  About 25% of the
/// ~200k pkts/s saturation rate measured when the workload was written.
constexpr double kPacedRate = 50'000.0;
/// The cluster is flushed at every logical epoch boundary.  The sender
/// blocks in each flush (a round trip through both shards' threads), so
/// at 10 ms epochs it spent a fifth of its time there and fell behind its
/// schedule whenever the machine slowed down.
constexpr double kEpochS = 0.05;
/// Packets per round (see Rounds); one saturation sample is one round.
constexpr std::size_t kRoundPackets = 20'000;
/// Work per --seconds: saturation rounds, and the paced pass's share of
/// the run (at kPacedRate).  The paced pass only feeds per-layer latency
/// figures, so only a traced run makes it.
/// The rate falls over the first rounds as the sessions' histories grow;
/// with 15 rounds the median still sat on that slope and moved by a
/// third between runs, with 45 by about a tenth.
constexpr double kSaturationRoundsPerSecond = 4.5;
constexpr double kPacedShare = 0.4;
/// State transfer runs on its own smaller cluster: the JSON-based
/// anti-entropy repair copies one session per filtered checkpoint, each a
/// scan of the whole store, so failover and recovery grow with the square
/// of the shard's sessions and take minutes at 100k.
constexpr std::size_t kTopologySessions = 10'000;
constexpr std::size_t kTopologyPackets = 20'000;
/// Observations sent after the unclean kill (they trigger failover).
constexpr std::size_t kTailPackets = 2'000;
constexpr std::size_t kPopulateChunk = 10'000;
/// Constructions per set-up batch (about 350 us each).
constexpr std::size_t kSetupsPerBatch = 75;
/// The sender blocks in each epoch flush, so it runs up to one flush late
/// even when the cluster keeps up; p99 send lag above this makes the paced
/// figures invalid, not slow.
constexpr double kLagToleranceMs = 50.0;
constexpr double kNeverExpire = 1e12;

using ResponseKey = std::pair<std::uint64_t, std::uint64_t>;

ResponseKey KeyOf(std::uint64_t object_id, double timestamp_s) {
  std::uint64_t bits;
  std::memcpy(&bits, &timestamp_s, sizeof bits);
  return {object_id, bits};
}

cluster::ClusterConfig MakeConfig(bool replicate) {
  cluster::ClusterConfig config;
  config.shards = kShards;
  config.replicate = replicate;
  config.serving.workers = 1;
  config.serving.queue_capacity = 1 << 20;
  config.serving.solver_mode =
      nomloc::localization::SpSessionMode::kIncremental;
  config.serving.store.anchor_ttl_s = kNeverExpire;
  config.serving.store.session_idle_ttl_s = kNeverExpire;
  config.serving.expected_anchors = kAnchorsPerSession;
  return config;
}

/// Samples of a saturation pass, flushing at logical epoch boundaries; one
/// rate sample per round.  Traced rounds (every other one when tracing)
/// span each Ingest and Flush call and sum the process's CPU time and the
/// shards' serving.solve time; the flush that ends a round drains every
/// shard, so those cover exactly the round's own work.
struct SaturationResult {
  std::vector<double> pps, fps, untraced_s, traced_s, ingest_s, flush_s;
  double traced_cpu_s = 0.0;
  double traced_solve_s = 0.0;
};

/// Compares cluster responses bit for bit with an unsharded golden run of
/// the same stream; returns mismatched, missing and duplicate responses.
std::size_t GoldenMismatches(
    const std::vector<cluster::ClusterResponse>& responses,
    std::vector<serving::ServeResponse> golden) {
  std::map<ResponseKey, serving::ServeResponse> want;
  for (auto& r : golden) want[KeyOf(r.object_id, r.timestamp_s)] = std::move(r);
  std::map<ResponseKey, std::size_t> seen;
  std::size_t mismatched = 0;
  for (const cluster::ClusterResponse& received : responses) {
    const serving::WireResponse& r = received.response;
    const ResponseKey key = KeyOf(r.object_id, r.timestamp_s);
    const auto it = want.find(key);
    if (++seen[key] > 1 || it == want.end()) {
      ++mismatched;
      continue;
    }
    const serving::ServeResponse& w = it->second;
    mismatched += r.status != static_cast<std::uint8_t>(w.status) ||
                  !BitsEqual(r.position.x, w.estimate.position.x) ||
                  !BitsEqual(r.position.y, w.estimate.position.y) ||
                  !BitsEqual(r.relaxation_cost, w.estimate.relaxation_cost) ||
                  !BitsEqual(r.feasible_area_m2, w.estimate.feasible_area_m2) ||
                  !BitsEqual(r.confidence, w.confidence);
  }
  return mismatched + (want.size() - std::min(want.size(), seen.size()));
}

/// Runs `stream` through an unsharded localizer with `config`.
std::unique_ptr<serving::StreamingLocalizer> Golden(
    const nomloc::core::NomLocEngine& engine,
    const serving::ServingConfig& config,
    const std::vector<const serving::IngestPacket*>& stream) {
  serving::ManualClock clock;
  auto golden = serving::StreamingLocalizer::Create(engine, config, &clock);
  if (!golden.ok()) throw std::runtime_error(golden.status().ToString());
  // Flushed in chunks: a traced run's stream outgrows the ingest queue.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    clock.Set(stream[i]->timestamp_s);
    if ((*golden)->Ingest(*stream[i]) != serving::AdmitStatus::kAccepted)
      throw std::runtime_error("cluster_hot: the golden run rejected a packet");
    if ((i + 1) % kPopulateChunk == 0) (*golden)->Flush();
  }
  (*golden)->Flush();
  (*golden)->Shutdown();
  return std::move(*golden);
}

struct Topology {
  double migrate_ms = 0.0;
  double failover_ms = 0.0;
  double recover_ms = 0.0;
};

/// An unclean kill of shard 0 whose failover the next packets trigger,
/// recovery, then one live migration per shard, on a small replicated
/// cluster.  Checks zero accepted loss and bit parity with the unsharded
/// golden run throughout.  (Migrating first would drop the migrated
/// host's warm-standby copies, so the kill would lose sessions.)
Topology RunTopology(const nomloc::core::NomLocEngine& engine,
                     std::uint64_t seed, Outcome& out) {
  serving::LoadGenConfig load;
  load.objects = kTopologySessions;
  load.anchors_per_object = kAnchorsPerSession;
  load.packets = kTopologyPackets + kTailPackets;
  load.rate_per_s = kPacedRate;
  load.zipf_s = kZipf;
  load.query_fraction = kQueryFraction;
  load.seed = seed;
  const serving::LoadSchedule schedule = serving::BuildLoadSchedule(load);
  std::vector<const serving::IngestPacket*> stream;
  for (const auto& p : schedule.populate) stream.push_back(&p);
  for (std::size_t i = 0; i < kTopologyPackets; ++i)
    stream.push_back(&schedule.steady[i].packet);
  const std::size_t before_kill = stream.size();
  for (std::size_t i = kTopologyPackets; i < schedule.steady.size(); ++i)
    if (schedule.steady[i].packet.kind == serving::PacketKind::kObservation)
      stream.push_back(&schedule.steady[i].packet);

  auto created = cluster::Cluster::Create(engine, MakeConfig(true));
  if (!created.ok()) throw std::runtime_error(created.status().ToString());
  cluster::Cluster& c = **created;
  const CounterDelta failovers("cluster.failovers");
  std::size_t rejected = 0;
  double epoch_end = kEpochS;
  for (std::size_t i = 0; i < before_kill; ++i) {
    if (stream[i]->timestamp_s >= epoch_end) {
      c.Flush();
      while (stream[i]->timestamp_s >= epoch_end) epoch_end += kEpochS;
    }
    rejected += c.Ingest(*stream[i]) != serving::AdmitStatus::kAccepted;
  }
  c.Flush();

  Topology t;
  c.Kill(0, /*unclean=*/true);
  for (std::size_t i = before_kill; i < stream.size(); ++i) {
    const CounterDelta failover("cluster.failovers");
    const auto t0 = Clock::now();
    rejected += c.Ingest(*stream[i]) != serving::AdmitStatus::kAccepted;
    if (failover.Delta() > 0)
      t.failover_ms = 1e3 * SecondsBetween(t0, Clock::now());
  }
  c.Flush();
  const auto r0 = Clock::now();
  out.Check(c.Recover(0).ok(), "cluster_hot: Recover(0) failed");
  t.recover_ms = 1e3 * SecondsBetween(r0, Clock::now());
  std::vector<double> migrate_ms;
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto m0 = Clock::now();
    out.Check(c.Migrate(s).ok(),
              "cluster_hot: Migrate(" + std::to_string(s) + ") failed");
    migrate_ms.push_back(1e3 * SecondsBetween(m0, Clock::now()));
  }
  t.migrate_ms = Median(migrate_ms);
  c.Flush();
  const std::vector<cluster::ClusterResponse> responses = c.TakeResponses();
  std::size_t sessions = 0;
  for (std::size_t s = 0; s < kShards; ++s)
    sessions += c.StoreOf(s)->SessionCount();
  c.Shutdown();

  const auto golden = Golden(engine, MakeConfig(true).serving, stream);
  out.Check(rejected == 0, "cluster_hot: " + std::to_string(rejected) +
                               " packets rejected around the kill");
  out.Check(failovers.Delta() == 1.0,
            "cluster_hot: expected one failover, saw " +
                std::to_string(failovers.Delta()));
  out.Check(sessions == golden->Store().SessionCount(),
            "cluster_hot: " + std::to_string(sessions) +
                " sessions after kill, failover, recovery and migration; "
                "golden run has " +
                std::to_string(golden->Store().SessionCount()));
  const std::size_t mismatched =
      GoldenMismatches(responses, golden->TakeResponses());
  out.Check(mismatched == 0, "cluster_hot: " + std::to_string(mismatched) +
                                 " responses around the kill differ from "
                                 "the unsharded golden run");
  return t;
}

}  // namespace

Outcome RunClusterHot(const Options& options) {
  Outcome out;
  const std::size_t saturation_rounds = std::max<std::size_t>(
      2, std::size_t(kSaturationRoundsPerSecond * options.seconds));
  const std::size_t paced_rounds =
      !options.trace ? 0
                     : std::max<std::size_t>(
                           1, std::size_t(kPacedRate * kPacedShare *
                                          options.seconds /
                                          double(kRoundPackets)));
  const std::size_t saturation_packets = saturation_rounds * kRoundPackets;
  const std::size_t paced_packets = paced_rounds * kRoundPackets;
  out.Param("sessions", kSessions);
  out.Param("shards", kShards);
  out.Param("replicate", "true");
  out.Param("transport", "loopback");
  out.Param("workers_per_host", 1);
  out.Param("solver", "incremental");
  out.Param("zipf_s", kZipf);
  out.Param("query_fraction", kQueryFraction);
  out.Param("epoch_s", kEpochS);
  out.Param("round_packets", kRoundPackets);
  out.Param("hot_set_rotations", Rounds::kRotations);
  out.Param("saturation_rounds", saturation_rounds);
  out.Param("paced_rate_pps", kPacedRate);
  out.Param("paced_rounds", paced_rounds);
  out.Param("probe_fixes", kAccuracyTrials * 10);

  auto make_cluster = [](const Lab& lab) {
    auto created = cluster::Cluster::Create(*lab.engine, MakeConfig(true));
    if (!created.ok()) throw std::runtime_error(created.status().ToString());
    return std::move(*created);
  };
  // The cluster refers to the lab's engine, so it is destroyed first.
  const double setup_s = SetupSeconds(kSetupsPerBatch, [&] {
    auto lab = std::make_unique<Lab>(MakeLab(options.seed));
    auto cluster = make_cluster(*lab);
    return std::make_pair(std::move(lab), std::move(cluster));
  });
  if (options.setup_only) {
    out.attempted = 1;
    out.Set("setup_s", setup_s);
    return out;
  }

  serving::LoadGenConfig load;
  load.objects = kSessions;
  load.anchors_per_object = kAnchorsPerSession;
  load.packets = kRoundPackets;
  load.rate_per_s = kPacedRate;
  load.zipf_s = kZipf;
  load.query_fraction = kQueryFraction;
  load.seed = options.seed;
  const serving::LoadSchedule schedule = serving::BuildLoadSchedule(load);
  const Rounds rounds(schedule, kSessions);
  std::vector<serving::ScheduledPacket> rotated;
  for (std::size_t r = 0; r < saturation_rounds + paced_rounds; ++r)
    for (std::size_t i = 0; i < rounds.Size(); ++i)
      rotated.push_back({rounds.Offset(r, i), rounds.Packet(r, i)});
  const std::span<const serving::ScheduledPacket> steady(rotated);
  const auto saturation = steady.subspan(0, saturation_packets);
  const auto paced = steady.subspan(saturation_packets, paced_packets);

  const Lab lab = MakeLab(options.seed);
  std::unique_ptr<cluster::Cluster> hot = make_cluster(lab);
  const std::vector<LabFix> fixes =
      MeasureLabFixes(lab, kAccuracyTrials, 2);
  const std::vector<serving::IngestPacket> probes =
      ProbePackets(fixes, kSessions, 0.0);

  const CounterDelta rerouted("cluster.rerouted");
  const CounterDelta trips("cluster.shard_trips");
  const CounterDelta fastpath("solver.fastpath_hits");
  const CounterDelta warm("solver.warm_hits");
  auto& locate_timer = nomloc::common::MetricRegistry::Global().Timer(
      "engine.locate");
  auto& wait_timer = nomloc::common::MetricRegistry::Global().Timer(
      "serving.queue.wait");
  auto& solve_timer = nomloc::common::MetricRegistry::Global().Timer(
      "serving.solve");
  locate_timer.Reset();
  wait_timer.Reset();

  std::uint64_t attempted = 0, rejected = 0, accepted_queries = 0;
  auto ingest = [&](cluster::Cluster& c, const serving::IngestPacket& p) {
    ++attempted;
    if (c.Ingest(p) != serving::AdmitStatus::kAccepted) {
      ++rejected;
      return;
    }
    accepted_queries += p.kind == serving::PacketKind::kQuery;
  };
  std::vector<cluster::ClusterResponse> responses;

  // Populate + probes, then saturation; shared with the replicate=false
  // comparison of a traced run.
  auto populate = [&](cluster::Cluster& c) {
    for (std::size_t i = 0; i < schedule.populate.size(); ++i) {
      ingest(c, schedule.populate[i]);
      if ((i + 1) % kPopulateChunk == 0) c.Flush();
    }
    for (const auto& p : probes) ingest(c, p);
    c.Flush();
  };
  auto saturate = [&](cluster::Cluster& c, bool trace,
                      std::vector<cluster::ClusterResponse>* keep) {
    SaturationResult r;
    double epoch_end = kEpochS;
    for (std::size_t begin = 0, round = 0; begin < saturation.size();
         begin += kRoundPackets, ++round) {
      const std::size_t end = begin + kRoundPackets;
      const bool traced = trace && round % 2 == 1;
      const double cpu0 = traced ? ProcessCpuSeconds() : 0.0;
      const double solve0 = traced ? solve_timer.TotalSeconds() : 0.0;
      const auto t0 = Clock::now();
      for (std::size_t i = begin; i < end; ++i) {
        const serving::IngestPacket& p = saturation[i].packet;
        if (p.timestamp_s >= epoch_end) {
          const auto f0 = Clock::now();
          c.Flush();
          if (traced) r.flush_s.push_back(SecondsBetween(f0, Clock::now()));
          while (p.timestamp_s >= epoch_end) epoch_end += kEpochS;
        }
        if (traced) {
          const auto s0 = Clock::now();
          ingest(c, p);
          r.ingest_s.push_back(SecondsBetween(s0, Clock::now()));
        } else {
          ingest(c, p);
        }
      }
      const auto f0 = Clock::now();
      c.Flush();
      const auto t1 = Clock::now();
      const double round_s = SecondsBetween(t0, t1);
      auto answered = c.TakeResponses();
      if (traced) {
        r.traced_cpu_s += ProcessCpuSeconds() - cpu0;
        r.traced_solve_s += solve_timer.TotalSeconds() - solve0;
        r.flush_s.push_back(SecondsBetween(f0, t1));
        r.traced_s.push_back(round_s);
      } else {
        r.untraced_s.push_back(round_s);
        r.pps.push_back(double(kRoundPackets) / round_s);
        r.fps.push_back(double(answered.size()) / round_s);
      }
      if (keep != nullptr)
        keep->insert(keep->end(), answered.begin(), answered.end());
    }
    return r;
  };

  populate(*hot);
  responses = hot->TakeResponses();
  const SaturationResult sat = saturate(*hot, options.trace, &responses);

  // Paced pass (traced runs): latency runs from each query's scheduled send
  // to its arrival at the router (responses cross back at each epoch
  // flush).
  std::map<ResponseKey, Clock::time_point> due_of;
  std::vector<double> lag_ms;
  const auto paced_start = Clock::now();
  const double first_offset = paced.empty() ? 0.0 : paced[0].send_offset_s;
  double epoch_end =
      paced.empty() ? 0.0 : paced[0].packet.timestamp_s + kEpochS;
  std::vector<cluster::ClusterResponse> paced_responses;
  for (const serving::ScheduledPacket& scheduled : paced) {
    const serving::IngestPacket& p = scheduled.packet;
    if (p.timestamp_s >= epoch_end) {
      hot->Flush();
      while (p.timestamp_s >= epoch_end) epoch_end += kEpochS;
    }
    const auto due =
        paced_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              scheduled.send_offset_s - first_offset));
    WaitUntil(due);
    lag_ms.push_back(1e3 * SecondsBetween(due, Clock::now()));
    if (p.kind == serving::PacketKind::kQuery)
      due_of[KeyOf(p.object_id, p.timestamp_s)] = due;
    ingest(*hot, p);
  }
  hot->Flush();
  paced_responses = hot->TakeResponses();
  responses.insert(responses.end(), paced_responses.begin(),
                   paced_responses.end());
  const double traffic_queries = double(accepted_queries);
  const double locate_p50_us = 1e6 * locate_timer.Histogram().Quantile(0.5);
  const double locate_p99_us = 1e6 * locate_timer.Histogram().Quantile(0.99);
  const double wait_p50_ms = 1e3 * wait_timer.Histogram().Quantile(0.5);
  const double wait_p99_ms = 1e3 * wait_timer.Histogram().Quantile(0.99);
  const double fastpath_hits = fastpath.Delta(), warm_hits = warm.Delta();

  // Footprint and state transfer, before the topology changes.
  std::size_t live_bytes = 0, resident_bytes = 0, sessions = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    const serving::MemoryStats m = hot->StoreOf(s)->Memory();
    live_bytes += m.live_bytes;
    resident_bytes += m.resident_bytes;
    sessions += m.sessions;
  }
  double checkpoint_ms = 0.0, checkpoint_bytes = 0.0, restore_ms = 0.0;
  if (options.trace) {
    const auto t0 = Clock::now();
    const nomloc::common::Json dump = hot->StoreOf(0)->CheckpointJson();
    const auto t1 = Clock::now();
    checkpoint_bytes = double(dump.Dump().size());
    serving::SessionStore restored(MakeConfig(true).serving.store);
    const auto t2 = Clock::now();
    const auto merged = restored.MergeFromJson(dump);
    restore_ms = 1e3 * SecondsBetween(t2, Clock::now());
    checkpoint_ms = 1e3 * SecondsBetween(t0, t1);
    out.Check(merged.ok(), "cluster_hot: checkpoint did not restore");
  }

  // Peak memory of the system under test, before the checks add their own.
  const double rss_peak_mb = PeakRssMb();
  hot.reset();
  const Topology topology = RunTopology(*lab.engine, options.seed, out);

  // A traced run repeats populate + saturation with replicate = false.
  double replicate_overhead = 0.0;
  if (options.trace) {
    auto plain = cluster::Cluster::Create(*lab.engine, MakeConfig(false));
    if (!plain.ok()) throw std::runtime_error(plain.status().ToString());
    const std::uint64_t a = attempted, r = rejected, q = accepted_queries;
    populate(**plain);
    (void)(*plain)->TakeResponses();
    const SaturationResult base = saturate(**plain, false, nullptr);
    (*plain)->Shutdown();
    attempted = a, rejected = r, accepted_queries = q;
    replicate_overhead = 1.0 - Ratio(Median(sat.pps), Median(base.pps));
  }

  // --- Output checks (untimed) ---
  switch (options.corrupt) {
    case Corruption::kNone: break;
    case Corruption::kDrop: responses.pop_back(); break;
    case Corruption::kFlip:
      responses.back().response.position.x =
          FlipLowBit(responses.back().response.position.x);
      break;
    case Corruption::kCount: responses.push_back(responses.back()); break;
  }
  out.Check(rejected == 0,
            "cluster_hot: " + std::to_string(rejected) + " packets rejected");
  out.Check(responses.size() == accepted_queries,
            "cluster_hot: " + std::to_string(responses.size()) +
                " responses for " + std::to_string(accepted_queries) +
                " accepted queries");

  // Golden twin: the identical stream through one unsharded localizer.
  std::vector<const serving::IngestPacket*> stream;
  for (const auto& p : schedule.populate) stream.push_back(&p);
  for (const auto& p : probes) stream.push_back(&p);
  for (const auto& s : steady) stream.push_back(&s.packet);
  const auto golden = Golden(*lab.engine, MakeConfig(true).serving, stream);
  out.Check(sessions == golden->Store().SessionCount(),
            "cluster_hot: " + std::to_string(sessions) +
                " sessions in the cluster, golden run has " +
                std::to_string(golden->Store().SessionCount()));
  const std::size_t mismatched =
      GoldenMismatches(responses, golden->TakeResponses());
  out.Check(mismatched == 0, "cluster_hot: " + std::to_string(mismatched) +
                                 " responses differ from the unsharded "
                                 "golden run");
  std::size_t not_ok = 0;
  double degraded = 0.0, fallbacks = 0.0;
  std::vector<nomloc::geometry::Vec2> probe_estimates(fixes.size());
  for (const cluster::ClusterResponse& received : responses) {
    const serving::WireResponse& r = received.response;
    not_ok += r.status != static_cast<std::uint8_t>(serving::ServeStatus::kOk);
    degraded += r.degraded;
    fallbacks += r.degradation != 0;
    if (r.object_id >= kSessions && r.object_id - kSessions < fixes.size())
      probe_estimates[r.object_id - kSessions] = r.position;
  }
  out.Check(not_ok == 0, "cluster_hot: " + std::to_string(not_ok) +
                             " queries not answered ok");
  const LagReport lag = SummarizeLag(lag_ms, kLagToleranceMs);
  if (!lag.valid)
    std::fprintf(stderr,
                 "cluster_hot: p99 send lag %g ms exceeds the %g ms pacing "
                 "tolerance; paced latency figures are invalid\n",
                 lag.p99_ms, kLagToleranceMs);

  std::map<std::size_t, std::vector<double>> latency_ms;
  for (const cluster::ClusterResponse& received : paced_responses) {
    const serving::WireResponse& r = received.response;
    const auto it = due_of.find(KeyOf(r.object_id, r.timestamp_s));
    if (it != due_of.end())
      latency_ms[rounds.RoundOf(r.timestamp_s)].push_back(
          1e3 * SecondsBetween(it->second, received.received_wall));
  }

  out.attempted = attempted;
  out.failed = rejected + not_ok;
  if (!options.trace) {
    const Accuracy acc = AccuracyOf(fixes, probe_estimates,
                                    lab.scenario.test_sites.size());
    out.Set("setup_s", setup_s);
    out.Set("rss_peak_mb", rss_peak_mb);
    out.Set("fixes_per_s", Median(sat.fps));
    out.Set("ingest_pps", Median(sat.pps));
    out.Set("error_median_m", acc.median_m);
    out.Set("error_p90_m", acc.p90_m);
    out.Set("slv_m2", acc.slv_m2);
    return out;
  }

  // Wire codec over the saturation slice, timed from outside the cluster.
  std::string bytes = serving::WireHeader();
  const auto e0 = Clock::now();
  for (const auto& s : saturation) serving::AppendWireFrame(s.packet, bytes);
  const double encode_s = SecondsBetween(e0, Clock::now());
  serving::WireDecoder decoder;
  const auto d0 = Clock::now();
  const auto fed = decoder.Feed(bytes);
  const std::size_t decoded = decoder.TakePackets().size();
  const double decode_s = SecondsBetween(d0, Clock::now());
  out.Check(fed.ok() && decoded == saturation.size(),
            "cluster_hot: wire round trip lost packets");
  const double n = double(saturation.size());

  double ingest_total_s = 0.0;
  for (double s : sat.ingest_s) ingest_total_s += s;
  out.Set("failed_frac", Ratio(double(out.failed), double(attempted)));
  out.Set("query_p50_ms", RoundQuantile(latency_ms, 0.5));
  out.Set("query_p90_ms", RoundQuantile(latency_ms, 0.9));
  out.Set("query_p99_ms", RoundQuantile(latency_ms, 0.99));
  out.Set("bytes_per_session", Ratio(double(live_bytes), double(sessions)));
  out.Set("migrate_ms", topology.migrate_ms);
  out.Set("failover_ms", topology.failover_ms);
  out.Set("recover_ms", topology.recover_ms);
  out.Set("core.locate_us.p50", locate_p50_us);
  out.Set("core.locate_us.p99", locate_p99_us);
  out.Set("localization.fallback_frac", Ratio(fallbacks, traffic_queries));
  out.Set("localization.fastpath_ratio", Ratio(fastpath_hits, traffic_queries));
  out.Set("localization.warm_ratio", Ratio(warm_hits, traffic_queries));
  out.Set("serving.queue_wait_ms.p50", wait_p50_ms);
  out.Set("serving.queue_wait_ms.p99", wait_p99_ms);
  out.Set("serving.rejected_frac", Ratio(double(rejected), double(attempted)));
  out.Set("serving.degraded_frac", Ratio(degraded, double(responses.size())));
  out.Set("session_store.live_bytes", double(live_bytes));
  out.Set("session_store.resident_bytes", double(resident_bytes));
  out.Set("session_store.checkpoint_ms", checkpoint_ms);
  out.Set("session_store.checkpoint_bytes", checkpoint_bytes);
  out.Set("session_store.restore_ms", restore_ms);
  out.Set("wire.encode_ns_per_pkt", 1e9 * encode_s / n);
  out.Set("wire.decode_ns_per_pkt", 1e9 * decode_s / n);
  out.Set("wire.bytes_per_pkt", double(bytes.size()) / n);
  out.Set("cluster.ingest_us.p50", 1e6 * Quantile(sat.ingest_s, 0.5));
  out.Set("cluster.ingest_us.p99", 1e6 * Quantile(sat.ingest_s, 0.99));
  out.Set("cluster.flush_ms.p50", 1e3 * Quantile(sat.flush_s, 0.5));
  out.Set("cluster.flush_ms.p99", 1e3 * Quantile(sat.flush_s, 0.99));
  out.Set("cluster.replicate_overhead_frac", replicate_overhead);
  out.Set("cluster.rerouted", rerouted.Delta());
  out.Set("cluster.shard_trips", trips.Delta());
  out.Set("loadgen.send_lag_p50_ms", lag.p50_ms);
  out.Set("loadgen.send_lag_p99_ms", lag.p99_ms);
  out.Set("loadgen.pacing_valid", lag.valid ? 1.0 : 0.0);
  out.Set("trace.overhead_frac",
          Ratio(Median(sat.traced_s), Median(sat.untraced_s)) - 1.0);
  // Layer self times of the traced rounds: router, wire encode and
  // transport write (the sender's Cluster::Ingest spans) and snapshot +
  // solve (the shards' existing serving.solve timer).  Wire decode,
  // dual-write apply and Upsert on the shard hosts have no timer yet.
  out.Set("trace.unattributed_frac",
          1.0 - Ratio(ingest_total_s + sat.traced_solve_s, sat.traced_cpu_s));
  return out;
}

}  // namespace perfbench

// serve_1m: one in-process StreamingLocalizer (1 worker, cold solver)
// holding a million sessions.  The stream is write-heavy: SessionStore
// upserts and the ingest queue do most of the work over several hundred
// MB of live state, while wire and cluster are bypassed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "bench.h"
#include "serving/clock.h"
#include "serving/session_store.h"

namespace perfbench {

namespace {

namespace serving = nomloc::serving;

constexpr std::size_t kSessions = 1'000'000;
constexpr std::size_t kAnchorsPerSession = 3;
constexpr double kZipf = 0.99;
constexpr double kQueryFraction = 0.02;
/// Constant offered rate of the paced pass; also the logical-time rate of
/// the schedule, so logical seconds equal wall seconds while pacing.
constexpr double kPacedRate = 50'000.0;
/// Packets per round (see Rounds); one saturation sample is one round of
/// ingest + flush.
constexpr std::size_t kRoundPackets = 50'000;
/// Work per --seconds: saturation rounds, and the paced pass's share of
/// the run (at kPacedRate).  The paced pass only feeds per-layer latency
/// figures, so only a traced run makes it.
constexpr double kSaturationRoundsPerSecond = 4.0;
constexpr double kPacedShare = 0.6;
constexpr std::size_t kPopulateChunk = 100'000;
/// Constructions per set-up batch (about 30 ms each in a fresh process).
constexpr std::size_t kSetupsPerBatch = 2;
/// p99 generator lag above this makes the paced figures invalid, not
/// slow.  The sender pays a futex wake per Ingest; at 100k pkts/s that
/// left it too little headroom to catch up after a host stall.
constexpr double kLagToleranceMs = 10.0;
/// TTLs that outlast any stream this workload builds: responses then
/// depend only on the stream, never on when a worker ran.
constexpr double kNeverExpire = 1e12;

/// Order-sensitive 64-bit FNV-1a over raw bit patterns.
class Digest {
 public:
  template <class T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) state_ = (state_ ^ b) * 0x100000001b3ull;
  }
  std::uint64_t Value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// The fields a served fix is compared on, in a fixed order.
void AddFix(Digest& digest, std::uint64_t object_id, double timestamp_s,
            int status, const nomloc::core::LocationEstimate& estimate,
            std::size_t anchors) {
  digest.Add(object_id);
  digest.Add(timestamp_s);
  digest.Add(status);
  digest.Add(estimate.position.x);
  digest.Add(estimate.position.y);
  digest.Add(estimate.relaxation_cost);
  digest.Add(estimate.feasible_area_m2);
  digest.Add(anchors);
}

/// Per-call spans of the direct store replay [s].
struct ReplaySpans {
  std::vector<double> upsert_s, snapshot_s, sweep_s, locate_s;
  double lp_iterations = 0.0;
  double fallbacks = 0.0;
};

/// Replays the stream straight into a SessionStore and the engine, the
/// way the service's worker applies it, and digests every query's fix.
/// Upserts are sampled 1 in 8 when tracing.
std::uint64_t DirectReplay(const serving::SessionStoreConfig& config,
                           const nomloc::core::NomLocEngine& engine,
                           const serving::LoadSchedule& schedule,
                           const std::vector<serving::IngestPacket>& probes,
                           const Rounds& rounds, std::size_t round_count,
                           bool trace, ReplaySpans& spans) {
  serving::SessionStore store(config);
  Digest digest;
  std::size_t n = 0;
  auto apply = [&](const serving::IngestPacket& p) {
    const double now_s = p.timestamp_s;
    if (p.kind == serving::PacketKind::kObservation) {
      const bool sample = trace && (n++ % 8 == 0);
      const auto t0 = sample ? Clock::now() : Clock::time_point{};
      store.Upsert(p.object_id, serving::AnchorKey{p.ap_id, p.site_index},
                   p.reported_position, p.is_nomadic,
                   serving::PdpObservation{p.pdp, p.weight, p.timestamp_s},
                   now_s);
      if (sample) spans.upsert_s.push_back(SecondsBetween(t0, Clock::now()));
      return;
    }
    const auto t0 = trace ? Clock::now() : Clock::time_point{};
    auto snapshot = store.Snapshot(p.object_id, now_s);
    const auto t1 = trace ? Clock::now() : Clock::time_point{};
    nomloc::core::LocationEstimate estimate;
    int status = int(serving::ServeStatus::kFailed);
    const std::size_t anchors = snapshot.ok() ? snapshot->anchors.size() : 0;
    if (anchors >= 2) {
      nomloc::core::LocateRequest request;
      request.anchors = snapshot->anchors;
      auto located = engine.Locate(request);
      if (located.ok()) {
        status = int(serving::ServeStatus::kOk);
        estimate = std::move(located->estimate);
        spans.lp_iterations += double(located->lp_iterations);
        spans.fallbacks +=
            located->degradation != nomloc::common::DegradationLevel::kNone;
        store.RecordEstimate(
            p.object_id, serving::LastKnownGood{estimate.position, 0.0, now_s},
            now_s);
      }
    }
    const auto t2 = trace ? Clock::now() : Clock::time_point{};
    store.SweepStep(store.ShardOf(p.object_id), now_s, 64);
    if (trace) {
      const auto t3 = Clock::now();
      spans.snapshot_s.push_back(SecondsBetween(t0, t1));
      spans.locate_s.push_back(SecondsBetween(t1, t2));
      spans.sweep_s.push_back(SecondsBetween(t2, t3));
    }
    AddFix(digest, p.object_id, p.timestamp_s, status, estimate, anchors);
  };
  for (const serving::IngestPacket& p : schedule.populate) apply(p);
  for (const serving::IngestPacket& p : probes) apply(p);
  for (std::size_t r = 0; r < round_count; ++r)
    for (std::size_t i = 0; i < rounds.Size(); ++i) apply(rounds.Packet(r, i));
  return digest.Value();
}

}  // namespace

Outcome RunServe1m(const Options& options) {
  Outcome out;
  const std::size_t saturation_rounds = std::max<std::size_t>(
      2, std::size_t(kSaturationRoundsPerSecond * options.seconds));
  const std::size_t paced_rounds =
      !options.trace ? 0
                     : std::max<std::size_t>(
                           1, std::size_t(kPacedRate * kPacedShare *
                                          options.seconds /
                                          double(kRoundPackets)));
  const std::size_t round_count = saturation_rounds + paced_rounds;
  out.Param("sessions", kSessions);
  out.Param("anchors_per_session", kAnchorsPerSession);
  out.Param("zipf_s", kZipf);
  out.Param("query_fraction", kQueryFraction);
  out.Param("arrival", "poisson");
  out.Param("workers", 1);
  out.Param("solver", "cold");
  out.Param("round_packets", kRoundPackets);
  out.Param("hot_set_rotations", Rounds::kRotations);
  out.Param("saturation_rounds", saturation_rounds);
  out.Param("paced_rate_pps", kPacedRate);
  out.Param("paced_rounds", paced_rounds);
  out.Param("probe_fixes", kAccuracyTrials * 10);

  serving::ServingConfig config;
  config.workers = 1;
  config.queue_capacity = kPopulateChunk + 1;
  config.store.shards = 64;
  config.store.anchor_ttl_s = kNeverExpire;
  config.store.session_idle_ttl_s = kNeverExpire;
  config.store.reserve_sessions = kSessions + kAccuracyTrials * 10;
  config.store.reserve_anchors = kSessions * kAnchorsPerSession;
  // Populate sends one observation per session and anchor.
  config.store.reserve_observations =
      kSessions * kAnchorsPerSession + round_count * kRoundPackets;
  config.expected_anchors = kAnchorsPerSession;

  // Set-up: the lab engine plus a service pre-sized for the population.
  serving::ManualClock clock;
  auto make_service = [&](const Lab& lab) {
    auto created =
        serving::StreamingLocalizer::Create(*lab.engine, config, &clock);
    if (!created.ok()) throw std::runtime_error(created.status().ToString());
    return std::move(*created);
  };
  // The service refers to the lab's engine, so it is destroyed first.
  const double setup_s = SetupSeconds(kSetupsPerBatch, [&] {
    auto lab = std::make_unique<Lab>(MakeLab(options.seed));
    auto service = make_service(*lab);
    return std::make_pair(std::move(lab), std::move(service));
  });
  if (options.setup_only) {
    out.attempted = 1;
    out.Set("setup_s", setup_s);
    return out;
  }
  const Lab lab = MakeLab(options.seed);
  std::unique_ptr<serving::StreamingLocalizer> service = make_service(lab);

  serving::LoadGenConfig load;
  load.objects = kSessions;
  load.anchors_per_object = kAnchorsPerSession;
  load.packets = kRoundPackets;
  load.rate_per_s = kPacedRate;
  load.zipf_s = kZipf;
  load.query_fraction = kQueryFraction;
  load.seed = options.seed;
  const serving::LoadSchedule schedule = serving::BuildLoadSchedule(load);
  // Rounds [0, saturation_rounds) saturate; the rest are paced at their
  // scheduled offsets.
  const Rounds rounds(schedule, kSessions);

  // Probe fixes: the paper pipeline's accuracy set, served after populate.
  const std::vector<LabFix> fixes =
      MeasureLabFixes(lab, kAccuracyTrials, 2);
  const std::vector<serving::IngestPacket> probes =
      ProbePackets(fixes, kSessions, 0.0);

  std::uint64_t attempted = 0, rejected = 0, accepted_queries = 0;
  auto ingest = [&](const serving::IngestPacket& p) {
    ++attempted;
    if (service->Ingest(p) != serving::AdmitStatus::kAccepted) {
      ++rejected;
      return;
    }
    accepted_queries += p.kind == serving::PacketKind::kQuery;
  };

  // Phase 1: populate every session.
  for (std::size_t i = 0; i < schedule.populate.size(); ++i) {
    ingest(schedule.populate[i]);
    if ((i + 1) % kPopulateChunk == 0) service->Flush();
  }
  for (const auto& p : probes) ingest(p);
  service->Flush();
  std::vector<serving::ServeResponse> responses = service->TakeResponses();

  // Phase 2: saturation, one sample per round of ingest + flush.  A traced
  // run spans every other round's calls, so traced and untraced rounds
  // interleave.  The flush at the end of a round drains the worker, so a
  // traced round's CPU time and timer deltas cover exactly its own work.
  const CounterDelta pressure("serving.evictions.pressure");
  auto& solve_timer =
      nomloc::common::MetricRegistry::Global().Timer("serving.solve");
  std::vector<double> round_pps, round_fps, untraced_round_s, traced_round_s;
  std::vector<double> ingest_s, flush_s;
  double traced_cpu_s = 0.0, traced_solve_s = 0.0;
  for (std::size_t r = 0; r < saturation_rounds; ++r) {
    const bool trace = options.trace && r % 2 == 1;
    const double cpu0 = trace ? ProcessCpuSeconds() : 0.0;
    const double solve0 = trace ? solve_timer.TotalSeconds() : 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kRoundPackets; ++i) {
      const serving::IngestPacket p = rounds.Packet(r, i);
      clock.Set(p.timestamp_s);
      if (trace) {
        const auto s0 = Clock::now();
        ingest(p);
        ingest_s.push_back(SecondsBetween(s0, Clock::now()));
      } else {
        ingest(p);
      }
    }
    const auto f0 = Clock::now();
    service->Flush();
    const auto t1 = Clock::now();
    const double round_s = SecondsBetween(t0, t1);
    auto answered = service->TakeResponses();
    if (trace) {
      traced_cpu_s += ProcessCpuSeconds() - cpu0;
      traced_solve_s += solve_timer.TotalSeconds() - solve0;
      flush_s.push_back(SecondsBetween(f0, t1));
      traced_round_s.push_back(round_s);
    } else {
      untraced_round_s.push_back(round_s);
      round_pps.push_back(double(kRoundPackets) / round_s);
      round_fps.push_back(double(answered.size()) / round_s);
    }
    responses.insert(responses.end(), answered.begin(), answered.end());
  }

  // Phase 3 (traced runs): open loop at a constant offered rate; latency
  // runs from each packet's scheduled send.
  std::vector<double> lag_ms;
  const auto paced_start = Clock::now();
  const double first_offset = rounds.Offset(saturation_rounds, 0);
  for (std::size_t r = saturation_rounds; r < round_count; ++r) {
    for (std::size_t i = 0; i < kRoundPackets; ++i) {
      const auto due =
          paced_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                rounds.Offset(r, i) - first_offset));
      WaitUntil(due);
      lag_ms.push_back(1e3 * SecondsBetween(due, Clock::now()));
      serving::IngestPacket stamped = rounds.Packet(r, i);
      stamped.scheduled_wall = due;
      clock.Set(stamped.timestamp_s);
      ingest(stamped);
    }
  }
  service->Flush();
  const std::vector<serving::ServeResponse> paced_responses =
      service->TakeResponses();
  responses.insert(responses.end(), paced_responses.begin(),
                   paced_responses.end());
  const serving::MemoryStats served_memory = service->Store().Memory();
  // Peak memory of the system under test, before the checks add their own.
  const double rss_peak_mb = PeakRssMb();
  service.reset();

  // --- Output checks (untimed) ---
  switch (options.corrupt) {
    case Corruption::kNone: break;
    case Corruption::kDrop: responses.pop_back(); break;
    case Corruption::kFlip:
      responses.back().estimate.position.x =
          FlipLowBit(responses.back().estimate.position.x);
      break;
    case Corruption::kCount: responses.push_back(responses.back()); break;
  }
  std::sort(responses.begin(), responses.end(),
            [](const auto& a, const auto& b) { return a.seq < b.seq; });
  out.Check(rejected == 0,
            "serve_1m: " + std::to_string(rejected) + " packets rejected");
  out.Check(responses.size() == accepted_queries,
            "serve_1m: " + std::to_string(responses.size()) +
                " responses for " + std::to_string(accepted_queries) +
                " accepted queries");
  Digest served;
  std::uint64_t not_ok = 0;
  double degraded = 0.0;
  std::vector<nomloc::geometry::Vec2> probe_estimates(fixes.size());
  std::size_t probe_mismatch = 0;
  for (const auto& r : responses) {
    AddFix(served, r.object_id, r.timestamp_s, int(r.status), r.estimate,
           r.anchor_count);
    not_ok += r.status != serving::ServeStatus::kOk;
    degraded += r.degraded;
    if (r.object_id >= kSessions && r.object_id - kSessions < fixes.size()) {
      const LabFix& fix = fixes[r.object_id - kSessions];
      probe_estimates[r.object_id - kSessions] = r.estimate.position;
      probe_mismatch +=
          !BitsEqual(r.estimate.position.x, fix.estimate.position.x) ||
          !BitsEqual(r.estimate.position.y, fix.estimate.position.y);
    }
  }
  out.Check(not_ok == 0,
            "serve_1m: " + std::to_string(not_ok) + " queries not answered ok");
  out.Check(probe_mismatch == 0,
            "serve_1m: " + std::to_string(probe_mismatch) +
                " probe fixes differ from the paper pipeline");
  ReplaySpans replay;
  const std::uint64_t expected =
      DirectReplay(config.store, *lab.engine, schedule, probes, rounds,
                   round_count, options.trace, replay);
  out.Check(served.Value() == expected,
            "serve_1m: response digest differs from the direct "
            "SessionStore + Locate replay");
  const LagReport lag = SummarizeLag(lag_ms, kLagToleranceMs);
  if (!lag.valid)
    std::fprintf(stderr,
                 "serve_1m: p99 send lag %g ms exceeds the %g ms pacing "
                 "tolerance; paced latency figures are invalid\n",
                 lag.p99_ms, kLagToleranceMs);

  std::map<std::size_t, std::vector<double>> latency_ms;
  for (const auto& r : paced_responses)
    latency_ms[rounds.RoundOf(r.timestamp_s)].push_back(1e3 * r.latency_s);

  out.attempted = attempted;
  out.failed = rejected + not_ok;
  if (!options.trace) {
    const Accuracy acc = AccuracyOf(fixes, probe_estimates,
                                    lab.scenario.test_sites.size());
    out.Set("setup_s", setup_s);
    out.Set("rss_peak_mb", rss_peak_mb);
    out.Set("fixes_per_s", Median(round_fps));
    out.Set("ingest_pps", Median(round_pps));
    out.Set("error_median_m", acc.median_m);
    out.Set("error_p90_m", acc.p90_m);
    out.Set("slv_m2", acc.slv_m2);
    return out;
  }

  std::vector<double> wait_ms;
  for (const auto& r : paced_responses)
    wait_ms.push_back(1e3 * r.queue_wait_s);
  double ingest_total_s = 0.0;
  for (double s : ingest_s) ingest_total_s += s;
  const double queries = double(replay.locate_s.size());
  out.Set("failed_frac", Ratio(double(out.failed), double(attempted)));
  out.Set("query_p50_ms", RoundQuantile(latency_ms, 0.5));
  out.Set("query_p90_ms", RoundQuantile(latency_ms, 0.9));
  out.Set("query_p99_ms", RoundQuantile(latency_ms, 0.99));
  out.Set("bytes_per_session",
          Ratio(double(served_memory.live_bytes),
                double(served_memory.sessions)));
  out.Set("core.locate_us.p50", 1e6 * Quantile(replay.locate_s, 0.5));
  out.Set("core.locate_us.p99", 1e6 * Quantile(replay.locate_s, 0.99));
  out.Set("lp.iterations_mean", Ratio(replay.lp_iterations, queries));
  out.Set("localization.fallback_frac", Ratio(replay.fallbacks, queries));
  out.Set("serving.ingest_ns.p50", 1e9 * Quantile(ingest_s, 0.5));
  out.Set("serving.ingest_ns.p99", 1e9 * Quantile(ingest_s, 0.99));
  out.Set("serving.queue_wait_ms.p50", Quantile(wait_ms, 0.5));
  out.Set("serving.queue_wait_ms.p99", Quantile(wait_ms, 0.99));
  out.Set("serving.flush_ms", 1e3 * Median(flush_s));
  out.Set("serving.rejected_frac", Ratio(double(rejected), double(attempted)));
  out.Set("serving.degraded_frac", Ratio(degraded, double(responses.size())));
  out.Set("session_store.upsert_ns", 1e9 * Median(replay.upsert_s));
  out.Set("session_store.snapshot_ns", 1e9 * Median(replay.snapshot_s));
  out.Set("session_store.sweep_ns", 1e9 * Median(replay.sweep_s));
  out.Set("session_store.live_bytes", double(served_memory.live_bytes));
  out.Set("session_store.resident_bytes", double(served_memory.resident_bytes));
  out.Set("session_store.evictions_pressure", pressure.Delta());
  out.Set("loadgen.send_lag_p50_ms", lag.p50_ms);
  out.Set("loadgen.send_lag_p99_ms", lag.p99_ms);
  out.Set("loadgen.pacing_valid", lag.valid ? 1.0 : 0.0);
  out.Set("trace.overhead_frac",
          Ratio(Median(traced_round_s), Median(untraced_round_s)) - 1.0);
  // Layer self times of the traced rounds: serving admission (the sender's
  // Ingest spans) and snapshot + solve (the existing serving.solve timer in
  // the worker).  The worker's Upsert has no timer of its own yet.
  out.Set("trace.unattributed_frac",
          1.0 - Ratio(ingest_total_s + traced_solve_s, traced_cpu_s));
  return out;
}

}  // namespace perfbench

#include "serving/service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/metrics.h"
#include "core/nomloc.h"
#include "eval/scenario.h"
#include "serving/clock.h"
#include "serving/replay.h"

namespace nomloc::serving {
namespace {

IngestPacket Observation(std::uint64_t object_id, int ap_id,
                         geometry::Vec2 position, double pdp, double t_s) {
  IngestPacket packet;
  packet.kind = PacketKind::kObservation;
  packet.object_id = object_id;
  packet.ap_id = ap_id;
  packet.reported_position = position;
  packet.pdp = pdp;
  packet.timestamp_s = t_s;
  return packet;
}

IngestPacket Query(std::uint64_t object_id, double t_s) {
  IngestPacket packet;
  packet.kind = PacketKind::kQuery;
  packet.object_id = object_id;
  packet.timestamp_s = t_s;
  return packet;
}

/// Reads 0 s.  The first read from any thread other than the constructing
/// one blocks until Release(); a worker reads the clock once per job it
/// serves, so it parks inside its first job while the test keeps ingesting.
class GatedClock final : public Clock {
 public:
  double NowSeconds() const override {
    if (std::this_thread::get_id() == owner_) return 0.0;
    std::unique_lock<std::mutex> lock(mutex_);
    if (!entered_) {
      entered_ = true;
      changed_.notify_all();
      changed_.wait(lock, [&] { return released_; });
    }
    return 0.0;
  }
  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    changed_.notify_all();
  }

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  mutable bool entered_ = false;
  bool released_ = false;
};

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    auto engine = core::NomLocEngine::Create(
        geometry::Polygon::Rectangle(0.0, 0.0, 10.0, 10.0));
    NOMLOC_REQUIRE(engine.ok());
    engine_ = std::make_unique<core::NomLocEngine>(std::move(*engine));
  }

  std::unique_ptr<StreamingLocalizer> MakeService(ServingConfig config) {
    auto service = StreamingLocalizer::Create(*engine_, config, &clock_);
    NOMLOC_REQUIRE(service.ok());
    return std::move(*service);
  }

  std::unique_ptr<core::NomLocEngine> engine_;
  ManualClock clock_;
};

TEST_F(ServiceTest, ConfigValidation) {
  ServingConfig config;
  config.workers = 0;
  EXPECT_FALSE(StreamingLocalizer::Create(*engine_, config).ok());
  config = {};
  config.queue_capacity = 0;
  EXPECT_FALSE(StreamingLocalizer::Create(*engine_, config).ok());
}

TEST_F(ServiceTest, ObservationsThenQueryProduceOneResponse) {
  ServingConfig config;
  config.workers = 2;
  auto service = MakeService(config);

  clock_.Set(0.0);
  EXPECT_EQ(service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service->Ingest(Query(1, 0.1)), AdmitStatus::kAccepted);
  service->Flush();

  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
  EXPECT_EQ(responses[0].object_id, 1u);
  EXPECT_EQ(responses[0].anchor_count, 2u);
  EXPECT_GE(responses[0].confidence, 0.0);
  EXPECT_LE(responses[0].confidence, 1.0);
  EXPECT_GT(responses[0].estimate.feasible_area_m2, 0.0);
}

TEST_F(ServiceTest, QueryWithTooFewAnchorsFailsTyped) {
  auto service = MakeService({});
  clock_.Set(0.0);
  service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0));
  service->Ingest(Query(1, 0.0));
  service->Flush();

  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kFailed);
  EXPECT_EQ(responses[0].error.code(), common::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(responses[0].degraded);
}

TEST_F(ServiceTest, QueueFullRejectsDeterministically) {
  ServingConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.start_paused = true;  // nothing drains until Start()
  auto service = MakeService(config);

  clock_.Set(0.0);
  EXPECT_EQ(service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service->Ingest(Query(1, 0.0)),
            AdmitStatus::kRejectedQueueFull);

  service->Start();
  service->Flush();
  EXPECT_EQ(service->Ingest(Query(1, 0.1)), AdmitStatus::kAccepted);
  service->Flush();
  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
}

// queue_capacity bounds the jobs accepted but not yet started.  With the
// worker parked inside job 1 of 3, two jobs are waiting, so exactly one
// more fits — whether the worker pops jobs one by one or has taken all
// three at once.
TEST_F(ServiceTest, CapacityCountsJobsNotYetStarted) {
  GatedClock clock;
  ServingConfig config;
  config.workers = 1;
  config.queue_capacity = 3;
  config.start_paused = true;
  auto created = StreamingLocalizer::Create(*engine_, config, &clock);
  ASSERT_TRUE(created.ok());
  StreamingLocalizer& service = **created;
  for (int ap = 0; ap < 3; ++ap)
    EXPECT_EQ(service.Ingest(Observation(1, ap, {1.0, 1.0}, 0.5, 0.0)),
              AdmitStatus::kAccepted);

  service.Start();
  clock.WaitUntilEntered();
  EXPECT_EQ(service.Ingest(Observation(1, 3, {2.0, 2.0}, 0.5, 0.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service.Ingest(Observation(1, 4, {3.0, 3.0}, 0.5, 0.0)),
            AdmitStatus::kRejectedQueueFull);
  clock.Release();
  service.Flush();
  EXPECT_EQ(service.Store().Memory().observations, 4u);
}

// Four producers race the workers' queue hand-off with a queue small
// enough to reject: every accepted query is answered exactly once, and
// each object's observations sit in the store in the order they were
// accepted.
TEST_F(ServiceTest, RacingProducersKeepPerObjectOrderAndLoseNothing) {
  ServingConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.store.anchor_ttl_s = 1e9;
  config.store.session_idle_ttl_s = 1e9;
  auto service = MakeService(config);
  clock_.Set(0.0);

  constexpr int kProducers = 4;
  constexpr int kObjectsPerProducer = 4;
  constexpr int kPacketsPerProducer = 1500;
  struct Accepted {
    /// PDPs of accepted observations per (object, ap), in acceptance order.
    std::map<std::pair<std::uint64_t, int>, std::vector<double>> pdps;
    std::size_t observations = 0;
    std::size_t queries = 0;
    std::size_t rejected = 0;
  };
  std::vector<Accepted> accepted(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Accepted& mine = accepted[std::size_t(p)];
      for (int i = 0; i < kPacketsPerProducer; ++i) {
        const auto object =
            std::uint64_t(p * kObjectsPerProducer + i % kObjectsPerProducer);
        const int ap = (i / kObjectsPerProducer) % 2;
        const bool query = i % 10 == 9;
        // Every observation carries a PDP no other packet has.
        const IngestPacket packet =
            query ? Query(object, 0.0)
                  : Observation(object, ap,
                                ap == 0 ? geometry::Vec2{1.0, 1.0}
                                        : geometry::Vec2{9.0, 9.0},
                                1.0 + p * kPacketsPerProducer + i, 0.0);
        const AdmitStatus status = service->Ingest(packet);
        if (status == AdmitStatus::kRejectedQueueFull) {
          ++mine.rejected;
          std::this_thread::yield();
          continue;
        }
        EXPECT_EQ(status, AdmitStatus::kAccepted);
        if (query) {
          ++mine.queries;
        } else {
          mine.pdps[{object, ap}].push_back(packet.pdp);
          ++mine.observations;
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  service->Flush();

  std::size_t queries = 0, observations = 0, rejected = 0;
  std::map<std::pair<std::uint64_t, int>, std::vector<double>> want;
  for (Accepted& mine : accepted) {
    queries += mine.queries;
    observations += mine.observations;
    rejected += mine.rejected;
    want.merge(mine.pdps);
  }
  EXPECT_GT(rejected, 0u);

  const std::vector<ServeResponse> responses = service->TakeResponses();
  EXPECT_EQ(responses.size(), queries);
  std::set<std::uint64_t> seqs;
  for (const ServeResponse& response : responses)
    EXPECT_TRUE(seqs.insert(response.seq).second) << "seq " << response.seq;

  EXPECT_EQ(service->Store().Memory().observations, observations);
  std::map<std::pair<std::uint64_t, int>, std::vector<double>> stored;
  const common::Json checkpoint = service->Store().CheckpointJson();
  for (const common::Json& session :
       checkpoint.AsObject().at("sessions").AsArray()) {
    const auto object = std::uint64_t(session.GetDouble("object_id").value());
    for (const common::Json& anchor :
         session.AsObject().at("anchors").AsArray()) {
      std::vector<double>& pdps =
          stored[{object, int(anchor.GetDouble("ap_id").value())}];
      for (const common::Json& obs :
           anchor.AsObject().at("observations").AsArray())
        pdps.push_back(obs.GetDouble("pdp").value());
    }
  }
  EXPECT_EQ(stored, want);
}

TEST_F(ServiceTest, DeadlineRejectedAtAdmission) {
  auto service = MakeService({});
  clock_.Set(5.0);
  IngestPacket packet = Query(1, 4.0);
  packet.deadline_s = 4.5;  // already past at ingest
  EXPECT_EQ(service->Ingest(packet), AdmitStatus::kRejectedDeadline);
}

TEST_F(ServiceTest, DeadlineExpiringInQueueYieldsRejectionResponse) {
  ServingConfig config;
  config.workers = 1;
  config.start_paused = true;
  auto service = MakeService(config);

  clock_.Set(0.0);
  service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0));
  service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0));
  IngestPacket query = Query(1, 0.0);
  query.deadline_s = 1.0;
  EXPECT_EQ(service->Ingest(query), AdmitStatus::kAccepted);

  clock_.Set(2.0);  // the queued query's deadline passes before it runs
  service->Start();
  service->Flush();

  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kRejectedDeadline);
}

TEST_F(ServiceTest, ShutdownDrainsThenRejectsIngest) {
  ServingConfig config;
  config.workers = 1;
  config.start_paused = true;
  auto service = MakeService(config);

  clock_.Set(0.0);
  service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0));
  service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0));
  service->Ingest(Query(1, 0.0));
  service->Shutdown();  // drains queued work even though never Start()ed

  EXPECT_EQ(service->Ingest(Query(1, 0.1)), AdmitStatus::kRejectedShutdown);
  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
}

TEST_F(ServiceTest, BackToBackLifecyclesNeverLoseAWakeUp) {
  // Start() and Shutdown() flip paused_/shutdown_ while a worker may sit
  // between its wait-predicate check and the wait itself.  A notify lost
  // there hangs Flush() or the join; the suite's ctest TIMEOUT turns such
  // a hang into a failure.  Fresh services maximise the window: their
  // workers are still entering the wait when the flag flips.
  clock_.Set(0.0);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    ServingConfig config;
    config.workers = 2;
    config.start_paused = cycle % 2 == 0;
    auto service = MakeService(config);
    if (cycle % 4 < 2) {
      ASSERT_EQ(service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0)),
                AdmitStatus::kAccepted);
      ASSERT_EQ(service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0)),
                AdmitStatus::kAccepted);
      ASSERT_EQ(service->Ingest(Query(1, 0.0)), AdmitStatus::kAccepted);
    }
    service->Start();
    service->Flush();
    service->Shutdown();
    ASSERT_EQ(service->TakeResponses().size(), cycle % 4 < 2 ? 1u : 0u)
        << "cycle " << cycle;
  }
}

// The tentpole equivalence property: with faults off, streaming the
// replay plan produces estimates bit-identical to LocateBatch over the
// plan's golden anchor sets.
TEST_F(ServiceTest, StreamingMatchesLocateBatchBitExactly) {
  auto scenario = eval::ScenarioByName("lab");
  ASSERT_TRUE(scenario.ok());
  ReplayConfig replay;
  replay.objects = 2;
  replay.epochs = 2;
  replay.run.packets_per_batch = 3;
  replay.run.dwell_count = 3;
  auto plan = BuildReplayPlan(*scenario, replay);
  ASSERT_TRUE(plan.ok());

  core::NomLocConfig engine_cfg = replay.run.engine;
  engine_cfg.bandwidth_hz = replay.run.channel.bandwidth_hz;
  auto engine = core::NomLocEngine::Create(scenario->env.Boundary(),
                                           engine_cfg);
  ASSERT_TRUE(engine.ok());

  ServingConfig config;
  config.workers = 2;
  config.store.anchor_ttl_s = plan->suggested_anchor_ttl_s;
  config.expected_anchors = plan->expected_anchors;
  auto service = StreamingLocalizer::Create(*engine, config, &clock_);
  ASSERT_TRUE(service.ok());

  // Replay epoch by epoch; flushing at each boundary pins the logical
  // time every query is served at.
  std::size_t next = 0;
  for (std::size_t e = 0; e < plan->epoch_count; ++e) {
    const double epoch_end_s = double(e + 1) * replay.epoch_interval_s;
    while (next < plan->packets.size() &&
           plan->packets[next].timestamp_s < epoch_end_s) {
      clock_.Set(plan->packets[next].timestamp_s);
      EXPECT_EQ((*service)->Ingest(plan->packets[next]),
                AdmitStatus::kAccepted);
      ++next;
    }
    (*service)->Flush();
  }
  (*service)->Shutdown();

  std::vector<core::LocateRequest> requests(plan->epochs.size());
  for (std::size_t i = 0; i < plan->epochs.size(); ++i)
    requests[i].anchors = plan->epochs[i].anchors;
  auto batch = engine->LocateBatch(requests, 2);
  ASSERT_TRUE(batch.ok());

  auto responses = (*service)->TakeResponses();
  ASSERT_EQ(responses.size(), plan->epochs.size());
  for (const ServeResponse& response : responses) {
    ASSERT_EQ(response.status, ServeStatus::kOk);
    const std::size_t epoch =
        std::size_t(response.timestamp_s / replay.epoch_interval_s);
    const std::size_t row =
        epoch * plan->objects + std::size_t(response.object_id);
    const core::LocationEstimate& want = (*batch)[row].estimate;
    EXPECT_EQ(std::memcmp(&response.estimate.position, &want.position,
                          sizeof(want.position)),
              0);
    EXPECT_EQ(response.estimate.relaxation_cost, want.relaxation_cost);
    EXPECT_EQ(response.estimate.feasible_area_m2, want.feasible_area_m2);
    EXPECT_EQ(response.anchor_count, plan->epochs[row].anchors.size());
  }
}

TEST_F(ServiceTest, CorruptObservationsRejectedAtAdmission) {
  auto service = MakeService({});
  clock_.Set(0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  IngestPacket bad_pos = Observation(1, 0, {nan, 1.0}, 0.5, 0.0);
  EXPECT_EQ(service->Ingest(bad_pos), AdmitStatus::kRejectedCorrupt);
  IngestPacket bad_pdp = Observation(1, 0, {1.0, 1.0}, -0.5, 0.0);
  EXPECT_EQ(service->Ingest(bad_pdp), AdmitStatus::kRejectedCorrupt);
  IngestPacket bad_weight = Observation(1, 0, {1.0, 1.0}, 0.5, 0.0);
  bad_weight.weight = 0.0;
  EXPECT_EQ(service->Ingest(bad_weight), AdmitStatus::kRejectedCorrupt);
  // A rejected observation never reaches the session store.
  EXPECT_EQ(service->Store().SessionCount(), 0u);
}

// A non-finite measurement time would never age out (now - NaN and
// now - inf are never past the TTL), pinning a dead judgement forever.
TEST_F(ServiceTest, NonFiniteTimestampRejectedAsCorrupt) {
  ServingConfig config;
  config.store.anchor_ttl_s = 10.0;
  auto service = MakeService(config);
  clock_.Set(0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, inf)),
            AdmitStatus::kRejectedCorrupt);
  EXPECT_EQ(service->Ingest(Observation(1, 1, {1.0, 1.0}, 0.5, nan)),
            AdmitStatus::kRejectedCorrupt);
  EXPECT_EQ(service->Ingest(Observation(1, 2, {1.0, 1.0}, 0.5, -inf)),
            AdmitStatus::kRejectedCorrupt);
  service->Flush();
  service->SweepSessions(1e6);
  EXPECT_EQ(service->Store().SessionCount(), 0u);
}

TEST_F(ServiceTest, BreakerTripsIsolatesApAndRecloses) {
  ServingConfig config;
  config.workers = 1;
  config.breaker.failure_threshold = 2;
  config.breaker.base_backoff_s = 1.0;
  config.breaker.max_backoff_s = 4.0;
  auto service = MakeService(config);

  clock_.Set(0.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service->Ingest(Observation(1, 7, {1.0, nan}, 0.5, 0.0)),
            AdmitStatus::kRejectedCorrupt);
  EXPECT_EQ(service->Ingest(Observation(1, 7, {1.0, nan}, 0.5, 0.0)),
            AdmitStatus::kRejectedCorrupt);
  EXPECT_EQ(service->Breakers().StateOf(7), BreakerState::kOpen);

  // Even a healthy report from the tripped AP is short-circuited, while a
  // sibling AP is untouched.
  clock_.Set(0.5);
  EXPECT_EQ(service->Ingest(Observation(1, 7, {1.0, 1.0}, 0.5, 0.5)),
            AdmitStatus::kRejectedBreakerOpen);
  EXPECT_EQ(service->Ingest(Observation(1, 8, {9.0, 9.0}, 0.5, 0.5)),
            AdmitStatus::kAccepted);

  // Backoff elapsed: the half-open probe is admitted, and its success
  // recloses the breaker for normal traffic.
  clock_.Set(1.0);
  EXPECT_EQ(service->Ingest(Observation(1, 7, {1.0, 1.0}, 0.5, 1.0)),
            AdmitStatus::kAccepted);
  EXPECT_EQ(service->Breakers().StateOf(7), BreakerState::kClosed);
  EXPECT_EQ(service->Ingest(Observation(1, 7, {1.5, 1.0}, 0.5, 1.0)),
            AdmitStatus::kAccepted);
}

TEST_F(ServiceTest, RetryBudgetExhaustedAnswersFromLastKnownGood) {
  ServingConfig config;
  config.workers = 1;
  config.query_retry_budget = 1;
  config.store.anchor_ttl_s = 10.0;
  auto service = MakeService(config);

  clock_.Set(0.0);
  service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0));
  service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0));
  service->Ingest(Query(1, 0.0));
  service->Flush();
  auto first = service->TakeResponses();
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(first[0].status, ServeStatus::kOk);
  ASSERT_EQ(first[0].degradation, common::DegradationLevel::kNone);

  // Fifty seconds on: the original anchors aged out, one fresh report is
  // not enough to solve, and the retry cannot fix that — the last rung of
  // the ladder answers from the remembered estimate.
  clock_.Set(50.0);
  service->Ingest(Observation(1, 0, {2.0, 2.0}, 0.5, 50.0));
  service->Ingest(Query(1, 50.0));
  service->Flush();
  auto second = service->TakeResponses();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].status, ServeStatus::kOk);
  EXPECT_EQ(second[0].degradation, common::DegradationLevel::kLastKnownGood);
  EXPECT_TRUE(second[0].degraded);
  EXPECT_EQ(second[0].retries, 1u);
  EXPECT_EQ(std::memcmp(&second[0].estimate.position,
                        &first[0].estimate.position,
                        sizeof(first[0].estimate.position)),
            0);
  EXPECT_DOUBLE_EQ(
      second[0].confidence,
      common::DegradationConfidenceScale(
          common::DegradationLevel::kLastKnownGood) *
          first[0].confidence);
}

TEST_F(ServiceTest, LkgDisabledSurfacesTypedFailure) {
  ServingConfig config;
  config.workers = 1;
  config.store.anchor_ttl_s = 10.0;
  config.last_known_good_fallback = false;
  auto service = MakeService(config);

  clock_.Set(0.0);
  service->Ingest(Observation(1, 0, {1.0, 1.0}, 0.5, 0.0));
  service->Ingest(Observation(1, 1, {9.0, 9.0}, 0.1, 0.0));
  service->Ingest(Query(1, 0.0));
  service->Flush();
  ASSERT_EQ(service->TakeResponses().size(), 1u);

  clock_.Set(50.0);
  service->Ingest(Observation(1, 0, {2.0, 2.0}, 0.5, 50.0));
  service->Ingest(Query(1, 50.0));
  service->Flush();
  auto responses = service->TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::kFailed);
  EXPECT_EQ(responses[0].error.code(),
            common::StatusCode::kFailedPrecondition);
}

// Satellite (f): every serving metric is registered under the serving.*
// namespace and a --metrics dump lists each exactly once.
TEST_F(ServiceTest, IncrementalSolverModeMatchesColdMode) {
  // The same packet stream served under both solver modes must produce
  // the same estimates to solver tolerance; the incremental service keeps
  // one warm solver session per object in the store.
  const auto fire = [&](localization::SpSessionMode mode) {
    ServingConfig config;
    config.workers = 1;
    config.solver_mode = mode;
    auto service = MakeService(config);
    clock_.Set(0.0);
    const std::vector<geometry::Vec2> aps{{1, 1}, {9, 1}, {9, 9}, {1, 9}};
    // Drifting PDPs: each epoch updates every anchor, then queries.
    for (int epoch = 0; epoch < 6; ++epoch) {
      const double t = 0.1 * epoch;
      for (int ap = 0; ap < 4; ++ap) {
        const double pdp = 0.2 + 0.1 * ((ap + epoch) % 4);
        EXPECT_EQ(service->Ingest(
                      Observation(1, ap, aps[std::size_t(ap)], pdp, t)),
                  AdmitStatus::kAccepted);
      }
      EXPECT_EQ(service->Ingest(Query(1, t)), AdmitStatus::kAccepted);
    }
    service->Flush();
    auto responses = service->TakeResponses();
    std::sort(responses.begin(), responses.end(),
              [](const ServeResponse& a, const ServeResponse& b) {
                return a.seq < b.seq;
              });
    return responses;
  };

  const auto sessions_before = common::MetricRegistry::Global()
                                   .Counter("serving.solver.sessions")
                                   .Value();
  const auto cold = fire(localization::SpSessionMode::kColdEachSolve);
  const auto warm = fire(localization::SpSessionMode::kIncremental);
  ASSERT_EQ(cold.size(), warm.size());
  ASSERT_EQ(cold.size(), 6u);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    ASSERT_EQ(cold[i].status, ServeStatus::kOk) << "epoch " << i;
    ASSERT_EQ(warm[i].status, ServeStatus::kOk) << "epoch " << i;
    EXPECT_NEAR(warm[i].estimate.position.x, cold[i].estimate.position.x,
                1e-6)
        << "epoch " << i;
    EXPECT_NEAR(warm[i].estimate.position.y, cold[i].estimate.position.y,
                1e-6)
        << "epoch " << i;
    EXPECT_NEAR(warm[i].confidence, cold[i].confidence, 1e-6)
        << "epoch " << i;
    EXPECT_EQ(warm[i].degradation, cold[i].degradation) << "epoch " << i;
  }
  // One object, one warm session — created once, reused across queries.
  EXPECT_EQ(common::MetricRegistry::Global()
                .Counter("serving.solver.sessions")
                .Value(),
            sessions_before + 1);
}

TEST(ServingMetrics, EveryMetricListedExactlyOnce) {
  TouchMetrics();
  const std::string dump = common::MetricRegistry::Global().DumpText();

  std::map<std::string, int> second_tokens;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream tokens(line);
    std::string kind, name;
    if (tokens >> kind >> name) ++second_tokens[name];
  }

  auto names = AllMetricNames();
  EXPECT_FALSE(names.empty());
  for (std::string_view name : names) {
    EXPECT_EQ(second_tokens[std::string(name)], 1)
        << "metric " << name << " not listed exactly once";
    EXPECT_TRUE(name.starts_with("serving."))
        << "metric " << name << " escapes the serving.* namespace";
  }
}

}  // namespace
}  // namespace nomloc::serving

#include "core/nomloc.h"

#include <gtest/gtest.h>

#include "channel/csi_model.h"
#include "common/rng.h"

namespace nomloc::core {
namespace {

using geometry::Polygon;
using geometry::Vec2;

channel::IndoorEnvironment EmptyRoom() {
  auto env =
      channel::IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 12, 8));
  return std::move(env).value();
}

NomLocEngine MakeEngine(const Polygon& area) {
  auto engine = NomLocEngine::Create(area);
  return std::move(engine).value();
}

// End-to-end observations through the channel simulator.
std::vector<ApObservation> Observe(const channel::IndoorEnvironment& env,
                                   Vec2 object, std::span<const Vec2> aps,
                                   std::size_t packets, common::Rng& rng) {
  const channel::CsiSimulator sim(env, {});
  std::vector<ApObservation> obs;
  for (const Vec2 ap : aps) {
    ApObservation o;
    o.reported_position = ap;
    o.frames = sim.MakeLink(object, ap).SampleBatch(packets, rng);
    obs.push_back(std::move(o));
  }
  return obs;
}

common::Result<LocateResponse> FromObservations(
    const NomLocEngine& engine, std::span<const ApObservation> observations) {
  LocateRequest request;
  request.observations = observations;
  return engine.Locate(request);
}

common::Result<LocateResponse> FromAnchors(
    const NomLocEngine& engine,
    std::span<const localization::Anchor> anchors) {
  LocateRequest request;
  request.anchors = anchors;
  return engine.Locate(request);
}

TEST(EngineCreate, ValidatesConfig) {
  NomLocConfig bad;
  bad.bandwidth_hz = 0.0;
  EXPECT_FALSE(
      NomLocEngine::Create(Polygon::Rectangle(0, 0, 1, 1), bad).ok());
}

TEST(EngineCreate, DecomposesNonConvexArea) {
  auto l = Polygon::Create(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  ASSERT_TRUE(l.ok());
  auto engine = NomLocEngine::Create(*l);
  ASSERT_TRUE(engine.ok());
  EXPECT_GE(engine->Parts().size(), 2u);
  for (const Polygon& part : engine->Parts()) EXPECT_TRUE(part.IsConvex());
}

TEST(EngineCreate, ConvexAreaIsOnePart) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 12, 8));
  EXPECT_EQ(engine.Parts().size(), 1u);
}

TEST(Locate, RequiresTwoObservationsWithFrames) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 12, 8));
  EXPECT_EQ(FromObservations(engine, {}).status().code(),
            common::StatusCode::kInvalidArgument);

  std::vector<ApObservation> no_frames(2);
  no_frames[0].reported_position = {1, 1};
  no_frames[1].reported_position = {2, 2};
  EXPECT_EQ(FromObservations(engine, no_frames).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(Locate, EstimateIsInsideArea) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(3);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}};
  const auto obs = Observe(env, {4.0, 3.0}, aps, 30, rng);
  auto located = FromObservations(engine, obs);
  ASSERT_TRUE(located.ok()) << located.status().ToString();
  EXPECT_TRUE(engine.Area().Contains(located->estimate.position, 1e-5));
  EXPECT_EQ(located->estimate.anchors.size(), 4u);
}

TEST(Locate, ReasonableAccuracyInOpenRoom) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(5);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7},
                              {6, 4}, {3, 6},  {9, 2}};
  const Vec2 truth{4.0, 3.0};
  const auto obs = Observe(env, truth, aps, 40, rng);
  auto located = FromObservations(engine, obs);
  ASSERT_TRUE(located.ok());
  // 7 anchors partition a 12x8 room finely; error must be small.
  EXPECT_LT(Distance(located->estimate.position, truth), 2.5);
}

TEST(Locate, MoreAnchorsImproveAccuracyOnAverage) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  const std::vector<Vec2> few{{1, 1}, {11, 1}, {11, 7}, {1, 7}};
  std::vector<Vec2> many = few;
  many.insert(many.end(), {{4, 4}, {8, 4}, {6, 6.5}});

  double err_few = 0.0, err_many = 0.0;
  const std::vector<Vec2> truths{{4, 3}, {9, 5}, {2, 6}, {6, 2}, {10, 3}};
  common::Rng rng(7);
  for (const Vec2 truth : truths) {
    auto est_few = FromObservations(engine, Observe(env, truth, few, 30, rng));
    auto est_many =
        FromObservations(engine, Observe(env, truth, many, 30, rng));
    ASSERT_TRUE(est_few.ok());
    ASSERT_TRUE(est_many.ok());
    err_few += Distance(est_few->estimate.position, truth);
    err_many += Distance(est_many->estimate.position, truth);
  }
  EXPECT_LT(err_many, err_few);
}

TEST(LocateAnchors, CoincidentAnchorsFail) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 10, 8));
  std::vector<localization::Anchor> anchors{{{3.0, 3.0}, 2.0, false},
                                            {{3.0, 3.0}, 1.0, false}};
  EXPECT_EQ(FromAnchors(engine, anchors).status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(LocateAnchors, DiagnosticsPopulated) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 10, 8));
  std::vector<localization::Anchor> anchors{{{1.0, 1.0}, 4.0, false},
                                            {{9.0, 1.0}, 2.0, false},
                                            {{5.0, 7.0}, 1.0, false}};
  auto located = FromAnchors(engine, anchors);
  ASSERT_TRUE(located.ok());
  EXPECT_EQ(located->estimate.anchors.size(), 3u);
  EXPECT_GE(located->estimate.relaxation_cost, 0.0);
  EXPECT_EQ(located->estimate.part_index, 0u);
}

TEST(LocateAnchors, NonConvexAreaEstimateInsideArea) {
  auto l = Polygon::Create({{0.0, 0.0},
                            {20.0, 0.0},
                            {20.0, 6.0},
                            {8.0, 6.0},
                            {8.0, 14.0},
                            {0.0, 14.0}});
  ASSERT_TRUE(l.ok());
  auto engine = NomLocEngine::Create(*l);
  ASSERT_TRUE(engine.ok());
  // Strongest anchor deep in the vertical arm.
  std::vector<localization::Anchor> anchors{{{2.0, 12.0}, 8.0, false},
                                            {{2.0, 2.0}, 2.0, false},
                                            {{18.0, 2.0}, 1.0, false}};
  auto located = FromAnchors(*engine, anchors);
  ASSERT_TRUE(located.ok());
  const Vec2 p = located->estimate.position;
  EXPECT_TRUE(l->Contains(p, 1e-5));
  // Should land in the vertical arm, near the strong anchor's cell.
  EXPECT_LT(p.y, 15.0);
  EXPECT_GT(p.y, 4.0);
}

TEST(EngineCreate, ValidatesSolverOptions) {
  NomLocConfig bad;
  bad.solver.boundary_weight = -1.0;
  EXPECT_EQ(NomLocEngine::Create(Polygon::Rectangle(0, 0, 1, 1), bad)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
}

TEST(LocateRequest, RejectsObservationsAndAnchorsTogether) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(3);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}};
  const auto obs = Observe(env, {4.0, 3.0}, aps, 5, rng);
  std::vector<localization::Anchor> anchors{{{1.0, 1.0}, 4.0, false},
                                            {{9.0, 1.0}, 2.0, false}};
  LocateRequest request;
  request.observations = obs;
  request.anchors = anchors;
  EXPECT_EQ(engine.Locate(request).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(LocateRequest, ResponseCarriesDiagnosticsAndTimings) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(3);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}};
  const auto obs = Observe(env, {4.0, 3.0}, aps, 10, rng);
  LocateRequest request;
  request.observations = obs;
  auto response = engine.Locate(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->anchor_count, 4u);
  EXPECT_EQ(response->judgement_count, 6u);  // C(4,2), all static pairs.
  EXPECT_EQ(response->constraint_count, 6u);
  EXPECT_GT(response->lp_iterations, 0u);
  EXPECT_GT(response->timings.extract_s, 0.0);
  EXPECT_GT(response->timings.solve_s, 0.0);
  EXPECT_GE(response->timings.total_s,
            response->timings.extract_s + response->timings.solve_s);
  EXPECT_TRUE(engine.Area().Contains(response->estimate.position, 1e-5));
}

TEST(LocateBatch, BitIdenticalToSerialLoopForAnyThreadCount) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(17);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}, {6, 4}};
  const std::vector<Vec2> truths{{4, 3}, {9, 5}, {2, 6}, {6, 2},
                                 {10, 3}, {3, 2}, {8, 6}, {5, 5}};
  std::vector<std::vector<ApObservation>> observation_sets;
  for (const Vec2 truth : truths)
    observation_sets.push_back(Observe(env, truth, aps, 15, rng));
  std::vector<LocateRequest> requests(observation_sets.size());
  for (std::size_t i = 0; i < observation_sets.size(); ++i)
    requests[i].observations = observation_sets[i];

  // Reference: plain serial Locate loop.
  std::vector<Vec2> serial;
  for (const LocateRequest& request : requests) {
    auto response = engine.Locate(request);
    ASSERT_TRUE(response.ok());
    serial.push_back(response->estimate.position);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto batch = engine.LocateBatch(requests, threads);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ((*batch)[i].estimate.position, serial[i])
          << "request " << i << " with " << threads << " threads";
      EXPECT_EQ((*batch)[i].estimate.relaxation_cost,
                engine.Locate(requests[i])->estimate.relaxation_cost);
    }
  }
}

TEST(LocateBatch, LowestIndexErrorWins) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 10, 8));
  std::vector<localization::Anchor> good{{{1.0, 1.0}, 4.0, false},
                                         {{9.0, 1.0}, 2.0, false}};
  // Coincident anchors -> kFailedPrecondition; too few -> kInvalidArgument.
  std::vector<localization::Anchor> coincident{{{3.0, 3.0}, 2.0, false},
                                               {{3.0, 3.0}, 1.0, false}};
  std::vector<localization::Anchor> short_set{{{1.0, 1.0}, 4.0, false}};
  std::vector<LocateRequest> requests(3);
  requests[0].anchors = good;
  requests[1].anchors = coincident;
  requests[2].anchors = short_set;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto batch = engine.LocateBatch(requests, threads);
    EXPECT_EQ(batch.status().code(), common::StatusCode::kFailedPrecondition)
        << "with " << threads << " threads";
  }
}

TEST(LocateBatch, EmptyBatchIsEmptySuccess) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 10, 8));
  auto batch = engine.LocateBatch({}, 4);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

// Deterministic anchors without the channel simulator: PDP falls off
// with distance from the truth point.
std::vector<localization::Anchor> AnchorsAt(Vec2 truth,
                                            std::span<const Vec2> aps) {
  std::vector<localization::Anchor> out;
  for (const Vec2 ap : aps)
    out.push_back({ap, 1.0 / (1.0 + geometry::DistanceSq(truth, ap)), false});
  return out;
}

TEST(LocateSession, IncrementalSessionTracksMovingObject) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 12, 8));
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}, {6, 4}};
  auto session = engine.MakeSolverSession();
  // One warm session follows the object; every fix must agree with the
  // stateless answer to solver tolerance.
  for (double s = 0.0; s <= 1.0; s += 0.125) {
    const Vec2 truth{2.0 + 8.0 * s, 2.0 + 4.0 * s};
    const auto anchors = AnchorsAt(truth, aps);
    LocateRequest request;
    request.anchors = anchors;
    auto warm = engine.Locate(request, &session);
    auto cold = engine.Locate(request);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_TRUE(cold.ok());
    EXPECT_NEAR(warm->estimate.position.x, cold->estimate.position.x, 1e-6);
    EXPECT_NEAR(warm->estimate.position.y, cold->estimate.position.y, 1e-6);
    EXPECT_NEAR(warm->estimate.relaxation_cost,
                cold->estimate.relaxation_cost, 1e-6);
    EXPECT_EQ(warm->degradation, cold->degradation);
  }
}

TEST(LocateSession, NullSessionIsPlainLocate) {
  const NomLocEngine engine = MakeEngine(Polygon::Rectangle(0, 0, 12, 8));
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}};
  const auto anchors = AnchorsAt({4.0, 3.0}, aps);
  LocateRequest request;
  request.anchors = anchors;
  auto with_null = engine.Locate(request, nullptr);
  auto plain = engine.Locate(request);
  ASSERT_TRUE(with_null.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(with_null->estimate.position, plain->estimate.position);
}

TEST(Locate, DeterministicGivenSameObservations) {
  const channel::IndoorEnvironment env = EmptyRoom();
  const NomLocEngine engine = MakeEngine(env.Boundary());
  common::Rng rng(11);
  const std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}};
  const auto obs = Observe(env, {5.0, 5.0}, aps, 20, rng);
  auto a = FromObservations(engine, obs);
  auto b = FromObservations(engine, obs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimate.position, b->estimate.position);
}

}  // namespace
}  // namespace nomloc::core

// Equivalence suite for the stateful SpSolverSession (sp_session.h): every
// Solve() must agree with from-scratch SolveSp over the active constraint
// set to solver tolerance across seeded add/decay schedules — including
// degenerate regions, non-convex floors, and the fallback degradation
// ladder.
#include "localization/sp_session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "geometry/convex_decomp.h"
#include "localization/fallback.h"
#include "localization/sp_solver.h"

namespace nomloc::localization {
namespace {

using geometry::HalfPlane;
using geometry::Polygon;
using geometry::Vec2;

constexpr double kTol = 1e-6;

std::vector<SpConstraint> IdealConstraints(Vec2 truth,
                                           std::span<const Vec2> aps,
                                           double weight = 0.9) {
  std::vector<SpConstraint> out;
  for (std::size_t i = 0; i < aps.size(); ++i) {
    for (std::size_t j = i + 1; j < aps.size(); ++j) {
      const bool i_closer = Distance(truth, aps[i]) <= Distance(truth, aps[j]);
      const Vec2 w = i_closer ? aps[i] : aps[j];
      const Vec2 l = i_closer ? aps[j] : aps[i];
      out.push_back({HalfPlane::CloserTo(w, l), weight, false});
    }
  }
  return out;
}

// One random bisector constraint; contradiction_p controls how often the
// direction is flipped (flipped constraints conflict with the consistent
// ones and force the LP to relax something).
SpConstraint RandomConstraint(common::Rng& rng, Vec2 truth,
                              double contradiction_p) {
  const Vec2 a{rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 7.5)};
  Vec2 b{rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 7.5)};
  while (Distance(a, b) < 0.5) b = {rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 7.5)};
  bool a_closer = Distance(truth, a) <= Distance(truth, b);
  if (rng.Bernoulli(contradiction_p)) a_closer = !a_closer;
  const Vec2 w = a_closer ? a : b;
  const Vec2 l = a_closer ? b : a;
  return {HalfPlane::CloserTo(w, l), rng.Uniform(0.3, 1.0), false};
}

void ExpectBitIdentical(const SpSolution& a, const SpSolution& b) {
  EXPECT_EQ(a.estimate.x, b.estimate.x);
  EXPECT_EQ(a.estimate.y, b.estimate.y);
  EXPECT_EQ(a.relaxation_cost, b.relaxation_cost);
  EXPECT_EQ(a.best_part, b.best_part);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.feasible_area_m2, b.feasible_area_m2);
  ASSERT_EQ(a.parts.size(), b.parts.size());
  for (std::size_t i = 0; i < a.parts.size(); ++i) {
    EXPECT_EQ(a.parts[i].violated, b.parts[i].violated);
    ASSERT_EQ(a.parts[i].region.size(), b.parts[i].region.size());
    for (std::size_t v = 0; v < a.parts[i].region.size(); ++v) {
      EXPECT_EQ(a.parts[i].region[v].x, b.parts[i].region[v].x);
      EXPECT_EQ(a.parts[i].region[v].y, b.parts[i].region[v].y);
    }
  }
}

void ExpectEquivalent(const SpSolution& got, const SpSolution& want,
                      const char* context) {
  EXPECT_NEAR(got.estimate.x, want.estimate.x, kTol) << context;
  EXPECT_NEAR(got.estimate.y, want.estimate.y, kTol) << context;
  EXPECT_NEAR(got.relaxation_cost, want.relaxation_cost, kTol) << context;
  EXPECT_NEAR(got.feasible_area_m2, want.feasible_area_m2, 1e-4) << context;
  ASSERT_EQ(got.parts.size(), want.parts.size()) << context;
  for (std::size_t i = 0; i < got.parts.size(); ++i)
    EXPECT_EQ(got.parts[i].violated, want.parts[i].violated)
        << context << " part " << i;
}

// Drives the same seeded add/decay schedule through a session and through
// from-scratch SolveSp, comparing after every step.
void RunSchedule(std::uint64_t seed, const std::vector<Polygon>& parts,
                 double contradiction_p) {
  const SpSolverOptions options;
  common::Rng rng(seed);
  const Vec2 truth{rng.Uniform(2.0, 8.0), rng.Uniform(2.0, 6.0)};
  SpSolverSession session(parts, options);

  std::vector<SpSolverSession::ConstraintId> live;
  for (int step = 0; step < 30; ++step) {
    const bool add = live.size() < 4 || rng.Bernoulli(0.7);
    if (add) {
      std::vector<SpConstraint> batch;
      const std::size_t count = 1 + rng.UniformInt(3);
      for (std::size_t i = 0; i < count; ++i)
        batch.push_back(RandomConstraint(rng, truth, contradiction_p));
      auto first = session.AddConstraints(batch);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      for (std::size_t i = 0; i < count; ++i) live.push_back(*first + i);
    } else {
      const std::size_t victim = rng.UniformInt(live.size());
      const SpSolverSession::ConstraintId ids[] = {live[victim]};
      ASSERT_TRUE(session.DecayConstraints(ids).ok());
      live.erase(live.begin() + std::ptrdiff_t(victim));
    }
    if (live.empty()) continue;

    auto got = session.Solve();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = SolveSp(parts, session.ActiveConstraints(), options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    ExpectEquivalent(*got, *want, context.c_str());
  }
}

std::vector<Polygon> OneRoom() {
  return {Polygon::Rectangle(0.0, 0.0, 10.0, 8.0)};
}

std::vector<Polygon> LShapedFloor() {
  // L-shape: 10x8 with the top-right 4x4 notch removed.
  auto area = Polygon::Create({{0, 0}, {10, 0}, {10, 4}, {6, 4}, {6, 8},
                               {0, 8}});
  EXPECT_TRUE(area.ok());
  auto parts = geometry::DecomposeConvex(*area);
  EXPECT_TRUE(parts.ok());
  return *parts;
}

TEST(SpSessionIncremental, MatchesBatchOverSchedules) {
  for (std::uint64_t seed : {3ull, 17ull, 99ull, 123ull})
    RunSchedule(seed, OneRoom(), 0.25);
}

TEST(SpSessionIncremental, MatchesBatchOnConsistentConstraints) {
  // Pure fast-path regime: no contradictions, the LP never engages.
  RunSchedule(5, OneRoom(), 0.0);
}

TEST(SpSessionIncremental, MatchesBatchOnNonConvexFloor) {
  RunSchedule(11, LShapedFloor(), 0.25);
}

TEST(SpSessionIncremental, DegenerateRegionPinch) {
  // Two parallel bisectors squeeze the region to a sliver, then conflict
  // outright; the session must track the batch through the transition.
  const auto parts = OneRoom();
  const SpSolverOptions options;
  SpSolverSession session(parts, options);

  // zx <= 5 (closer to (4,4) than (6,4)), then increasingly tight from
  // the right until contradiction.
  std::vector<SpConstraint> first{{HalfPlane::CloserTo({4, 4}, {6, 4}), 1.0,
                                   false}};
  ASSERT_TRUE(session.AddConstraints(first).ok());
  for (double x : {8.0, 7.0, 6.0, 5.2, 5.05, 4.8, 4.0}) {
    // Closer to (x-2, 4) than ... mirrored pair pushing from the left:
    // keeps x >= x-1 roughly; final ones contradict the first constraint.
    std::vector<SpConstraint> c{{HalfPlane::CloserTo({x, 4.0}, {x - 2.0, 4.0}),
                                 1.3, false}};
    ASSERT_TRUE(session.AddConstraints(c).ok());
    auto got = session.Solve();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = SolveSp(parts, session.ActiveConstraints(), options);
    ASSERT_TRUE(want.ok());
    ExpectEquivalent(*got, *want, "pinch");
  }
}

TEST(SpSessionIncremental, FastpathAndWarmCountersMove) {
  auto& registry = common::MetricRegistry::Global();
  const auto fast0 = registry.Counter("solver.fastpath_hits").Value();
  const auto warm0 = registry.Counter("solver.warm_hits").Value();

  const auto parts = OneRoom();
  const SpSolverOptions options;
  SpSolverSession session(parts, options);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};

  // Consistent adds: fast path.
  ASSERT_TRUE(session.AddConstraints(IdealConstraints({3, 2}, aps)).ok());
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_GT(registry.Counter("solver.fastpath_hits").Value(), fast0);

  // A contradiction forces the LP; the next delta re-solves warm.
  std::vector<SpConstraint> clash{
      {HalfPlane::CloserTo({9, 7}, {3, 2}), 2.0, false},
      {HalfPlane::CloserTo({1, 1}, {9, 7}), 2.0, false}};
  ASSERT_TRUE(session.AddConstraints(clash).ok());
  ASSERT_TRUE(session.Solve().ok());
  std::vector<SpConstraint> more{
      {HalfPlane::CloserTo({2, 2}, {8, 6}), 0.7, false}};
  ASSERT_TRUE(session.AddConstraints(more).ok());
  ASSERT_TRUE(session.Solve().ok());
  EXPECT_GT(registry.Counter("solver.warm_hits").Value(), warm0);
}

TEST(SpSessionIncremental, RepeatedSolveWithoutDeltasIsStable) {
  const auto parts = OneRoom();
  const SpSolverOptions options;
  SpSolverSession session(parts, options);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  ASSERT_TRUE(session.AddConstraints(IdealConstraints({4, 3}, aps)).ok());
  auto first = session.Solve();
  ASSERT_TRUE(first.ok());
  auto second = session.Solve();
  ASSERT_TRUE(second.ok());
  ExpectBitIdentical(*first, *second);
}

TEST(SpSession, ReplaceConstraintsKeepsMatchesAndDiffsRest) {
  const auto parts = OneRoom();
  const SpSolverOptions options;
  SpSolverSession session(parts, options);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  const auto set_a = IdealConstraints({3, 2}, aps);
  ASSERT_TRUE(session.ReplaceConstraints(set_a).ok());
  EXPECT_EQ(session.ActiveConstraintCount(), set_a.size());
  const std::size_t total_after_a = session.ConstraintCount();

  // Same set again: pure match, nothing added or decayed.
  ASSERT_TRUE(session.ReplaceConstraints(set_a).ok());
  EXPECT_EQ(session.ConstraintCount(), total_after_a);
  EXPECT_EQ(session.ActiveConstraintCount(), set_a.size());

  // Shifted truth: overlapping set — some bisectors flip, some persist.
  const auto set_b = IdealConstraints({6, 5}, aps);
  ASSERT_TRUE(session.ReplaceConstraints(set_b).ok());
  EXPECT_EQ(session.ActiveConstraintCount(), set_b.size());
  auto got = session.Solve();
  ASSERT_TRUE(got.ok());
  auto want = SolveSp(parts, set_b, options);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(*got, *want, "replace");
}

TEST(SpSession, DecayUnknownIdFails) {
  SpSolverSession session(OneRoom(), {});
  const SpSolverSession::ConstraintId ids[] = {5};
  EXPECT_EQ(session.DecayConstraints(ids).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SpSession, SolveWithNoConstraintsFailsLikeBatch) {
  SpSolverSession session(OneRoom(), {});
  EXPECT_EQ(session.Solve().status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SpSession, RejectsBoundaryConstraints) {
  SpSolverSession session(OneRoom(), {});
  std::vector<SpConstraint> bad{{HalfPlane{{1, 0}, 5.0}, 1.0, true}};
  EXPECT_EQ(session.AddConstraints(bad).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SpSession, ClearRestartsTheSession) {
  const auto parts = OneRoom();
  const SpSolverOptions options;
  SpSolverSession session(parts, options);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  ASSERT_TRUE(session.AddConstraints(IdealConstraints({3, 2}, aps)).ok());
  ASSERT_TRUE(session.Solve().ok());
  session.Clear();
  EXPECT_EQ(session.ActiveConstraintCount(), 0u);
  EXPECT_EQ(session.ConstraintCount(), 0u);
  auto first = session.AddConstraints(IdealConstraints({6, 5}, aps));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 0u);  // Ids restart.
  auto got = session.Solve();
  ASSERT_TRUE(got.ok());
  auto want = SolveSp(parts, session.ActiveConstraints(), options);
  ASSERT_TRUE(want.ok());
  ExpectEquivalent(*got, *want, "post-clear");
}

TEST(SpSessionLadder, ResilientSessionMatchesStatelessLadder) {
  // Force degradation with a tight cost budget over contradictory
  // constraints: the session ladder and the stateless ladder must agree
  // on level, drops, and estimate.
  const auto parts = OneRoom();
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  std::vector<Anchor> anchors;
  for (const Vec2& p : aps) anchors.push_back({p, 1.0, false});

  SpSolverOptions options;
  options.fallback.max_relaxation_cost = 0.05;

  auto constraints = IdealConstraints({3, 2}, aps, 0.9);
  // Contradictions with low confidence — level 1 sheds them.
  constraints.push_back({HalfPlane::CloserTo({9, 7}, {3, 2}), 0.2, false});
  constraints.push_back({HalfPlane::CloserTo({8, 1}, {3, 2}), 0.1, false});

  SpSolverSession session(parts, options);
  ASSERT_TRUE(session.AddConstraints(constraints).ok());
  auto via_session = SolveSpResilient(session, anchors);
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();

  auto stateless = SolveSpResilient(parts, anchors, constraints, options);
  ASSERT_TRUE(stateless.ok());

  EXPECT_EQ(via_session->level, stateless->level);
  EXPECT_NE(via_session->level, common::DegradationLevel::kNone);
  EXPECT_EQ(via_session->dropped_constraints,
            stateless->dropped_constraints);
  EXPECT_NEAR(via_session->solution.estimate.x,
              stateless->solution.estimate.x, kTol);
  EXPECT_NEAR(via_session->solution.estimate.y,
              stateless->solution.estimate.y, kTol);
}

TEST(SpSessionLadder, LadderIterationsAreCounted) {
  // The level-1 winning retry must report level-0's wasted LP work too.
  const auto parts = OneRoom();
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  std::vector<Anchor> anchors;
  for (const Vec2& p : aps) anchors.push_back({p, 1.0, false});

  SpSolverOptions options;
  options.fallback.max_relaxation_cost = 0.05;
  auto constraints = IdealConstraints({3, 2}, aps, 0.9);
  constraints.push_back({HalfPlane::CloserTo({9, 7}, {3, 2}), 0.2, false});
  constraints.push_back({HalfPlane::CloserTo({8, 1}, {3, 2}), 0.1, false});

  auto resilient = SolveSpResilient(parts, anchors, constraints, options);
  ASSERT_TRUE(resilient.ok());
  ASSERT_NE(resilient->level, common::DegradationLevel::kNone);

  // The winning subset solved alone reports strictly fewer iterations
  // than the resilient solution, which also carries the failed attempts.
  auto kept_only = SolveSp(
      parts,
      std::vector<SpConstraint>(constraints.begin(),
                                constraints.end() - 2),
      options);
  ASSERT_TRUE(kept_only.ok());
  EXPECT_GT(resilient->solution.lp_iterations, kept_only->lp_iterations);
}

}  // namespace
}  // namespace nomloc::localization

#include "localization/fallback.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "geometry/halfplane.h"

namespace nomloc::localization {
namespace {

using geometry::HalfPlane;
using geometry::Polygon;
using geometry::Vec2;

std::vector<Polygon> Room() {
  return {Polygon::Rectangle(0.0, 0.0, 10.0, 8.0)};
}

// Consistent constraints for an object at `truth` among `aps` (the same
// bisector construction the solver tests use).
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

const std::vector<Vec2> kAps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};

TEST(FallbackPolicy, ValidatesKnobs) {
  EXPECT_TRUE(FallbackPolicy{}.Validate().ok());
  FallbackPolicy bad;
  bad.max_relaxation_cost = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = {};
  bad.max_relaxation_cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(bad.Validate().ok());
  bad = {};
  bad.keep_fractions = {0.5, 0.75};  // ascending
  EXPECT_FALSE(bad.Validate().ok());
  bad = {};
  bad.keep_fractions = {1.5};
  EXPECT_FALSE(bad.Validate().ok());
  bad = {};
  bad.keep_fractions = {0.5, 0.5};  // not strictly descending
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(SolveSpResilient, HealthyPathBitIdenticalToSolveSp) {
  const auto parts = Room();
  const Vec2 truth{3.0, 2.0};
  const auto constraints = IdealConstraints(truth, kAps);

  auto plain = SolveSp(parts, constraints, {});
  ASSERT_TRUE(plain.ok());
  auto resilient = SolveSpResilient(parts, {}, constraints, {});
  ASSERT_TRUE(resilient.ok()) << resilient.status().ToString();

  EXPECT_EQ(resilient->level, common::DegradationLevel::kNone);
  EXPECT_EQ(resilient->dropped_constraints, 0u);
  EXPECT_EQ(resilient->fallback_attempts, 0u);
  EXPECT_EQ(0, std::memcmp(&resilient->solution.estimate, &plain->estimate,
                           sizeof(plain->estimate)));
  EXPECT_EQ(resilient->solution.relaxation_cost, plain->relaxation_cost);
  EXPECT_EQ(resilient->solution.feasible_area_m2, plain->feasible_area_m2);
}

TEST(SolveSpResilient, TightBudgetShedsLowConfidenceContradictions) {
  const auto parts = Room();
  const Vec2 truth{3.0, 2.0};
  // Strong consistent constraints plus two low-weight judgements whose
  // half-planes miss the floor entirely — unsatisfiable anywhere, they
  // force relaxation cost into every full solve.
  auto constraints = IdealConstraints(truth, kAps, /*weight=*/0.9);
  const std::size_t healthy = constraints.size();
  constraints.push_back(
      {HalfPlane::CloserTo({5.0, -200.0}, {5.0, 0.0}), 0.05, false});
  constraints.push_back(
      {HalfPlane::CloserTo({-200.0, 4.0}, {0.0, 4.0}), 0.05, false});

  SpSolverOptions options;
  options.fallback.max_relaxation_cost = 1e-6;
  auto resilient = SolveSpResilient(parts, {}, constraints, options);
  ASSERT_TRUE(resilient.ok()) << resilient.status().ToString();
  EXPECT_EQ(resilient->level, common::DegradationLevel::kRelaxedConstraints);
  EXPECT_GT(resilient->dropped_constraints, 0u);
  EXPECT_GE(resilient->fallback_attempts, 1u);
  // The kept subset is conflict-free: the retry met the tight budget.
  EXPECT_LE(resilient->solution.relaxation_cost, 1e-6);
  // The contradictions (the constraints beyond `healthy`) were the ones
  // shed: at most that many dropped at the winning fraction.
  EXPECT_LE(resilient->dropped_constraints, constraints.size() - 1);
  EXPECT_GE(constraints.size(), healthy);
}

TEST(SolveSpResilient, ExhaustedLadderFallsBackToWeightedCentroid) {
  const auto parts = Room();
  // Every half-plane lies entirely outside the floor, so any subset —
  // even the single constraint the last keep-fraction retains — carries
  // positive relaxation cost and busts a zero budget.  The ladder must
  // exhaust down to the centroid.
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({5.0, -200.0}, {5.0, 0.0}), 0.5, false},
      {HalfPlane::CloserTo({5.0, 200.0}, {5.0, 8.0}), 0.5, false},
      {HalfPlane::CloserTo({-200.0, 4.0}, {0.0, 4.0}), 0.5, false},
      {HalfPlane::CloserTo({200.0, 4.0}, {10.0, 4.0}), 0.5, false},
  };
  const std::vector<Anchor> anchors{{{2.0, 2.0}, 3.0, false},
                                    {{8.0, 6.0}, 1.0, true}};

  SpSolverOptions options;
  options.fallback.max_relaxation_cost = 0.0;
  auto resilient = SolveSpResilient(parts, anchors, constraints, options);
  ASSERT_TRUE(resilient.ok()) << resilient.status().ToString();
  EXPECT_EQ(resilient->level, common::DegradationLevel::kWeightedCentroid);
  EXPECT_EQ(resilient->dropped_constraints, constraints.size());

  auto centroid = WeightedAnchorCentroid(parts, anchors);
  ASSERT_TRUE(centroid.ok());
  EXPECT_EQ(resilient->solution.estimate.x, centroid->x);
  EXPECT_EQ(resilient->solution.estimate.y, centroid->y);
  // The synthetic solution is well-formed for downstream readers.
  EXPECT_EQ(resilient->solution.feasible_area_m2, 80.0);
  ASSERT_EQ(resilient->solution.parts.size(), 1u);
  EXPECT_EQ(resilient->solution.parts[0].violated, constraints.size());
}

TEST(SolveSpResilient, FailsWhenNoRungCanAnswer) {
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({1.0, 1.0}, {9.0, 7.0}), 0.5, false}};
  // No parts and no anchors: every LP rung fails and the weighted
  // centroid has nothing to average, so the error must surface.
  auto resilient = SolveSpResilient({}, {}, constraints, {});
  EXPECT_EQ(resilient.status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(WeightedAnchorCentroid, PdpWeightedMeanInsideArea) {
  const auto parts = Room();
  const std::vector<Anchor> anchors{{{2.0, 2.0}, 3.0, false},
                                    {{8.0, 6.0}, 1.0, false}};
  auto centroid = WeightedAnchorCentroid(parts, anchors);
  ASSERT_TRUE(centroid.ok());
  EXPECT_DOUBLE_EQ(centroid->x, (3.0 * 2.0 + 1.0 * 8.0) / 4.0);
  EXPECT_DOUBLE_EQ(centroid->y, (3.0 * 2.0 + 1.0 * 6.0) / 4.0);
}

TEST(WeightedAnchorCentroid, CorruptPdpFallsBackToEqualWeights) {
  const auto parts = Room();
  const std::vector<Anchor> anchors{
      {{2.0, 2.0}, std::numeric_limits<double>::quiet_NaN(), false},
      {{8.0, 6.0}, -1.0, false}};
  auto centroid = WeightedAnchorCentroid(parts, anchors);
  ASSERT_TRUE(centroid.ok());
  EXPECT_DOUBLE_EQ(centroid->x, 5.0);
  EXPECT_DOUBLE_EQ(centroid->y, 4.0);
}

TEST(WeightedAnchorCentroid, OutsideEstimateClampsToNearestPartCentroid) {
  const auto parts = Room();
  // Both anchors report positions far off the floor: the weighted mean
  // lands outside, so the estimate snaps to the part centroid.
  const std::vector<Anchor> anchors{{{50.0, 50.0}, 1.0, false},
                                    {{60.0, 40.0}, 1.0, false}};
  auto centroid = WeightedAnchorCentroid(parts, anchors);
  ASSERT_TRUE(centroid.ok());
  EXPECT_DOUBLE_EQ(centroid->x, 5.0);
  EXPECT_DOUBLE_EQ(centroid->y, 4.0);
}

TEST(WeightedAnchorCentroid, NoAnchorsUsesAreaCentroidAndTypedErrorOnNothing) {
  auto area_only = WeightedAnchorCentroid(Room(), {});
  ASSERT_TRUE(area_only.ok());
  EXPECT_DOUBLE_EQ(area_only->x, 5.0);
  EXPECT_DOUBLE_EQ(area_only->y, 4.0);

  auto nothing = WeightedAnchorCentroid({}, {});
  ASSERT_FALSE(nothing.ok());
  EXPECT_EQ(nothing.status().code(), common::StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nomloc::localization

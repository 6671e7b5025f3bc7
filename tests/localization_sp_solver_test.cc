#include "localization/sp_solver.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "geometry/convex_decomp.h"

namespace nomloc::localization {
namespace {

using geometry::HalfPlane;
using geometry::Polygon;
using geometry::Vec2;

// Ideal (noise-free) constraints for an object at `truth` among `aps`:
// every pairwise bisector with the correct direction.
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

TEST(SolveSpPart, ConsistentConstraintsHaveZeroCost) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  const Vec2 truth{3.0, 2.0};
  auto sol = SolveSpPart(room, IdealConstraints(truth, aps), {});
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_NEAR(sol->relaxation_cost, 0.0, 1e-7);
  EXPECT_EQ(sol->violated, 0u);
}

TEST(SolveSpPart, EstimateInsideRegionAndRoom) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  const Vec2 truth{3.0, 2.0};
  const auto constraints = IdealConstraints(truth, aps);
  auto sol = SolveSpPart(room, constraints, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(room.Contains(sol->estimate, 1e-6));
  for (const auto& c : constraints)
    EXPECT_TRUE(c.half_plane.Contains(sol->estimate, 1e-5));
}

TEST(SolveSpPart, EstimateInTruthCell) {
  // The estimate must share the truth's distance ordering cell: the truth
  // satisfies all ideal constraints, so the region contains it.
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  common::Rng rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const Vec2 truth{rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 7.5)};
    auto sol = SolveSpPart(room, IdealConstraints(truth, aps), {});
    ASSERT_TRUE(sol.ok());
    ASSERT_GE(sol->region.size(), 3u);
    // Truth inside the reconstructed region.
    for (const auto& hp :
         geometry::ToHalfPlanes(room))  // Sanity: room contains truth.
      EXPECT_TRUE(hp.Contains(truth));
    const double area = std::abs(geometry::SignedArea(sol->region));
    EXPECT_GT(area, 0.0);
    // The estimate is inside the same cell, so the error is bounded by the
    // cell diameter; with 4 APs cells are coarse, just check containment.
    bool truth_in_region = true;
    const std::size_t n = sol->region.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 a = sol->region[i];
      const Vec2 b = sol->region[(i + 1) % n];
      if (geometry::Cross(b - a, truth - a) < -1e-6) truth_in_region = false;
    }
    EXPECT_TRUE(truth_in_region);
  }
}

TEST(SolveSpPart, MoreAnchorsShrinkRegion) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const Vec2 truth{4.0, 3.0};
  const std::vector<Vec2> few{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  std::vector<Vec2> many = few;
  many.insert(many.end(), {{3, 4}, {6, 2}, {5, 6}, {2, 5}});
  auto sol_few = SolveSpPart(room, IdealConstraints(truth, few), {});
  auto sol_many = SolveSpPart(room, IdealConstraints(truth, many), {});
  ASSERT_TRUE(sol_few.ok());
  ASSERT_TRUE(sol_many.ok());
  const double area_few = std::abs(geometry::SignedArea(sol_few->region));
  const double area_many = std::abs(geometry::SignedArea(sol_many->region));
  EXPECT_LT(area_many, area_few);
}

TEST(SolveSpPart, ContradictoryConstraintBreaksCheapest) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  // "Closer to (1,4) than (7,4)" pins x <= 4 with high weight; "closer to
  // (9,4) than (3,4)" pins x >= 6 with low weight.  The gap forces a
  // relaxation, and the low-weight constraint must be the one that breaks.
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({1, 4}, {7, 4}), 0.95, false},
      {HalfPlane::CloserTo({9, 4}, {3, 4}), 0.55, false}};
  auto sol = SolveSpPart(room, constraints, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(sol->relaxation_cost, 0.0);
  EXPECT_EQ(sol->violated, 1u);
  // Estimate obeys the heavy constraint (x <= 4).
  EXPECT_LE(sol->estimate.x, 4.0 + 1e-6);
}

TEST(SolveSpPart, BoundaryKeepsEstimateInsideDespiteOutwardPull) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  // All constraints push the object out the right wall: "closer to a point
  // beyond the wall than to points inside".
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({50.0, 4.0}, {1.0, 4.0}), 0.9, false}};
  auto sol = SolveSpPart(room, constraints, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(room.Contains(sol->estimate, 1e-6));
}

TEST(SolveSpPart, NonConvexPartRejected) {
  auto l = Polygon::Create(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({1, 1}, {3, 1}), 0.9, false}};
  EXPECT_EQ(SolveSpPart(*l, constraints, {}).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SolveSpPart, EmptyConstraintsRejected) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 1.0, 1.0);
  EXPECT_EQ(SolveSpPart(room, {}, {}).status().code(),
            common::StatusCode::kInvalidArgument);
}

class CenterMethodTest : public ::testing::TestWithParam<CenterMethod> {};

TEST_P(CenterMethodTest, EstimateStaysInRegion) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}, {5, 4}};
  common::Rng rng(9);
  SpSolverOptions options;
  options.center = GetParam();
  for (int trial = 0; trial < 10; ++trial) {
    const Vec2 truth{rng.Uniform(0.5, 9.5), rng.Uniform(0.5, 7.5)};
    const auto constraints = IdealConstraints(truth, aps);
    auto sol = SolveSpPart(room, constraints, options);
    ASSERT_TRUE(sol.ok()) << sol.status().ToString();
    EXPECT_TRUE(room.Contains(sol->estimate, 1e-5));
    for (const auto& c : constraints)
      EXPECT_TRUE(c.half_plane.Contains(sol->estimate, 1e-4));
  }
}

INSTANTIATE_TEST_SUITE_P(AllCenters, CenterMethodTest,
                         ::testing::Values(CenterMethod::kCentroid,
                                           CenterMethod::kChebyshev,
                                           CenterMethod::kAnalytic));

TEST(SolveSp, SinglePartMatchesSolveSpPart) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 10.0, 8.0);
  const std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}};
  const auto constraints = IdealConstraints({3.0, 2.0}, aps);
  const std::vector<Polygon> parts{room};
  auto multi = SolveSp(parts, constraints, {});
  auto single = SolveSpPart(room, constraints, {});
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(multi->estimate.x, single->estimate.x, 1e-9);
  EXPECT_NEAR(multi->estimate.y, single->estimate.y, 1e-9);
  EXPECT_EQ(multi->best_part, 0u);
}

TEST(SolveSp, PicksThePartContainingTheTruth) {
  // L-shaped area decomposed into convex parts; the object sits deep in
  // the vertical arm, so the horizontal arm's program must cost more.
  auto l = Polygon::Create({{0.0, 0.0},
                            {20.0, 0.0},
                            {20.0, 6.0},
                            {8.0, 6.0},
                            {8.0, 14.0},
                            {0.0, 14.0}});
  ASSERT_TRUE(l.ok());
  auto parts = geometry::DecomposeConvex(*l);
  ASSERT_TRUE(parts.ok());
  const std::vector<Vec2> aps{{2, 2}, {18, 2}, {12, 5}, {3, 12}};
  const Vec2 truth{3.0, 11.0};
  auto sol = SolveSp(*parts, IdealConstraints(truth, aps), {});
  ASSERT_TRUE(sol.ok());
  // Estimate lands in a part containing points near the truth.
  EXPECT_LT(Distance(sol->estimate, truth), 6.0);
  EXPECT_TRUE((*parts)[sol->best_part].Contains(truth, 1e-6) ||
              sol->relaxation_cost < 1e-6);
  EXPECT_TRUE(l->Contains(sol->estimate, 1e-5));
}

TEST(SolveSp, EmptyPartListRejected) {
  std::vector<SpConstraint> constraints{
      {HalfPlane::CloserTo({0, 0}, {1, 0}), 0.9, false}};
  EXPECT_EQ(SolveSp({}, constraints, {}).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SolveSp, ReportsPerPartSolutions) {
  auto l = Polygon::Create(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  auto parts = geometry::DecomposeConvex(*l);
  ASSERT_TRUE(parts.ok());
  const std::vector<Vec2> aps{{1, 1}, {3, 1}, {1, 3}};
  auto sol = SolveSp(*parts, IdealConstraints({1.0, 1.0}, aps), {});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->parts.size(), parts->size());
}

// Property: adding a nomadic anchor (more constraints) never increases the
// winning region's area for the same truth.
TEST(SolveSpProperty, NomadicDownscopingShrinksRegions) {
  const Polygon room = Polygon::Rectangle(0.0, 0.0, 12.0, 8.0);
  common::Rng rng(21);
  for (int trial = 0; trial < 15; ++trial) {
    const Vec2 truth{rng.Uniform(1.0, 11.0), rng.Uniform(1.0, 7.0)};
    std::vector<Vec2> aps{{1, 1}, {11, 1}, {11, 7}, {1, 7}};
    auto before = SolveSpPart(room, IdealConstraints(truth, aps), {});
    aps.push_back({rng.Uniform(2.0, 10.0), rng.Uniform(2.0, 6.0)});
    auto after = SolveSpPart(room, IdealConstraints(truth, aps), {});
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    const double area_before =
        std::abs(geometry::SignedArea(before->region));
    const double area_after = std::abs(geometry::SignedArea(after->region));
    EXPECT_LE(area_after, area_before + 1e-6);
  }
}

}  // namespace
}  // namespace nomloc::localization

#include "geometry/halfplane.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace nomloc::geometry {
namespace {

TEST(HalfPlane, SlackAndContains) {
  const HalfPlane hp{{1.0, 0.0}, 2.0};  // x <= 2.
  EXPECT_DOUBLE_EQ(hp.Slack({0.0, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(hp.Slack({2.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(hp.Slack({3.0, 0.0}), -1.0);
  EXPECT_TRUE(hp.Contains({1.0, 0.0}));
  EXPECT_TRUE(hp.Contains({2.0, 0.0}));
  EXPECT_FALSE(hp.Contains({2.1, 0.0}));
}

TEST(HalfPlane, RelaxedShiftsBoundary) {
  const HalfPlane hp{{1.0, 0.0}, 2.0};
  const HalfPlane relaxed = hp.Relaxed(1.5);
  EXPECT_TRUE(relaxed.Contains({3.0, 0.0}));
  EXPECT_FALSE(relaxed.Contains({3.6, 0.0}));
}

TEST(HalfPlane, CloserToIsPerpendicularBisector) {
  const Vec2 w{0.0, 0.0}, l{4.0, 0.0};
  const HalfPlane hp = HalfPlane::CloserTo(w, l);
  // Points closer to w satisfy it; midpoint is on the boundary.
  EXPECT_TRUE(hp.Contains({1.0, 0.0}));
  EXPECT_FALSE(hp.Contains({3.0, 0.0}));
  EXPECT_NEAR(hp.Slack({2.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(hp.Slack({2.0, 7.0}), 0.0, 1e-12);  // Whole bisector.
}

TEST(HalfPlane, CloserToMatchesPaperEq7) {
  // Eq. 7: 2(xj-xi) x + 2(yj-yi) y <= xj^2+yj^2-xi^2-yi^2 (i=winner).
  const Vec2 w{1.0, 2.0}, l{-3.0, 5.0};
  const HalfPlane hp = HalfPlane::CloserTo(w, l);
  EXPECT_DOUBLE_EQ(hp.a.x, 2.0 * (l.x - w.x));
  EXPECT_DOUBLE_EQ(hp.a.y, 2.0 * (l.y - w.y));
  EXPECT_DOUBLE_EQ(hp.c, l.NormSq() - w.NormSq());
}

TEST(HalfPlane, CloserToCoincidentThrows) {
  EXPECT_THROW(HalfPlane::CloserTo({1.0, 1.0}, {1.0, 1.0}), std::logic_error);
}

// Property: random points' membership in CloserTo(w,l) matches the actual
// distance comparison.
TEST(HalfPlaneProperty, CloserToAgreesWithDistances) {
  common::Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec2 w{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    Vec2 l{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    if (Distance(w, l) < 1e-6) continue;
    const HalfPlane hp = HalfPlane::CloserTo(w, l);
    const Vec2 p{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const bool closer_to_w = Distance(p, w) <= Distance(p, l) + 1e-9;
    EXPECT_EQ(hp.Contains(p, 1e-6), closer_to_w);
  }
}

TEST(ClipLoop, HalvesSquare) {
  const Vec2 square[] = {{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0}};
  const auto clipped = ClipLoop(square, {{1.0, 0.0}, 1.0});  // x <= 1.
  ASSERT_EQ(clipped.size(), 4u);
  EXPECT_NEAR(std::abs(SignedArea(clipped)), 2.0, 1e-12);
  for (const Vec2 v : clipped) EXPECT_LE(v.x, 1.0 + 1e-12);
}

TEST(ClipLoop, NoOpWhenFullyInside) {
  const Vec2 square[] = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const auto clipped = ClipLoop(square, {{1.0, 0.0}, 5.0});
  EXPECT_EQ(clipped.size(), 4u);
  EXPECT_NEAR(std::abs(SignedArea(clipped)), 1.0, 1e-12);
}

TEST(ClipLoop, EmptyWhenFullyOutside) {
  const Vec2 square[] = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  const auto clipped = ClipLoop(square, {{1.0, 0.0}, -1.0});  // x <= -1.
  EXPECT_LT(clipped.size(), 3u);
}

TEST(ClipLoop, DiagonalCutMakesTriangle) {
  const Vec2 square[] = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}};
  // x + y <= 1 keeps the lower-left triangle.
  const auto clipped = ClipLoop(square, {{1.0, 1.0}, 1.0});
  EXPECT_EQ(clipped.size(), 3u);
  EXPECT_NEAR(std::abs(SignedArea(clipped)), 0.5, 1e-12);

  // The same square starting at (0,1): the last edge re-enters through the
  // first vertex, so the crossing it emits closes the loop and is dropped.
  const Vec2 rotated[] = {{0.0, 1.0}, {0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}};
  const auto triangle = ClipLoop(rotated, {{1.0, 1.0}, 1.0});
  ASSERT_EQ(triangle.size(), 3u);
  EXPECT_EQ(triangle[0], (Vec2{0.0, 1.0}));
  EXPECT_EQ(triangle[1], (Vec2{0.0, 0.0}));
  EXPECT_EQ(triangle[2], (Vec2{1.0, 0.0}));
}

TEST(ClipLoop, EmptyInputStaysEmpty) {
  EXPECT_TRUE(ClipLoop({}, {{1.0, 0.0}, 0.0}).empty());
}

TEST(IntersectConvex, SquareWithTwoHalfPlanes) {
  const Polygon sq = Polygon::Rectangle(0.0, 0.0, 4.0, 4.0);
  const HalfPlane hps[] = {{{1.0, 0.0}, 2.0},   // x <= 2
                           {{0.0, -1.0}, -1.0}}; // y >= 1
  const auto result = IntersectConvex(sq, hps);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->Area(), 6.0, 1e-9);
  EXPECT_TRUE(result->IsConvex());
}

TEST(IntersectConvex, EmptyIntersection) {
  const Polygon sq = Polygon::Rectangle(0.0, 0.0, 1.0, 1.0);
  const HalfPlane hps[] = {{{1.0, 0.0}, -5.0}};
  EXPECT_FALSE(IntersectConvex(sq, hps).has_value());
}

TEST(IntersectConvex, DegenerateSliver) {
  const Polygon sq = Polygon::Rectangle(0.0, 0.0, 1.0, 1.0);
  // Keep only a hair-thin band.
  const HalfPlane hps[] = {{{1.0, 0.0}, 1e-12}};
  EXPECT_FALSE(IntersectConvex(sq, hps).has_value());
}

TEST(IntersectConvex, NonConvexInputThrows) {
  auto l = Polygon::Create(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  const HalfPlane hps[] = {{{1.0, 0.0}, 2.0}};
  EXPECT_THROW((void)IntersectConvex(*l, hps), std::logic_error);
}

// Property: repeated clipping by random half-planes through the square
// never increases area and keeps all vertices inside every half-plane.
TEST(ClipLoopProperty, MonotoneAreaAndFeasibleVertices) {
  common::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Vec2> loop{{0.0, 0.0}, {10.0, 0.0}, {10.0, 10.0}, {0.0, 10.0}};
    std::vector<HalfPlane> applied;
    double prev_area = 100.0;
    for (int k = 0; k < 6 && loop.size() >= 3; ++k) {
      const double angle = rng.UniformAngle();
      const Vec2 n{std::cos(angle), std::sin(angle)};
      const Vec2 through{rng.Uniform(2.0, 8.0), rng.Uniform(2.0, 8.0)};
      const HalfPlane hp{n, Dot(n, through)};
      applied.push_back(hp);
      loop = ClipLoop(loop, hp);
      const double area = loop.size() >= 3 ? std::abs(SignedArea(loop)) : 0.0;
      EXPECT_LE(area, prev_area + 1e-9);
      prev_area = area;
      for (const Vec2 v : loop)
        for (const HalfPlane& h : applied)
          EXPECT_TRUE(h.Contains(v, 1e-6));
    }
  }
}

TEST(LoopCentroid, MatchesPolygonCentroid) {
  const Polygon sq = Polygon::Rectangle(1.0, 1.0, 3.0, 5.0);
  const Vec2 c = LoopCentroid(sq.Vertices());
  EXPECT_NEAR(c.x, 2.0, 1e-12);
  EXPECT_NEAR(c.y, 3.0, 1e-12);
}

TEST(LoopCentroid, DegenerateFallsBackToVertexMean) {
  const Vec2 two[] = {{0.0, 0.0}, {2.0, 0.0}};
  const Vec2 c = LoopCentroid(two);
  EXPECT_NEAR(c.x, 1.0, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
}

TEST(LoopCentroid, EmptyIsOrigin) {
  EXPECT_EQ(LoopCentroid({}), Vec2(0.0, 0.0));
}

TEST(ToHalfPlanes, SquareGivesFourContainingPlanes) {
  const Polygon sq = Polygon::Rectangle(0.0, 0.0, 2.0, 2.0);
  const auto hps = ToHalfPlanes(sq);
  ASSERT_EQ(hps.size(), 4u);
  // Interior point satisfies all; exterior point violates at least one.
  for (const HalfPlane& hp : hps) EXPECT_TRUE(hp.Contains({1.0, 1.0}));
  int violated = 0;
  for (const HalfPlane& hp : hps)
    if (!hp.Contains({3.0, 1.0})) ++violated;
  EXPECT_GE(violated, 1);
}

TEST(ToHalfPlanes, RoundTripsThroughIntersect) {
  const Polygon sq = Polygon::Rectangle(0.0, 0.0, 3.0, 2.0);
  const Polygon big = Polygon::Rectangle(-10.0, -10.0, 10.0, 10.0);
  const auto result = IntersectConvex(big, ToHalfPlanes(sq));
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->Area(), 6.0, 1e-9);
}

TEST(ToHalfPlanes, NonConvexThrows) {
  auto l = Polygon::Create(
      {{0.0, 0.0}, {4.0, 0.0}, {4.0, 2.0}, {2.0, 2.0}, {2.0, 4.0}, {0.0, 4.0}});
  EXPECT_THROW(ToHalfPlanes(*l), std::logic_error);
}

}  // namespace
}  // namespace nomloc::geometry

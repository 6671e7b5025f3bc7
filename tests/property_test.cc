// Cross-module randomized property tests: invariants that must hold for
// *any* input, checked over seeded random sweeps.  These complement the
// per-module unit tests with the algebra the system relies on: geometric
// transforms, Fourier identities, LP duality/scaling, channel reciprocity,
// and end-to-end invariances of the NomLoc pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "channel/csi_model.h"
#include "common/rng.h"
#include "core/nomloc.h"
#include "dsp/fft.h"
#include "geometry/hull.h"
#include "localization/proximity.h"
#include "localization/sp_solver.h"
#include "lp/simplex.h"

namespace nomloc {
namespace {

using geometry::Polygon;
using geometry::Vec2;

// ---------------------------------------------------------------- geometry

class GeometryTransformTest : public ::testing::TestWithParam<int> {};

TEST_P(GeometryTransformTest, AreaInvariantCentroidCovariant) {
  common::Rng rng{std::uint64_t(GetParam())};
  // Random convex polygon from a point-cloud hull.
  std::vector<Vec2> cloud;
  for (int i = 0; i < 24; ++i)
    cloud.push_back({rng.Uniform(-5, 5), rng.Uniform(-5, 5)});
  const auto hull = geometry::ConvexHull(cloud);
  ASSERT_GE(hull.size(), 3u);
  auto poly = Polygon::Create({hull.begin(), hull.end()});
  ASSERT_TRUE(poly.ok());

  const double angle = rng.UniformAngle();
  const Vec2 shift{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
  std::vector<Vec2> moved;
  for (const Vec2 v : poly->Vertices())
    moved.push_back(v.Rotated(angle) + shift);
  auto moved_poly = Polygon::Create(std::move(moved));
  ASSERT_TRUE(moved_poly.ok());

  EXPECT_NEAR(moved_poly->Area(), poly->Area(), 1e-9);
  EXPECT_NEAR(moved_poly->Perimeter(), poly->Perimeter(), 1e-9);
  const Vec2 expected_centroid = poly->Centroid().Rotated(angle) + shift;
  EXPECT_NEAR(moved_poly->Centroid().x, expected_centroid.x, 1e-9);
  EXPECT_NEAR(moved_poly->Centroid().y, expected_centroid.y, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometryTransformTest,
                         ::testing::Range(1, 11));

TEST(GeometryProperty, MirrorTwicePreservesDistances) {
  common::Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    const geometry::Line line = geometry::Line::Through(
        {rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
        {rng.Uniform(-5, 5) + 0.1, rng.Uniform(-5, 5) + 0.1});
    const Vec2 a{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Vec2 b{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    // Reflection is an isometry.
    EXPECT_NEAR(Distance(line.Mirror(a), line.Mirror(b)), Distance(a, b),
                1e-9);
  }
}

// -------------------------------------------------------------------- dsp

class FftIdentityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftIdentityTest, RealInputHasHermitianSpectrum) {
  const std::size_t n = GetParam();
  common::Rng rng(n);
  std::vector<dsp::Cplx> x(n);
  for (auto& v : x) v = {rng.Uniform(-1, 1), 0.0};
  const auto spectrum = dsp::Fft(x);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(spectrum[k].real(), spectrum[n - k].real(), 1e-9);
    EXPECT_NEAR(spectrum[k].imag(), -spectrum[n - k].imag(), 1e-9);
  }
}

TEST_P(FftIdentityTest, CircularShiftIsLinearPhase) {
  const std::size_t n = GetParam();
  if (n < 4) GTEST_SKIP();
  common::Rng rng(2 * n);
  std::vector<dsp::Cplx> x(n);
  for (auto& v : x) v = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
  std::vector<dsp::Cplx> shifted(n);
  const std::size_t s = 3 % n;
  for (std::size_t t = 0; t < n; ++t) shifted[(t + s) % n] = x[t];
  const auto fx = dsp::Fft(x);
  const auto fs = dsp::Fft(shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang =
        -2.0 * std::numbers::pi * double(k) * double(s) / double(n);
    const dsp::Cplx expected =
        fx[k] * dsp::Cplx(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(fs[k] - expected), 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftIdentityTest,
                         ::testing::Values(4, 8, 30, 56, 64, 100));

// --------------------------------------------------------------------- lp

TEST(LpProperty, ObjectiveScalesLinearly) {
  // min c.x scaled by k scales the optimum by k; scaling b scales the
  // optimal point for this homogeneous-constraint family.
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    lp::InequalityLp prog;
    const std::size_t m = 4 + rng.UniformInt(4);
    prog.a = lp::Matrix(m + 4, 2);
    prog.b.assign(m + 4, 0.0);
    prog.c = {rng.Uniform(-1, 1), rng.Uniform(-1, 1)};
    prog.nonneg = {false, false};
    for (std::size_t r = 0; r < m; ++r) {
      prog.a(r, 0) = rng.Uniform(-1, 1);
      prog.a(r, 1) = rng.Uniform(-1, 1);
      prog.b[r] = rng.Uniform(0.5, 2.0);
    }
    prog.a(m, 0) = 1.0;
    prog.b[m] = 4.0;
    prog.a(m + 1, 0) = -1.0;
    prog.b[m + 1] = 4.0;
    prog.a(m + 2, 1) = 1.0;
    prog.b[m + 2] = 4.0;
    prog.a(m + 3, 1) = -1.0;
    prog.b[m + 3] = 4.0;

    auto base = lp::SolveSimplex(prog);
    ASSERT_TRUE(base.ok());

    lp::InequalityLp scaled_c = prog;
    for (double& v : scaled_c.c) v *= 3.0;
    auto sc = lp::SolveSimplex(scaled_c);
    ASSERT_TRUE(sc.ok());
    EXPECT_NEAR(sc->objective, 3.0 * base->objective, 1e-7);

    lp::InequalityLp scaled_b = prog;
    for (double& v : scaled_b.b) v *= 2.0;
    auto sb = lp::SolveSimplex(scaled_b);
    ASSERT_TRUE(sb.ok());
    EXPECT_NEAR(sb->objective, 2.0 * base->objective, 1e-7);
  }
}

// ---------------------------------------------------------------- channel

TEST(ChannelProperty, RayTracingIsReciprocal) {
  // Swapping TX and RX preserves every path's length and loss (the image
  // method is symmetric; only the arrival direction flips).
  auto env = channel::IndoorEnvironment::Create(
      Polygon::Rectangle(0, 0, 12, 8), {},
      {{Polygon::Rectangle(5, 3, 7, 5), channel::materials::Wood()}});
  ASSERT_TRUE(env.ok());
  common::Rng rng(9);
  env->PlaceScatterers(6, rng);
  channel::PropagationConfig cfg;
  cfg.relative_cutoff_db = 300.0;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec2 a{rng.Uniform(0.5, 11.5), rng.Uniform(0.5, 7.5)};
    const Vec2 b{rng.Uniform(0.5, 11.5), rng.Uniform(0.5, 7.5)};
    if (!env->IsFreeSpace(a) || !env->IsFreeSpace(b)) continue;
    auto forward = channel::TracePaths(*env, a, b, cfg);
    auto backward = channel::TracePaths(*env, b, a, cfg);
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t p = 0; p < forward.size(); ++p) {
      EXPECT_NEAR(forward[p].length_m, backward[p].length_m, 1e-6);
      EXPECT_NEAR(forward[p].loss_db, backward[p].loss_db, 1e-6);
    }
  }
}

TEST(ChannelProperty, MeanResponseScalesWithTxPower) {
  auto env =
      channel::IndoorEnvironment::Create(Polygon::Rectangle(0, 0, 12, 8));
  ASSERT_TRUE(env.ok());
  for (double extra_db : {3.0, 10.0, 17.0}) {
    channel::ChannelConfig lo;
    channel::ChannelConfig hi;
    hi.tx_power_dbm = lo.tx_power_dbm + extra_db;
    const channel::CsiSimulator sl(*env, lo);
    const channel::CsiSimulator sh(*env, hi);
    const double pl =
        sl.MakeLink({1, 1}, {9, 6}).MeanResponse().TotalPower();
    const double ph =
        sh.MakeLink({1, 1}, {9, 6}).MeanResponse().TotalPower();
    EXPECT_NEAR(common::ToDb(ph / pl), extra_db, 1e-6);
  }
}

// ------------------------------------------------------------ localization

TEST(PipelineProperty, JudgementsInvariantToCommonPowerScale) {
  // PDP enters only as ratios: scaling every anchor's power by the same
  // factor changes neither directions nor confidences.
  common::Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<localization::Anchor> anchors;
    const std::size_t n = 3 + rng.UniformInt(4);
    for (std::size_t i = 0; i < n; ++i)
      anchors.push_back({{rng.Uniform(0, 10), rng.Uniform(0, 8)},
                         rng.Uniform(1e-9, 1e-3),
                         false});
    auto scaled = anchors;
    const double k = rng.Uniform(0.001, 1000.0);
    for (auto& a : scaled) a.pdp *= k;
    const auto j1 = localization::JudgeProximity(anchors);
    const auto j2 = localization::JudgeProximity(scaled);
    ASSERT_EQ(j1.size(), j2.size());
    for (std::size_t i = 0; i < j1.size(); ++i) {
      EXPECT_EQ(j1[i].winner, j2[i].winner);
      EXPECT_EQ(j1[i].loser, j2[i].loser);
      EXPECT_NEAR(j1[i].confidence, j2[i].confidence, 1e-12);
    }
  }
}

TEST(PipelineProperty, SpEstimateCovariantUnderTranslation) {
  // Shifting the whole scene (room, anchors, truth) shifts the estimate.
  common::Rng rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    const Vec2 shift{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    const Polygon room = Polygon::Rectangle(0, 0, 10, 8);
    const Polygon moved_room = Polygon::Rectangle(
        shift.x, shift.y, 10 + shift.x, 8 + shift.y);
    std::vector<Vec2> aps{{1, 1}, {9, 1}, {9, 7}, {1, 7}, {5, 4}};
    const Vec2 truth{rng.Uniform(1, 9), rng.Uniform(1, 7)};

    auto constraints_for = [&](Vec2 offset) {
      std::vector<localization::SpConstraint> out;
      for (std::size_t i = 0; i < aps.size(); ++i) {
        for (std::size_t j = i + 1; j < aps.size(); ++j) {
          const bool i_closer =
              Distance(truth, aps[i]) <= Distance(truth, aps[j]);
          const Vec2 w = (i_closer ? aps[i] : aps[j]) + offset;
          const Vec2 l = (i_closer ? aps[j] : aps[i]) + offset;
          out.push_back({geometry::HalfPlane::CloserTo(w, l), 0.9, false});
        }
      }
      return out;
    };

    auto base =
        localization::SolveSpPart(room, constraints_for({0, 0}), {});
    auto moved =
        localization::SolveSpPart(moved_room, constraints_for(shift), {});
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(moved.ok());
    EXPECT_NEAR(moved->estimate.x, base->estimate.x + shift.x, 1e-6);
    EXPECT_NEAR(moved->estimate.y, base->estimate.y + shift.y, 1e-6);
  }
}

TEST(PipelineProperty, EndToEndEstimateAlwaysInsideArea) {
  // Whatever the (random) power values, the engine's output stays inside
  // the floor polygon — the virtual-AP boundary guarantee.
  auto engine = core::NomLocEngine::Create(Polygon::Rectangle(0, 0, 10, 8));
  ASSERT_TRUE(engine.ok());
  common::Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<localization::Anchor> anchors;
    const std::size_t n = 3 + rng.UniformInt(5);
    for (std::size_t i = 0; i < n; ++i) {
      anchors.push_back({{rng.Uniform(0, 10), rng.Uniform(0, 8)},
                         std::pow(10.0, rng.Uniform(-9, -3)),
                         rng.Bernoulli(0.5)});
    }
    core::LocateRequest request;
    request.anchors = anchors;
    auto located = engine->Locate(request);
    if (!located.ok()) continue;  // Coincident anchors: legitimately rejected.
    const geometry::Vec2 p = located->estimate.position;
    EXPECT_TRUE(engine->Area().Contains(p, 1e-5))
        << "(" << p.x << ", " << p.y << ")";
  }
}

}  // namespace
}  // namespace nomloc

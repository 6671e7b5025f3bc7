#include "localization/sp_solver.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/metrics.h"
#include "geometry/halfplane.h"
#include "localization/sp_detail.h"
#include "lp/center.h"
#include "lp/simplex.h"
#include "lp/workspace.h"

namespace nomloc::localization {

using geometry::HalfPlane;
using geometry::Polygon;
using geometry::Vec2;

namespace detail {

common::Result<lp::LpSolution> SolveRelaxation(
    std::span<const SpConstraint> constraints, lp::SolveWorkspace* ws) {
  const std::size_t n = constraints.size();
  NOMLOC_REQUIRE(n > 0);
  lp::InequalityLp prog;
  prog.a = lp::Matrix(n, 2 + n);
  prog.b.resize(n);
  prog.c.assign(2 + n, 0.0);
  prog.nonneg.assign(2 + n, true);
  prog.nonneg[0] = prog.nonneg[1] = false;  // z is free.
  for (std::size_t i = 0; i < n; ++i) {
    const SpConstraint& sc = constraints[i];
    prog.a(i, 0) = sc.half_plane.a.x;
    prog.a(i, 1) = sc.half_plane.a.y;
    prog.a(i, 2 + i) = -1.0;  // ... - t_i <= b_i.
    prog.b[i] = sc.half_plane.c;
    prog.c[2 + i] = sc.weight;
  }
  return lp::SolveSimplex(prog, {}, ws);
}

common::Result<Vec2> RegionCenter(const Polygon& part,
                                  std::span<const HalfPlane> region_planes,
                                  std::span<const Vec2> region_loop,
                                  Vec2 lp_point,
                                  const SpSolverOptions& options) {
  switch (options.center) {
    case CenterMethod::kCentroid: {
      if (region_loop.size() >= 3)
        return geometry::LoopCentroid(region_loop);
      return lp_point;
    }
    case CenterMethod::kChebyshev:
    case CenterMethod::kAnalytic: {
      std::vector<HalfPlane> all = geometry::ToHalfPlanes(part);
      all.insert(all.end(), region_planes.begin(), region_planes.end());
      auto cheb = lp::ChebyshevCenter(all);
      if (!cheb.ok()) return lp_point;
      if (options.center == CenterMethod::kChebyshev) return cheb->center;
      if (cheb->radius <= 0.0) return cheb->center;  // Degenerate region.
      auto ac = lp::AnalyticCenter(all, cheb->center);
      if (!ac.ok()) return cheb->center;
      return *ac;
    }
  }
  return lp_point;
}

common::Result<SpPartSolution> ReconstructPart(
    const Polygon& part, std::span<const SpConstraint> all,
    std::span<const double> t, std::span<const std::size_t> region_rows,
    double objective, std::size_t iterations, Vec2 lp_point,
    const SpSolverOptions& options) {
  NOMLOC_REQUIRE(t.size() == all.size());
  SpPartSolution out;
  out.relaxation_cost = objective;
  out.lp_iterations = iterations;

  // §IV-B4's "retain the constraint with a larger weight while sacrificing
  // the one with smaller weight": constraints the LP had to break
  // (t_i > 0) are *dropped*, and the region is the part clipped by the
  // constraints that held.  Clipping by the exact t_i-relaxed half-planes
  // instead would collapse the region to the single LP vertex whenever
  // judgements conflict, pinning the estimate to a constraint intersection
  // rather than a cell center.
  std::vector<HalfPlane> kept;    // Satisfied constraints (t ~ 0).
  std::vector<HalfPlane> relaxed; // Every constraint, slackened by its t.
  kept.reserve(region_rows.size());
  relaxed.reserve(region_rows.size());
  for (std::size_t idx : region_rows) {
    const double ti = std::max(0.0, t[idx]);
    // all[idx] is normalised, so t is a Euclidean slack here too.
    relaxed.push_back(all[idx].half_plane.Relaxed(ti + options.region_slack));
    if (ti > kViolationTolerance) {
      ++out.violated;
    } else {
      kept.push_back(all[idx].half_plane.Relaxed(options.region_slack));
    }
  }
  // Count violated constraints outside the region set (boundary VAPs) too.
  std::vector<char> in_region(all.size(), 0);
  for (std::size_t idx : region_rows) in_region[idx] = 1;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (!in_region[i] && t[i] > kViolationTolerance) ++out.violated;

  auto clip_all = [&part](std::span<const HalfPlane> hps) {
    std::vector<Vec2> loop(part.Vertices().begin(), part.Vertices().end());
    std::vector<Vec2> scratch;
    for (const HalfPlane& hp : hps) {
      geometry::ClipLoopInto(loop, hp, scratch);
      std::swap(loop, scratch);
      if (loop.size() < 3) break;
    }
    return loop;
  };

  std::vector<Vec2> loop = clip_all(kept);
  std::span<const HalfPlane> region_planes = kept;
  if (loop.size() < 3 ||
      std::abs(geometry::SignedArea(loop)) < options.region_slack) {
    // Degenerate kept-region (should be rare): fall back to the exact
    // t-relaxed region around the LP point.
    loop = clip_all(relaxed);
    region_planes = relaxed;
  }
  if (loop.size() >= 3) out.region = loop;

  NOMLOC_ASSIGN_OR_RETURN(
      out.estimate,
      RegionCenter(part, region_planes, out.region, lp_point, options));
  return out;
}

common::Result<SpPartSolution> SolveSpPartImpl(
    const Polygon& part, std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options, lp::SolveWorkspace* ws) {
  if (!part.IsConvex())
    return common::InvalidArgument("SolveSpPart needs a convex part");
  if (proximity_constraints.empty())
    return common::InvalidArgument("no proximity constraints");

  // Assemble: proximity constraints + this part's VAP boundary
  // constraints.  Every half-plane is normalised to a unit normal so the
  // relaxation variable t_i is a Euclidean violation distance — otherwise
  // the LP would preferentially break whichever constraint happens to
  // have the shortest normal (e.g. a boundary edge near the centroid)
  // regardless of its weight.
  std::vector<SpConstraint> all(proximity_constraints.begin(),
                                proximity_constraints.end());
  const std::vector<SpConstraint> boundary = BoundaryConstraints(
      part, part.Centroid(), options.boundary_weight);
  all.insert(all.end(), boundary.begin(), boundary.end());
  for (SpConstraint& sc : all) sc.half_plane = sc.half_plane.Normalized();

  NOMLOC_ASSIGN_OR_RETURN(lp::LpSolution lp_sol, SolveRelaxation(all, ws));

  const Vec2 lp_point{lp_sol.x[0], lp_sol.x[1]};
  std::vector<double> t(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) t[i] = lp_sol.x[2 + i];
  std::vector<std::size_t> region_rows(proximity_constraints.size());
  for (std::size_t i = 0; i < region_rows.size(); ++i) region_rows[i] = i;
  return ReconstructPart(part, all, t, region_rows, lp_sol.objective,
                         lp_sol.iterations, lp_point, options);
}

void MergeParts(std::span<const Polygon> parts,
                const SpSolverOptions& options, SpSolution& out) {
  NOMLOC_REQUIRE(!out.parts.empty());
  static auto& cost_hist = common::MetricRegistry::Global().Histogram(
      "sp.relaxation_cost", {}, 1e-6, 1e3, 72);

  double best = out.parts.front().relaxation_cost;
  out.best_part = 0;
  for (std::size_t i = 1; i < out.parts.size(); ++i) {
    if (out.parts[i].relaxation_cost < best) {
      best = out.parts[i].relaxation_cost;
      out.best_part = i;
    }
  }
  out.relaxation_cost = best;
  cost_hist.Record(best);

  // Merge parts whose cost ties the best: the merged estimate is the
  // area-weighted mean of the per-part centers (for disjoint regions this
  // equals the centroid of the union when using kCentroid).
  out.feasible_area_m2 = 0.0;
  double total_weight = 0.0;
  Vec2 acc{0.0, 0.0};
  for (std::size_t i = 0; i < out.parts.size(); ++i) {
    const SpPartSolution& p = out.parts[i];
    if (p.relaxation_cost > best + options.merge_tolerance) continue;
    const double area =
        p.region.size() >= 3 ? std::abs(geometry::SignedArea(p.region)) : 0.0;
    out.feasible_area_m2 += area;
    const double weight = area > 0.0 ? area : 1e-12;
    acc += p.estimate * weight;
    total_weight += weight;
  }
  out.estimate = total_weight > 0.0 ? acc / total_weight
                                    : out.parts[out.best_part].estimate;

  // Averaging across disconnected tied regions can land in a notch of a
  // non-convex area.  The estimate must stay inside the area: fall back to
  // the best part's own center when the merge left the floor plan.
  bool inside_some_part = false;
  for (const Polygon& part : parts)
    if (part.Contains(out.estimate, 1e-9)) inside_some_part = true;
  if (!inside_some_part) out.estimate = out.parts[out.best_part].estimate;
}

}  // namespace detail

common::Result<SpPartSolution> SolveSpPart(
    const Polygon& part, std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options) {
  return detail::SolveSpPartImpl(part, proximity_constraints, options,
                                 nullptr);
}

common::Result<SpSolution> SolveSp(
    std::span<const Polygon> parts,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options) {
  if (parts.empty()) return common::InvalidArgument("no area parts");

  auto& registry = common::MetricRegistry::Global();
  static auto& solve_timer = registry.Timer("sp.solve");
  static auto& parts_counter = registry.Counter("sp.parts_solved");
  common::StageTrace solve_trace(solve_timer);

  SpSolution out;
  out.parts.reserve(parts.size());
  lp::SolveWorkspace ws;  // One workspace serves every part's LP.
  for (const Polygon& part : parts) {
    NOMLOC_ASSIGN_OR_RETURN(
        SpPartSolution sol,
        detail::SolveSpPartImpl(part, proximity_constraints, options, &ws));
    out.lp_iterations += sol.lp_iterations;
    out.parts.push_back(std::move(sol));
  }
  parts_counter.Increment(parts.size());
  detail::MergeParts(parts, options, out);
  return out;
}

}  // namespace nomloc::localization

#include "localization/fallback.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <numeric>

#include "common/metrics.h"
#include "localization/sp_session.h"

namespace nomloc::localization {

common::Result<void> FallbackPolicy::Validate() const {
  if (std::isnan(max_relaxation_cost))
    return common::InvalidArgument("max_relaxation_cost must not be NaN");
  if (max_relaxation_cost < 0.0)
    return common::InvalidArgument("max_relaxation_cost must be >= 0");
  double prev = 1.0 + 1e-12;
  for (double f : keep_fractions) {
    if (!(f > 0.0 && f <= 1.0))
      return common::InvalidArgument("keep_fractions must lie in (0, 1]");
    if (f >= prev)
      return common::InvalidArgument("keep_fractions must be descending");
    prev = f;
  }
  return {};
}

common::Result<geometry::Vec2> WeightedAnchorCentroid(
    std::span<const geometry::Polygon> parts,
    std::span<const Anchor> anchors) {
  if (anchors.empty() && parts.empty())
    return common::FailedPrecondition(
        "weighted centroid needs anchors or area parts");

  geometry::Vec2 estimate{0.0, 0.0};
  bool have_estimate = false;
  if (!anchors.empty()) {
    // PDP-weighted mean: a strong anchor (object nearby) pulls harder.
    // Non-finite or non-positive weights fall back to equal weighting so
    // one corrupt PDP cannot poison the mean.
    double total_w = 0.0;
    geometry::Vec2 acc{0.0, 0.0};
    std::size_t finite_positions = 0;
    geometry::Vec2 plain{0.0, 0.0};
    for (const Anchor& a : anchors) {
      if (!std::isfinite(a.position.x) || !std::isfinite(a.position.y))
        continue;
      ++finite_positions;
      plain.x += a.position.x;
      plain.y += a.position.y;
      const double w = a.pdp;
      if (!std::isfinite(w) || w <= 0.0) continue;
      total_w += w;
      acc.x += w * a.position.x;
      acc.y += w * a.position.y;
    }
    if (total_w > 0.0 && std::isfinite(total_w)) {
      estimate = {acc.x / total_w, acc.y / total_w};
      have_estimate = true;
    } else if (finite_positions > 0) {
      estimate = {plain.x / double(finite_positions),
                  plain.y / double(finite_positions)};
      have_estimate = true;
    }
  }
  if (!have_estimate) {
    if (parts.empty())
      return common::FailedPrecondition(
          "no finite anchor positions and no area parts");
    // Area-weighted centroid of the whole floor — the maximally
    // uninformed but always-valid answer.
    double total_area = 0.0;
    geometry::Vec2 acc{0.0, 0.0};
    for (const geometry::Polygon& part : parts) {
      const double area = part.Area();
      const geometry::Vec2 c = part.Centroid();
      total_area += area;
      acc.x += area * c.x;
      acc.y += area * c.y;
    }
    return geometry::Vec2{acc.x / total_area, acc.y / total_area};
  }

  // Clamp into the area: an estimate outside every part (possible when a
  // nomadic AP reported a position beyond the floor) snaps to the
  // closest part centroid — deterministic and always inside.
  if (parts.empty()) return estimate;
  for (const geometry::Polygon& part : parts)
    if (part.Contains(estimate)) return estimate;
  geometry::Vec2 best = parts.front().Centroid();
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const geometry::Polygon& part : parts) {
    const geometry::Vec2 c = part.Centroid();
    const double dx = c.x - estimate.x, dy = c.y - estimate.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c;
    }
  }
  return best;
}

namespace {

// Synthetic SpSolution for the LP-free level-2 estimate: every proximity
// constraint counts as violated, the feasible cell is the whole floor.
SpSolution CentroidSolution(std::span<const geometry::Polygon> parts,
                            std::span<const SpConstraint> constraints,
                            geometry::Vec2 estimate) {
  SpSolution sol;
  sol.estimate = estimate;
  double cost = 0.0;
  for (const SpConstraint& c : constraints)
    if (!c.is_boundary) cost += c.weight;
  sol.relaxation_cost = cost;
  double total_area = 0.0;
  for (const geometry::Polygon& part : parts) total_area += part.Area();
  sol.feasible_area_m2 = total_area;
  sol.best_part = 0;
  SpPartSolution part_sol;
  part_sol.estimate = estimate;
  part_sol.relaxation_cost = cost;
  part_sol.violated = constraints.size();
  sol.parts.push_back(std::move(part_sol));
  return sol;
}

// The ladder, parameterized over how level 0 is obtained so the stateless
// path (SolveSp) and the session path (SpSolverSession::Solve, possibly
// incremental) share every other rung.  Retry levels always re-solve from
// scratch with SolveSp — they run on unhealthy input, where a warm basis
// is worthless anyway.
common::Result<ResilientSolution> RunLadder(
    std::span<const geometry::Polygon> parts,
    std::span<const Anchor> anchors,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options,
    const std::function<common::Result<SpSolution>()>& level0) {
  const FallbackPolicy& policy = options.fallback;
  if (auto valid = policy.Validate(); !valid.ok()) return valid.status();
  auto& registry = common::MetricRegistry::Global();
  static auto& engaged_relaxed =
      registry.Counter("fallback.engaged", "level=relaxed_constraints");
  static auto& engaged_centroid =
      registry.Counter("fallback.engaged", "level=weighted_centroid");
  static auto& dropped_counter =
      registry.Counter("fallback.dropped_constraints");

  ResilientSolution out;

  // Level 0 — the full program.  This is the only path the chain takes on
  // healthy input, which keeps the resilient solve bit-identical to the
  // plain one there (fallback never perturbs a solve that succeeds within
  // budget — including its reported lp_iterations).
  auto full = level0();
  const bool full_ok =
      full.ok() && full.value().relaxation_cost <= policy.max_relaxation_cost;
  if (full_ok) {
    out.solution = std::move(full).value();
    out.level = common::DegradationLevel::kNone;
    return out;
  }
  // LP work spent on attempts that did not win still happened; degraded
  // responses report it so `lp_iterations` reflects true solver effort
  // (previously ladder re-solves were invisible in the summed count).
  std::size_t ladder_iterations = full.ok() ? full.value().lp_iterations : 0;

  // Level 1 — progressive constraint relaxation: keep only the most
  // confident judgements (boundary constraints carry a large weight and
  // therefore always survive the cut), dropping the rest in the policy's
  // fraction steps.  A contradictory low-confidence judgement from a
  // marginal link is the usual culprit, so shedding the tail first
  // preserves the most spatial information.
  std::vector<std::size_t> rank(proximity_constraints.size());
  std::iota(rank.begin(), rank.end(), std::size_t{0});
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return proximity_constraints[a].weight >
                            proximity_constraints[b].weight;
                   });
  const std::size_t n = proximity_constraints.size();
  for (double fraction : policy.keep_fractions) {
    const std::size_t keep = std::max<std::size_t>(
        1, std::size_t(std::ceil(fraction * double(n))));
    if (keep >= n) continue;  // Identical to the level-0 program.
    ++out.fallback_attempts;
    std::vector<SpConstraint> kept_constraints;
    kept_constraints.reserve(keep);
    // Original order among the kept subset keeps the LP deterministic.
    std::vector<std::size_t> kept_idx(rank.begin(),
                                      rank.begin() + std::ptrdiff_t(keep));
    std::sort(kept_idx.begin(), kept_idx.end());
    for (std::size_t i : kept_idx)
      kept_constraints.push_back(proximity_constraints[i]);
    auto retry = SolveSp(parts, kept_constraints, options);
    if (retry.ok() &&
        retry.value().relaxation_cost <= policy.max_relaxation_cost) {
      out.solution = std::move(retry).value();
      out.solution.lp_iterations += ladder_iterations;
      out.level = common::DegradationLevel::kRelaxedConstraints;
      out.dropped_constraints = n - keep;
      engaged_relaxed.Increment();
      dropped_counter.Increment(out.dropped_constraints);
      return out;
    }
    if (retry.ok()) ladder_iterations += retry.value().lp_iterations;
  }

  // Level 2 — no program at all: PDP-weighted anchor centroid.
  ++out.fallback_attempts;
  NOMLOC_ASSIGN_OR_RETURN(geometry::Vec2 estimate,
                          WeightedAnchorCentroid(parts, anchors));
  out.solution = CentroidSolution(parts, proximity_constraints, estimate);
  out.solution.lp_iterations = ladder_iterations;
  out.level = common::DegradationLevel::kWeightedCentroid;
  out.dropped_constraints = n;
  engaged_centroid.Increment();
  dropped_counter.Increment(n);
  return out;
}

}  // namespace

common::Result<ResilientSolution> SolveSpResilient(
    std::span<const geometry::Polygon> parts, std::span<const Anchor> anchors,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options) {
  return RunLadder(parts, anchors, proximity_constraints, options,
                   [&] { return SolveSp(parts, proximity_constraints,
                                        options); });
}

common::Result<ResilientSolution> SolveSpResilient(
    SpSolverSession& session, std::span<const Anchor> anchors) {
  // Materialize the active set once: the retry rungs and the level-2
  // synthetic need it, and it must not shift under them.
  const std::vector<SpConstraint> active = session.ActiveConstraints();
  return RunLadder(session.parts(), anchors, active, session.options(),
                   [&] { return session.Solve(); });
}

}  // namespace nomloc::localization

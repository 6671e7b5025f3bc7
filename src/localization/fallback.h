// Solver fallback chain — graceful degradation for the SP solve.
//
// The relaxed LP of Eq. 19 always has a feasible optimum on healthy
// input, but production traffic is not healthy input: corrupt CSI can
// slip in judgements so contradictory that the relaxation cost explodes,
// degenerate anchor geometry can starve the program of constraints, and
// numerical edge cases can make a part solve fail outright.  Instead of
// surfacing an error (and dropping the query on the floor), the chain
// walks a degradation ladder:
//
//   level 0  kNone                full SolveSp, cost within budget
//   level 1  kRelaxedConstraints  re-solve keeping only the top-confidence
//                                 constraint fractions (0.75 -> 0.5 -> 0.25)
//   level 2  kWeightedCentroid    PDP-weighted centroid of the anchors,
//                                 clamped into the area — no LP at all
//
// Level 3 (kLastKnownGood, the tracker's last estimate) needs state and
// therefore lives in the serving layer; this module is stateless like the
// engine that calls it.
//
// The chain engages ONLY when the full solve fails or exceeds the
// caller's cost budget, so with the default (unlimited) budget the
// healthy path is bit-identical to plain SolveSp.
//
// The policy knobs (FallbackPolicy) live in localization/sp_solver.h as
// SpSolverOptions::fallback, so one options struct configures the batch,
// session, and resilient paths alike.
#pragma once

#include <span>
#include <vector>

#include "common/degradation.h"
#include "common/status.h"
#include "geometry/polygon.h"
#include "localization/constraints.h"
#include "localization/proximity.h"
#include "localization/sp_solver.h"

namespace nomloc::localization {

class SpSolverSession;  // localization/sp_session.h

/// SolveSp result annotated with how degraded it is.
struct ResilientSolution {
  SpSolution solution;
  common::DegradationLevel level = common::DegradationLevel::kNone;
  /// Level 1: constraints discarded by the winning retry.  Level 2: all
  /// of them.
  std::size_t dropped_constraints = 0;
  /// Retries attempted before the returned level succeeded (0 when the
  /// full solve went through).
  std::size_t fallback_attempts = 0;
};

/// Runs SolveSp with the degradation ladder described above, configured by
/// `options.fallback`.  `anchors` feeds the level-2 centroid (their PDPs
/// are the weights) and may alias the anchors the constraints were built
/// from.  Fails only when the policy is invalid or even level 2 is
/// impossible (no anchors and no parts).  Every engaged level increments
/// `fallback.engaged{level=...}`; dropped constraints feed
/// `fallback.dropped_constraints`.  The returned solution's lp_iterations
/// also count the ladder's failed re-solve attempts, so degraded
/// responses report their true LP work.
common::Result<ResilientSolution> SolveSpResilient(
    std::span<const geometry::Polygon> parts,
    std::span<const Anchor> anchors,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options = {});

/// The same degradation ladder over a stateful session: level 0 is the
/// session's (possibly incremental) Solve(); the retry levels re-solve
/// the session's active constraint subset from scratch, leaving the
/// session's warm state untouched.  Policy and options come from the
/// session (`session.options().fallback`).
common::Result<ResilientSolution> SolveSpResilient(
    SpSolverSession& session, std::span<const Anchor> anchors);

/// The level-2 estimator, exposed for tests: PDP-weighted mean of the
/// anchor positions, clamped to the nearest part centroid when it lands
/// outside every part.  Requires at least one anchor or one part.
common::Result<geometry::Vec2> WeightedAnchorCentroid(
    std::span<const geometry::Polygon> parts, std::span<const Anchor> anchors);

}  // namespace nomloc::localization

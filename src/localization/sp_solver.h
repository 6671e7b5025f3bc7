// Space-partition location estimation (paper §IV-B-1…4).
//
// Given the weighted half-plane constraints of one convex area, solves the
// relaxed linear program of Eq. 19,
//
//     minimize  w^T t    s.t.   A z - t <= b,   t >= 0,
//
// with the two-phase simplex, reconstructs the (relaxed) feasible region
// by clipping the area polygon, and reports its center.  Non-convex areas
// are handled part-by-part; the parts with the lowest relaxation cost are
// merged (§IV-B2).  The paper solved Eq. 19 with CVX's interior-point
// method; lp::SolveInteriorPoint stays as the test oracle the simplex is
// cross-checked against, but every solve here runs the simplex.
//
// Two ways to drive it:
//   * One-shot: SolveSp / SolveSpPart below — stateless, solves the full
//     program from scratch.
//   * Streaming: localization/sp_session.h wraps the same math in a
//     stateful SpSolverSession that accepts constraint deltas and reuses
//     the previous basis / region between solves.  SpSolverOptions is the
//     single options struct shared by the batch, session, and resilient
//     paths.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "common/status.h"
#include "geometry/polygon.h"
#include "localization/constraints.h"

namespace nomloc::localization {

/// How the point estimate is extracted from the feasible region.  The
/// paper's CVX/interior-point solve corresponds to kAnalytic; kCentroid is
/// the literal "center point of the region" reading; kChebyshev is the
/// deepest point.  bench/abl_center_method compares them.
enum class CenterMethod { kCentroid, kChebyshev, kAnalytic };

/// How a stateful solver is driven.  Only the serving layer chooses
/// (ServingConfig::solver_mode); an SpSolverSession itself is always
/// incremental.
enum class SpSessionMode {
  /// No session: every solve is the stateless SolveSp, bit-identical to
  /// the batch engine.
  kColdEachSolve,
  /// Keep one SpSolverSession per object: geometric fast path while the
  /// region stays feasible, dual-simplex basis reuse otherwise.
  /// Estimates agree with kColdEachSolve to solver tolerance (see the
  /// equivalence suite), not bit-for-bit.
  kIncremental,
};

/// When and how the resilient solve's degradation ladder engages (see
/// localization/fallback.h for the ladder itself).  Lives here so
/// SpSolverOptions can carry it — the batch, session, and resilient paths
/// all read the same struct.
struct FallbackPolicy {
  /// A successful solve whose relaxation cost exceeds this budget counts
  /// as failed and triggers the ladder.  The default (infinity) only
  /// engages the chain on genuine solve errors, which keeps the golden
  /// no-fault path bit-identical; tests and the chaos harness tighten it
  /// to force degradation deterministically.
  double max_relaxation_cost = std::numeric_limits<double>::infinity();
  /// Constraint fractions (of the confidence-ranked list) each level-1
  /// retry keeps, tried in order.  Must be in (0, 1], descending.
  std::vector<double> keep_fractions = {0.75, 0.5, 0.25};

  common::Result<void> Validate() const;
};

struct SpSolverOptions {
  CenterMethod center = CenterMethod::kCentroid;
  /// Weight for boundary (virtual-AP) constraints — "preset to a large
  /// weight to guarantee the corresponding constraint satisfied with high
  /// priority" (§IV-B4).
  double boundary_weight = 100.0;
  /// Extra slack when reconstructing the region from the optimal t, to
  /// keep it full-dimensional despite simplex sitting on vertices.
  double region_slack = 1e-6;
  /// Two part costs within this tolerance count as tied and are merged.
  double merge_tolerance = 1e-7;
  /// Sessions skip the LP entirely while the exact feasible region keeps
  /// at least this much area [m^2] — below it the region is treated as
  /// empty and the relaxation LP decides what to sacrifice.
  double fastpath_min_area = 1e-6;
  /// Degradation ladder shared by SolveSpResilient and resilient session
  /// solves.  Plain SolveSp ignores it.
  FallbackPolicy fallback;
};

/// Result for one convex part.
struct SpPartSolution {
  geometry::Vec2 estimate;
  double relaxation_cost = 0.0;   ///< w^T t at the LP optimum.
  std::size_t violated = 0;       ///< Constraints with t_i > 0.
  std::size_t lp_iterations = 0;  ///< Solver iterations for this part.
  /// The relaxed feasible region clipped to the part (CCW loop).  May be
  /// empty if reconstruction degenerated; `estimate` is still valid.
  std::vector<geometry::Vec2> region;
};

/// Solves one convex part.  Boundary VAP constraints for the part are
/// added internally (reference point = part centroid).  Requires a convex
/// part and at least one proximity constraint.
common::Result<SpPartSolution> SolveSpPart(
    const geometry::Polygon& part,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options = {});

/// Combined result over all parts of a (possibly non-convex) area.
struct SpSolution {
  geometry::Vec2 estimate;
  double relaxation_cost = 0.0;    ///< Cost of the best part.
  std::size_t best_part = 0;
  std::size_t lp_iterations = 0;   ///< Summed over all parts.
  /// Total area of the merged (tied-cost) relaxed feasible regions [m^2] —
  /// the size of the paper's feasible cell.  Smaller = more constrained =
  /// a more confident estimate; the serving layer reports it per response.
  double feasible_area_m2 = 0.0;
  std::vector<SpPartSolution> parts;
};

/// Solves every part and merges the lowest-cost ones: parts whose cost
/// ties the minimum contribute their regions, and the estimate is the
/// area-weighted center of the merged regions.  Requires >= 1 part.
common::Result<SpSolution> SolveSp(
    std::span<const geometry::Polygon> parts,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options = {});

}  // namespace nomloc::localization

// Internal shared core of the SP solve — the pieces both the one-shot
// batch path (sp_solver.cc) and the stateful session path (sp_session.cc)
// execute.  Keeping them in ONE place is what makes the equivalence
// guarantee checkable: a session shares every step with SolveSp except
// how the LP optimum is obtained.
//
// Not part of the public API; include localization/sp_solver.h or
// localization/sp_session.h instead.
#pragma once

#include <span>
#include <vector>

#include "common/status.h"
#include "geometry/halfplane.h"
#include "geometry/polygon.h"
#include "localization/constraints.h"
#include "localization/sp_solver.h"
#include "lp/simplex.h"

namespace nomloc::localization::detail {

/// Constraints the LP considers violated beyond numerical noise.
inline constexpr double kViolationTolerance = 1e-7;

/// Builds and solves the relaxation LP (Eq. 19) over already-normalized
/// constraints with the simplex.  Variables: [zx, zy, t_0 .. t_{N-1}].
common::Result<lp::LpSolution> SolveRelaxation(
    std::span<const SpConstraint> constraints, lp::SolveWorkspace* ws);

/// Extracts the center of the relaxed region according to `options`,
/// falling back to `lp_point` when the region is degenerate.
common::Result<geometry::Vec2> RegionCenter(
    const geometry::Polygon& part,
    std::span<const geometry::HalfPlane> region_planes,
    std::span<const geometry::Vec2> region_loop, geometry::Vec2 lp_point,
    const SpSolverOptions& options);

/// Region reconstruction + center extraction for one part, given the LP
/// optimum.  `all` holds every normalized constraint of the program; `t`
/// is the per-constraint relaxation at the optimum (aligned with `all`);
/// `region_rows` lists, in clip order, the indices of the constraints
/// that shape the region (proximity constraints — boundary rows only
/// count toward `violated`).  Implements §IV-B4's keep-the-heavier-
/// constraint reconstruction: rows with t beyond kViolationTolerance are
/// dropped, the rest clip the part.
common::Result<SpPartSolution> ReconstructPart(
    const geometry::Polygon& part, std::span<const SpConstraint> all,
    std::span<const double> t, std::span<const std::size_t> region_rows,
    double objective, std::size_t iterations, geometry::Vec2 lp_point,
    const SpSolverOptions& options);

/// SolveSpPart with caller-provided LP scratch (null = allocate per
/// call) — the internal entry point SolveSp and the session layer call.
common::Result<SpPartSolution> SolveSpPartImpl(
    const geometry::Polygon& part,
    std::span<const SpConstraint> proximity_constraints,
    const SpSolverOptions& options, lp::SolveWorkspace* ws);

/// Best-part selection and tied-cost merge (§IV-B2) over per-part
/// solutions: fills estimate / relaxation_cost / best_part /
/// feasible_area_m2 of `solution` from solution.parts, and records the
/// sp.relaxation_cost metric.  Requires solution.parts non-empty and
/// aligned with `parts`.
void MergeParts(std::span<const geometry::Polygon> parts,
                const SpSolverOptions& options, SpSolution& solution);

}  // namespace nomloc::localization::detail

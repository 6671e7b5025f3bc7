// Primal-dual path-following interior-point solver for the same
// inequality-form LP as lp/simplex.h.
//
// The paper solves its space-partition program with CVX, "based on the
// interior-point method … solved within weakly polynomial time" (§IV-B4).
// This is that method: an infeasible-start primal-dual path follower on
//
//    min c·x   s.t.  A x + s = b,  s >= 0,
//
// with dual multipliers y >= 0 and complementarity y_i s_i -> 0 along the
// central path.  Each iteration solves the (n x n) normal equations
// (A^T D A) dx = rhs with D = diag(y/s).  Non-negative variables are
// folded in as extra -x_i <= 0 rows, so the interface matches SolveSimplex
// exactly and the two can be cross-checked (see tests and
// bench/abl_lp_scaling).
#pragma once

#include "common/status.h"
#include "lp/simplex.h"

namespace nomloc::lp {

struct InteriorPointOptions {
  std::size_t max_iterations = 200;
  /// Convergence: duality measure mu and residual norms below this.
  double tolerance = 1e-9;
  /// Centering parameter sigma in (0, 1).
  double sigma = 0.1;
  /// Fraction of the max step to the boundary taken each iteration.
  double step_fraction = 0.95;
};

struct InteriorPointSolution {
  Vector x;
  double objective = 0.0;
  std::size_t iterations = 0;
  /// Final duality measure (s·y / m) — a certificate of optimality.
  double duality_gap = 0.0;
};

/// Solves the LP.  Error codes: kInfeasible (primal residual cannot be
/// driven to zero), kExhausted (iteration cap), kNumericalError (normal
/// equations singular), kInvalidArgument (bad shapes).  Unbounded
/// problems typically surface as kExhausted with a diverging objective.
/// An optional workspace (lp/workspace.h) recycles the folded problem,
/// normal matrix, and iterate vectors; results are bit-identical.
common::Result<InteriorPointSolution> SolveInteriorPoint(
    const InequalityLp& lp, const InteriorPointOptions& options = {},
    SolveWorkspace* ws = nullptr);

}  // namespace nomloc::lp

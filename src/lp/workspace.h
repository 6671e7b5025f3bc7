// Reusable solver scratch.  The SP localizer solves one small LP per area
// part per fix; without reuse every solve allocates a fresh tableau,
// normal-equation matrix, and half a dozen iterate vectors.  A
// SolveWorkspace owns all of that scratch: pass the same instance to
// repeated SolveSimplex / SolveInteriorPoint / SolveLinear calls and the
// buffers are recycled (std::vector::assign reuses capacity), so repeated
// solves of same-shaped programs allocate nothing in steady state.
//
// Results are bit-identical with and without a workspace — the buffers are
// fully overwritten before use; only where the memory comes from changes.
//
// Not thread-safe: use one workspace per thread (they are cheap when
// empty).  Metrics (common/metrics.h): lp.workspace.{reused,fresh} count
// solves that did / did not receive a workspace.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/matrix.h"

namespace nomloc::lp {

struct SolveWorkspace {
  // SolveLinear: factorization copy, pivoted rhs, solution.
  Matrix lu;
  Vector lu_rhs;
  Vector lu_x;

  // SolveSimplex: dense tableau storage and per-phase vectors.
  std::vector<double> tableau;
  std::vector<std::size_t> basis;
  Vector cost;
  std::vector<bool> allowed;
  Vector extract;
  std::vector<std::size_t> col_of;
  std::vector<bool> is_split;

  // SolveInteriorPoint: folded problem, iterates, and Newton scratch.
  Matrix fold_a;
  Matrix normal;
  Vector fold_b, ipm_x, ipm_s, ipm_y;
  Vector ax, rp, rd, w, rhs, dx, adx, dy, ds;
};

}  // namespace nomloc::lp

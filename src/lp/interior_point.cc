#include "lp/interior_point.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/metrics.h"
#include "lp/workspace.h"
#include "simd/kernels.h"

namespace nomloc::lp {

common::Result<InteriorPointSolution> SolveInteriorPoint(
    const InequalityLp& lp, const InteriorPointOptions& options,
    SolveWorkspace* ws) {
  NOMLOC_RETURN_IF_ERROR(lp.Validate());
  NOMLOC_REQUIRE(options.sigma > 0.0 && options.sigma < 1.0);
  NOMLOC_REQUIRE(options.step_fraction > 0.0 && options.step_fraction < 1.0);
  static auto& ws_reused =
      common::MetricRegistry::Global().Counter("lp.workspace.reused");
  static auto& ws_fresh =
      common::MetricRegistry::Global().Counter("lp.workspace.fresh");
  (ws ? ws_reused : ws_fresh).Increment();
  SolveWorkspace local;
  SolveWorkspace& scratch = ws ? *ws : local;

  const std::size_t n = lp.a.Cols();

  // Fold x_i >= 0 flags in as -x_i <= 0 rows.
  std::size_t extra = 0;
  for (bool flag : lp.nonneg)
    if (flag) ++extra;
  const std::size_t m = lp.a.Rows() + extra;

  Matrix& a = scratch.fold_a;
  a.Assign(m, n);
  Vector& b = scratch.fold_b;
  b.assign(m, 0.0);
  for (std::size_t r = 0; r < lp.a.Rows(); ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = lp.a(r, c);
    b[r] = lp.b[r];
  }
  {
    std::size_t r = lp.a.Rows();
    for (std::size_t i = 0; i < n; ++i) {
      if (lp.nonneg[i]) {
        a(r, i) = -1.0;
        b[r] = 0.0;
        ++r;
      }
    }
  }

  // Infeasible start: x = 0, s/y positive.
  Vector& x = scratch.ipm_x;
  x.assign(n, 0.0);
  Vector& s = scratch.ipm_s;
  s.assign(m, 0.0);
  Vector& y = scratch.ipm_y;
  y.assign(m, 1.0);
  Vector& ax = scratch.ax;
  {
    a.MatVecInto(x, ax);
    for (std::size_t i = 0; i < m; ++i)
      s[i] = std::max(1.0, b[i] - ax[i] + 1.0);
  }

  InteriorPointSolution out;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Residuals.
    a.MatVecInto(x, ax);
    Vector& rp = scratch.rp;  // A x + s - b.
    rp.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) rp[i] = ax[i] + s[i] - b[i];
    Vector& rd = scratch.rd;  // c + A^T y.
    a.TransposedMatVecInto(y, rd);
    for (std::size_t j = 0; j < n; ++j) rd[j] += lp.c[j];

    double mu = simd::Dot(s.data(), y.data(), m);
    mu /= double(m);

    const double rp_norm = Norm2(rp);
    const double rd_norm = Norm2(rd);
    if (mu < options.tolerance && rp_norm < options.tolerance &&
        rd_norm < options.tolerance) {
      out.x = x;
      out.objective = Dot(lp.c, x);
      out.iterations = iter;
      out.duality_gap = mu;
      static auto& solves =
          common::MetricRegistry::Global().Counter("lp.solves", "backend=ipm");
      static auto& iter_hist = common::MetricRegistry::Global().Histogram(
          "lp.iterations", "backend=ipm", 1.0, 1e5, 60);
      solves.Increment();
      iter_hist.Record(double(iter));
      return out;
    }

    // Normal equations: (A^T D A) dx = -rd - A^T [ D rp + (sigma mu e - S Y e)/s ].
    const double target = options.sigma * mu;
    Vector& w = scratch.w;  // The bracketed per-row term, scaled by y/s later.
    w.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      w[i] = (y[i] / s[i]) * rp[i] + (target - y[i] * s[i]) / s[i];

    Matrix& normal = scratch.normal;
    normal.Assign(n, n);
    for (std::size_t i = 0; i < m; ++i) {
      const double d = y[i] / s[i];
      const auto row = a.Row(i);
      for (std::size_t p = 0; p < n; ++p) {
        if (row[p] == 0.0) continue;
        simd::Axpy(n, d * row[p], row.data(), &normal(p, 0));
      }
    }
    Vector& rhs = scratch.rhs;
    rhs.assign(n, 0.0);
    for (std::size_t i = 0; i < m; ++i)
      simd::Axpy(n, -w[i], a.Row(i).data(), rhs.data());
    for (std::size_t p = 0; p < n; ++p) rhs[p] -= rd[p];

    // The normal matrix is rebuilt next iteration anyway, so factor it in
    // place — no defensive copy.
    Vector& dx = scratch.dx;
    const common::Status solve_status = SolveLinearInPlace(normal, rhs, dx);
    if (!solve_status.ok()) {
      // Infeasible problems drive the duals to infinity until the normal
      // matrix degenerates — classify before surfacing a numeric error.
      double max_violation = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        max_violation = std::max(max_violation, rp[i] - s[i]);
      if (max_violation > 1e-4)
        return common::Infeasible(
            "interior point diverged with persistent primal infeasibility");
      return common::NumericalError("interior-point normal equations: " +
                                    solve_status.message());
    }

    Vector& adx = scratch.adx;
    a.MatVecInto(dx, adx);
    Vector& dy = scratch.dy;
    Vector& ds = scratch.ds;
    dy.assign(m, 0.0);
    ds.assign(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      dy[i] = (y[i] / s[i]) * (adx[i] + rp[i]) +
              (target - y[i] * s[i]) / s[i];
      ds[i] = (target - y[i] * s[i] - s[i] * dy[i]) / y[i];
    }

    // Step lengths keeping s, y strictly positive.
    double alpha_p = 1.0, alpha_d = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (ds[i] < 0.0) alpha_p = std::min(alpha_p, -s[i] / ds[i]);
      if (dy[i] < 0.0) alpha_d = std::min(alpha_d, -y[i] / dy[i]);
    }
    alpha_p = std::min(1.0, options.step_fraction * alpha_p);
    alpha_d = std::min(1.0, options.step_fraction * alpha_d);

    simd::Axpy(n, alpha_p, dx.data(), x.data());
    simd::Axpy(m, alpha_p, ds.data(), s.data());
    simd::Axpy(m, alpha_d, dy.data(), y.data());

    // Divergence heuristics.
    if (!std::isfinite(Dot(lp.c, x)))
      return common::NumericalError("interior-point iterate diverged");
  }

  // Did not converge: classify.
  a.MatVecInto(x, ax);
  double max_violation = 0.0;
  for (std::size_t i = 0; i < m; ++i)
    max_violation = std::max(max_violation, ax[i] - b[i]);
  if (max_violation > 1e-4)
    return common::Infeasible(
        "interior point could not reach primal feasibility");
  return common::Exhausted("interior point iteration limit reached");
}

}  // namespace nomloc::lp

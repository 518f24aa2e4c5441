#include "ftl/linalg/cg.hpp"

#include <algorithm>
#include <cmath>

#include "ftl/util/error.hpp"

namespace ftl::linalg {

void jacobi_preconditioner(const SparseMatrix& a, Vector& inv_diag) {
  FTL_EXPECTS(a.rows() == a.cols());
  const std::vector<std::size_t>& row_start = a.row_start();
  const std::vector<std::size_t>& col = a.col_index();
  const std::vector<double>& val = a.values();
  inv_diag.resize(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double d = 0.0;  // summed from 0.0 exactly as SparseMatrix::diagonal()
    for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
      if (col[k] == i) d += val[k];
    }
    inv_diag[i] = (d != 0.0) ? 1.0 / d : 1.0;
  }
}

CgStatus pcg_solve(const SparseMatrix& a, const Vector& inv_diag,
                   const Vector& b, Vector& x, CgWorkspace& workspace,
                   const CgOptions& options) {
  const std::size_t n = b.size();
  FTL_EXPECTS(a.rows() == a.cols() && a.rows() == n);
  FTL_EXPECTS(x.size() == n && inv_diag.size() == n);

  CgStatus status;
  double bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) bb += b[i] * b[i];
  const double bnorm = std::sqrt(bb);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    status.converged = true;
    return status;
  }

  workspace.r.resize(n);
  workspace.z.resize(n);
  workspace.p.resize(n);
  workspace.ap.resize(n);
  double* r = workspace.r.data();
  double* z = workspace.z.data();
  double* p = workspace.p.data();
  double* ap = workspace.ap.data();
  const std::size_t* row_start = a.row_start().data();
  const std::size_t* col = a.col_index().data();
  const double* val = a.values().data();
  const double* dinv = inv_diag.data();

  // r = b - A x, z = D⁻¹ r, p = z, rz = r·z.
  double rz = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
      acc += val[k] * x[col[k]];
    }
    r[i] = b[i] - acc;
    z[i] = dinv[i] * r[i];
    p[i] = z[i];
    rz += r[i] * z[i];
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    status.iterations = iter + 1;
    // ap = A p with p·ap accumulated row by row.
    double pap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
        acc += val[k] * p[col[k]];
      }
      ap[i] = acc;
      pap += p[i] * acc;
    }
    if (pap <= 0.0) break;  // not SPD (or breakdown) — report non-convergence
    const double alpha = rz / pap;
    double rr = 0.0;
    double rz_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr += r[i] * r[i];
      z[i] = dinv[i] * r[i];
      rz_next += r[i] * z[i];
    }
    status.relative_residual = std::sqrt(rr) / bnorm;
    if (status.relative_residual < options.tolerance) {
      status.converged = true;
      return status;
    }
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return status;
}

CgResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                            const Vector& initial, const CgOptions& options) {
  FTL_EXPECTS(a.rows() == a.cols() && b.size() == a.rows());
  CgResult result;
  result.x = initial.empty() ? Vector(b.size(), 0.0) : initial;
  FTL_EXPECTS(result.x.size() == b.size());
  Vector inv_diag;
  jacobi_preconditioner(a, inv_diag);
  CgWorkspace workspace;
  static_cast<CgStatus&>(result) =
      pcg_solve(a, inv_diag, b, result.x, workspace, options);
  return result;
}

}  // namespace ftl::linalg

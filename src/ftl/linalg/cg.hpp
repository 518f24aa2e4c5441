#pragma once
// Jacobi-preconditioned conjugate gradients for the SPD network Laplacians
// produced by the TCAD resistor-network solver.
//
// The kernel is fused: one sweep does the SpMV and accumulates p·Ap in row
// order, a second updates x and r and forms ||r||², z = D⁻¹r and r·z in the
// same loop, a third advances p. Every reduction keeps the sequential
// accumulation order of the textbook loop (matvec, then dot, then norm), so
// results are bit-identical to it; the build keeps fp-contraction off.

#include "ftl/linalg/sparse.hpp"

namespace ftl::linalg {

struct CgOptions {
  int max_iterations = 2000;
  double tolerance = 1e-12;  ///< relative residual ||r|| / ||b||
};

/// Outcome of one solve, without the solution vector.
struct CgStatus {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

struct CgResult : CgStatus {
  Vector x;
};

/// Scratch vectors of pcg_solve. Sized on first use; repeated solves of one
/// size then allocate nothing.
struct CgWorkspace {
  Vector r;
  Vector z;
  Vector p;
  Vector ap;
};

/// Jacobi preconditioner of `a`: 1 / A_ii, or 1 where the diagonal is zero
/// or absent. Writes into `inv_diag` (resized to a.rows()).
void jacobi_preconditioner(const SparseMatrix& a, Vector& inv_diag);

/// Solves A x = b in place for symmetric positive definite A, starting from
/// the current `x` (the warm start). `inv_diag` comes from
/// jacobi_preconditioner. Allocates nothing once `workspace` is sized.
CgStatus pcg_solve(const SparseMatrix& a, const Vector& inv_diag,
                   const Vector& b, Vector& x, CgWorkspace& workspace,
                   const CgOptions& options = {});

/// Solves A x = b for symmetric positive definite A.
/// `initial` (optional) warm-starts the iteration — the TCAD sweeps reuse
/// the previous bias point's solution.
CgResult conjugate_gradient(const SparseMatrix& a, const Vector& b,
                            const Vector& initial = {},
                            const CgOptions& options = {});

}  // namespace ftl::linalg

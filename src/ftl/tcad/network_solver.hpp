#pragma once
// Nonlinear resistor-network solver: the numerical engine of the TCAD
// substitute.
//
// The gated channel obeys the drift equation div(sigma(V) grad V) = 0 with
// sigma a fixed function of the local potential once the gate voltage is
// set. Under the Kirchhoff transform u = Phi(V) = integral of sigma, that
// equation is exactly Laplace's equation — linear — so the solver iterates
// two *linear* subproblems to convergence:
//   (a) a u-space Laplace solve over the gated cells (SPD, solved by CG),
//   (b) a V-space ohmic solve over the conductor cells (electrodes and
//       ungated wire), with the channel interface linearized around the
//       previous pass.
// This keeps pinch-off/saturation exact (the transform reproduces the
// level-1 saturation integral) and converges where a conductance-lagged
// Picard iteration on V oscillates.

#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "ftl/linalg/sparse.hpp"
#include "ftl/tcad/charge_sheet.hpp"
#include "ftl/tcad/mesh.hpp"

namespace ftl::tcad {

/// One bias point: gate voltage plus a Dirichlet voltage per driven
/// terminal. A disengaged optional means the terminal floats.
struct BiasPoint {
  double gate = 0.0;
  std::array<std::optional<double>, 4> terminal;
};

struct SolveResult {
  /// Channel potential per mesh cell (kOutside cells read 0).
  linalg::Vector node_voltage;
  /// Sheet current-density components per cell (A/m); outside cells read 0.
  linalg::Vector jx;
  linalg::Vector jy;
  /// Current entering the device at each terminal, A (positive = into the
  /// terminal from the external source). Floating terminals read 0.
  std::array<double, 4> terminal_current{};
  int nonlinear_iterations = 0;
  /// CG iterations spent by both blocks over all passes (0 on kSparseLu).
  int cg_iterations = 0;
  /// True when a pass met voltage_tol with every linear solve of that pass
  /// converged. A CG give-up never ends the iteration as converged.
  bool converged = false;
};

/// Linear-system backend for the two block subproblems. kSparseLu exploits
/// what the block iteration cannot hide from a factorization: the u-block
/// matrix is *constant* across passes (factor once, back-substitute per
/// pass) and the V-block keeps one sparsity pattern while its interface
/// linearization moves (numeric refactor per pass). kCg stays the default
/// because these mesh Laplacians are SPD and warm-started Jacobi-CG beats
/// a natural-order factorization's fill-in at paper mesh sizes (the 48x48
/// mesh has 2304 cells, 1184 of them active; a block holds ~400 gated or
/// ~390 conductor unknowns); the direct backend exists for differential
/// testing and for meshes/materials that leave CG poorly conditioned.
enum class LinearBackend { kCg, kSparseLu };

struct SolverOptions {
  int max_passes = 200;       ///< block (u, V) iteration budget
  double voltage_tol = 1e-6;  ///< max conductor-V / channel-V update, V
  LinearBackend backend = LinearBackend::kCg;
};

/// Solves bias points on a fixed device mesh. Everything that depends on
/// the mesh alone (edges, gated numbering, the constant u-block and its
/// Jacobi preconditioner) is built once by the constructor; solve() builds
/// the V-block pattern once per call and only rewrites its values per pass.
class NetworkSolver {
 public:
  NetworkSolver(DeviceMesh mesh, ChargeSheetModel model);

  const DeviceMesh& mesh() const { return mesh_; }
  const ChargeSheetModel& model() const { return model_; }

  /// Solves one bias point. `warm_start` (a previous node_voltage vector)
  /// accelerates sweeps. Throws ftl::Error when no terminal is driven.
  SolveResult solve(const BiasPoint& bias,
                    const linalg::Vector* warm_start = nullptr,
                    const SolverOptions& options = {}) const;

 private:
  struct Edge {
    int a;
    int b;
    bool horizontal;
  };

  DeviceMesh mesh_;
  ChargeSheetModel model_;
  std::vector<Edge> edges_;       ///< active neighbour pairs, row-major order
  std::vector<int> gated_index_;  ///< cell -> u unknown, or -1
  std::vector<int> gated_cells_;  ///< u unknown -> cell
  /// Gated-to-conductor edges in edge order: (u unknown, conductor cell).
  std::vector<std::pair<int, int>> u_boundary_;
  linalg::SparseMatrix u_matrix_;  ///< u-space Laplace block (constant)
  linalg::Vector u_inv_diag_;      ///< its Jacobi preconditioner
};

}  // namespace ftl::tcad

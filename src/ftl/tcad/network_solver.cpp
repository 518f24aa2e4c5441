#include "ftl/tcad/network_solver.hpp"

#include <algorithm>
#include <cmath>

#include "ftl/linalg/cg.hpp"
#include "ftl/linalg/interp.hpp"
#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/util/error.hpp"

namespace ftl::tcad {
namespace {

/// Tabulated Kirchhoff transform of the gated material at a fixed gate
/// voltage: u = Phi(V) = integral_0^V sigma_gated(v) dv, with its inverse.
/// Phi is strictly increasing (sigma has a positive floor), so both
/// directions are plain monotone interpolations.
class KirchhoffTransform {
 public:
  KirchhoffTransform(const ChargeSheetModel& model, double vg, double v_min,
                     double v_max, int points = 2001) {
    FTL_EXPECTS(v_max > v_min && points >= 2);
    v_ = linalg::linspace(v_min, v_max, static_cast<std::size_t>(points));
    u_.assign(v_.size(), 0.0);
    sigma_.assign(v_.size(), 0.0);
    for (std::size_t i = 0; i < v_.size(); ++i) {
      sigma_[i] = model.sheet_conductance(Region::kGated, vg, v_[i]);
    }
    for (std::size_t i = 1; i < v_.size(); ++i) {
      u_[i] = u_[i - 1] + 0.5 * (sigma_[i] + sigma_[i - 1]) * (v_[i] - v_[i - 1]);
    }
    // Shift so that Phi(0) = 0 (a pure convention; only differences matter).
    const double u0 = linalg::interp1(v_, u_, 0.0);
    for (double& u : u_) u -= u0;
  }

  double forward(double v) const { return linalg::interp1(v_, u_, v); }
  double inverse(double u) const { return linalg::interp1(u_, v_, u); }
  double sigma(double v) const { return linalg::interp1(v_, sigma_, v); }

 private:
  linalg::Vector v_;
  linalg::Vector u_;
  linalg::Vector sigma_;
};

}  // namespace

NetworkSolver::NetworkSolver(DeviceMesh mesh, ChargeSheetModel model)
    : mesh_(std::move(mesh)), model_(std::move(model)) {
  const int n_side = mesh_.cells_per_side;
  const int n_cells = mesh_.cell_count();
  const auto region = [&](int i) { return mesh_.region[static_cast<std::size_t>(i)]; };

  // --- Gated numbering: gated cells solve for u -------------------------
  gated_index_.assign(static_cast<std::size_t>(n_cells), -1);
  for (int i = 0; i < n_cells; ++i) {
    if (region(i) == Region::kGated) {
      gated_index_[static_cast<std::size_t>(i)] = static_cast<int>(gated_cells_.size());
      gated_cells_.push_back(i);
    }
  }

  // --- Edges -------------------------------------------------------------
  for (int iy = 0; iy < n_side; ++iy) {
    for (int ix = 0; ix < n_side; ++ix) {
      const int i = mesh_.index(ix, iy);
      if (region(i) == Region::kOutside) continue;
      if (ix + 1 < n_side && region(mesh_.index(ix + 1, iy)) != Region::kOutside) {
        edges_.push_back({i, mesh_.index(ix + 1, iy), true});
      }
      if (iy + 1 < n_side && region(mesh_.index(ix, iy + 1)) != Region::kOutside) {
        edges_.push_back({i, mesh_.index(ix, iy + 1), false});
      }
    }
  }

  // --- u-space Laplace block ----------------------------------------------
  // Constant for every bias point: unit edge conductances (a square-cell
  // drift edge carries exactly u_a - u_b) plus the tiny regularizing
  // diagonal. Only the RHS — the conductor boundary terms — moves with the
  // iteration.
  if (gated_cells_.empty()) return;
  linalg::TripletList trip(gated_cells_.size(), gated_cells_.size());
  for (const Edge& e : edges_) {
    const int ga = gated_index_[static_cast<std::size_t>(e.a)];
    const int gb = gated_index_[static_cast<std::size_t>(e.b)];
    if (ga >= 0 && gb >= 0) {
      trip.add(static_cast<std::size_t>(ga), static_cast<std::size_t>(ga), 1.0);
      trip.add(static_cast<std::size_t>(gb), static_cast<std::size_t>(gb), 1.0);
      trip.add(static_cast<std::size_t>(ga), static_cast<std::size_t>(gb), -1.0);
      trip.add(static_cast<std::size_t>(gb), static_cast<std::size_t>(ga), -1.0);
    } else if (ga >= 0 || gb >= 0) {
      // Boundary to conductor material: treat the edge as channel
      // material at the conductor's potential (the conductor's own drop
      // is negligible at the interface). The potential lands in the RHS;
      // the matrix only sees the unit edge conductance.
      const int g = ga >= 0 ? ga : gb;
      trip.add(static_cast<std::size_t>(g), static_cast<std::size_t>(g), 1.0);
      u_boundary_.emplace_back(g, ga >= 0 ? e.b : e.a);
    }
  }
  for (std::size_t k = 0; k < gated_cells_.size(); ++k) trip.add(k, k, 1e-18);
  u_matrix_ = linalg::SparseMatrix(trip);
  linalg::jacobi_preconditioner(u_matrix_, u_inv_diag_);
}

SolveResult NetworkSolver::solve(const BiasPoint& bias,
                                 const linalg::Vector* warm_start,
                                 const SolverOptions& options) const {
  const int n_cells = mesh_.cell_count();

  // --- Bias bookkeeping -----------------------------------------------
  std::vector<std::optional<double>> fixed(static_cast<std::size_t>(n_cells));
  bool any_driven = false;
  double v_lo = 0.0;
  double v_hi = 0.0;
  for (int i = 0; i < n_cells; ++i) {
    const int t = mesh_.terminal[static_cast<std::size_t>(i)];
    if (t >= 0 && bias.terminal[static_cast<std::size_t>(t)].has_value()) {
      const double v = *bias.terminal[static_cast<std::size_t>(t)];
      fixed[static_cast<std::size_t>(i)] = v;
      v_lo = std::min(v_lo, v);
      v_hi = std::max(v_hi, v);
      any_driven = true;
    }
  }
  if (!any_driven) throw ftl::Error("NetworkSolver: no terminal is driven");

  const KirchhoffTransform phi(model_, bias.gate, v_lo - 1.0, v_hi + 1.0);
  const double sigma_el =
      model_.sheet_conductance(Region::kConductor, bias.gate, 0.0);

  const auto region = [&](int i) { return mesh_.region[static_cast<std::size_t>(i)]; };

  // --- Conductor numbering: non-Dirichlet conductor cells solve for V ----
  std::vector<int> cond_index(static_cast<std::size_t>(n_cells), -1);
  std::vector<int> cond_cells;
  for (int i = 0; i < n_cells; ++i) {
    if (region(i) == Region::kConductor &&
        !fixed[static_cast<std::size_t>(i)].has_value()) {
      cond_index[static_cast<std::size_t>(i)] = static_cast<int>(cond_cells.size());
      cond_cells.push_back(i);
    }
  }

  // --- State -------------------------------------------------------------
  SolveResult result;
  result.node_voltage.assign(static_cast<std::size_t>(n_cells), 0.0);
  for (int i = 0; i < n_cells; ++i) {
    if (fixed[static_cast<std::size_t>(i)].has_value()) {
      result.node_voltage[static_cast<std::size_t>(i)] = *fixed[static_cast<std::size_t>(i)];
    } else if (warm_start != nullptr &&
               warm_start->size() == static_cast<std::size_t>(n_cells)) {
      result.node_voltage[static_cast<std::size_t>(i)] = (*warm_start)[static_cast<std::size_t>(i)];
    }
  }
  auto& v_of = result.node_voltage;
  const auto conductor_v = [&](int cell) { return v_of[static_cast<std::size_t>(cell)]; };

  linalg::Vector u(gated_cells_.size(), 0.0);
  for (std::size_t k = 0; k < gated_cells_.size(); ++k) {
    u[k] = phi.forward(v_of[static_cast<std::size_t>(gated_cells_[k])]);
  }

  // --- V-block assembly ---------------------------------------------------
  // V-space ohmic block over the non-Dirichlet conductor cells. Channel
  // interfaces are linearized around the current conductor potential:
  //   I = Phi(V_c) - u_g  ≈  sigma(V_c0) (V_c - V_c0) + Phi(V_c0) - u_g.
  // The stamp sequence (positions and order) depends only on the mesh and
  // on which terminals are driven, so it is the same on every pass.
  linalg::Vector v_rhs(cond_cells.size(), 0.0);
  const auto assemble_v = [&](auto&& stamp) {
    std::fill(v_rhs.begin(), v_rhs.end(), 0.0);
    for (const Edge& e : edges_) {
      const int ca = cond_index[static_cast<std::size_t>(e.a)];
      const int cb = cond_index[static_cast<std::size_t>(e.b)];
      const bool a_cond = region(e.a) == Region::kConductor;
      const bool b_cond = region(e.b) == Region::kConductor;
      if (a_cond && b_cond) {
        if (ca >= 0) {
          stamp(ca, ca, sigma_el);
          if (cb >= 0) stamp(ca, cb, -sigma_el);
          else v_rhs[static_cast<std::size_t>(ca)] += sigma_el * conductor_v(e.b);
        }
        if (cb >= 0) {
          stamp(cb, cb, sigma_el);
          if (ca >= 0) stamp(cb, ca, -sigma_el);
          else v_rhs[static_cast<std::size_t>(cb)] += sigma_el * conductor_v(e.a);
        }
      } else if (a_cond || b_cond) {
        const int c = a_cond ? ca : cb;
        if (c < 0) continue;  // Dirichlet conductor cell: nothing to solve
        const int cond_cell = a_cond ? e.a : e.b;
        const int gated_cell = a_cond ? e.b : e.a;
        const double v0 = conductor_v(cond_cell);
        const double sig = std::max(phi.sigma(v0), 1e-18);
        const double i0 = phi.forward(v0) -
                          u[static_cast<std::size_t>(gated_index_[static_cast<std::size_t>(gated_cell)])];
        // Current out of the conductor cell: i0 + sig (V - v0).
        stamp(c, c, sig);
        v_rhs[static_cast<std::size_t>(c)] += sig * v0 - i0;
      }
    }
    for (std::size_t k = 0; k < cond_cells.size(); ++k) {
      stamp(static_cast<int>(k), static_cast<int>(k), 1e-18);
    }
  };

  // Freeze the pattern once: one structural assembly through a kKeep
  // TripletList, then map every stamp to its CSR slot. A pass zeroes the
  // values and scatter-adds its stamps in the same insertion order, which
  // is exactly the sum SparseMatrix(TripletList) forms (0.0 plus each
  // duplicate in insertion order), so the values are bit-identical to a
  // fresh build. kKeep makes the pattern a function of structure alone, so
  // the LU backend's numeric-only refactor stays valid even if an
  // interface conductance cancels.
  linalg::SparseMatrix v_matrix;
  std::vector<std::size_t> v_slot;
  if (!cond_cells.empty()) {
    linalg::TripletList trip(cond_cells.size(), cond_cells.size());
    assemble_v([&](int r, int c, double v) {
      trip.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c), v);
    });
    v_matrix = linalg::SparseMatrix(trip, linalg::SparseMatrix::ZeroPolicy::kKeep);
    const std::vector<std::size_t>& row_start = v_matrix.row_start();
    const std::vector<std::size_t>& col_index = v_matrix.col_index();
    v_slot.reserve(trip.entries().size());
    for (const linalg::TripletList::Entry& t : trip.entries()) {
      const auto first = col_index.begin() + static_cast<std::ptrdiff_t>(row_start[t.row]);
      const auto last = col_index.begin() + static_cast<std::ptrdiff_t>(row_start[t.row + 1]);
      v_slot.push_back(static_cast<std::size_t>(std::lower_bound(first, last, t.col) -
                                                col_index.begin()));
    }
  }

  // --- Block iteration ----------------------------------------------------
  const bool use_lu = options.backend == LinearBackend::kSparseLu;
  linalg::SparseLu u_lu;
  if (use_lu && !gated_cells_.empty()) u_lu.factor(u_matrix_);
  linalg::SparseLu v_lu;

  // CG state lives across passes: each block warm-starts from its previous
  // solution, which is the current u and the current conductor voltages.
  linalg::CgWorkspace cg_workspace;
  linalg::Vector u_rhs(gated_cells_.size(), 0.0);
  linalg::Vector v_x(cond_cells.size(), 0.0);
  for (std::size_t k = 0; k < cond_cells.size(); ++k) v_x[k] = conductor_v(cond_cells[k]);
  linalg::Vector v_inv_diag;
  for (int pass = 0; pass < options.max_passes; ++pass) {
    result.nonlinear_iterations = pass + 1;
    bool linear_ok = true;

    // (a) u-space Laplace over the gated cells: refresh the boundary RHS
    // and solve against the constant block.
    if (!gated_cells_.empty()) {
      std::fill(u_rhs.begin(), u_rhs.end(), 0.0);
      for (const auto& [g, other] : u_boundary_) {
        u_rhs[static_cast<std::size_t>(g)] += phi.forward(conductor_v(other));
      }
      if (use_lu) {
        u_lu.solve(u_rhs, u);
      } else {
        const linalg::CgStatus cg =
            linalg::pcg_solve(u_matrix_, u_inv_diag_, u_rhs, u, cg_workspace);
        result.cg_iterations += cg.iterations;
        linear_ok = linear_ok && cg.converged;
      }
    }

    // (b) V-space ohmic solve over the non-Dirichlet conductor cells.
    double max_change = 0.0;
    if (!cond_cells.empty()) {
      std::vector<double>& values = v_matrix.values();
      std::fill(values.begin(), values.end(), 0.0);
      std::size_t next = 0;
      assemble_v([&](int, int, double v) { values[v_slot[next++]] += v; });
      if (use_lu) {
        // Same pattern every pass, values move with the linearization
        // point: numeric-only refactorization, full factor as fallback.
        if (!v_lu.factored() || !v_lu.refactor(v_matrix)) v_lu.factor(v_matrix);
        v_x = v_lu.solve(v_rhs);
      } else {
        linalg::jacobi_preconditioner(v_matrix, v_inv_diag);
        const linalg::CgStatus cg =
            linalg::pcg_solve(v_matrix, v_inv_diag, v_rhs, v_x, cg_workspace);
        result.cg_iterations += cg.iterations;
        linear_ok = linear_ok && cg.converged;
      }
      for (std::size_t k = 0; k < cond_cells.size(); ++k) {
        const std::size_t cell = static_cast<std::size_t>(cond_cells[k]);
        max_change = std::max(max_change, std::fabs(v_x[k] - v_of[cell]));
        v_of[cell] = v_x[k];
      }
    }

    // Track channel-V movement as well so single-region devices converge on
    // a meaningful criterion.
    for (std::size_t k = 0; k < gated_cells_.size(); ++k) {
      const std::size_t cell = static_cast<std::size_t>(gated_cells_[k]);
      const double v_new = phi.inverse(u[k]);
      max_change = std::max(max_change, std::fabs(v_new - v_of[cell]));
      v_of[cell] = v_new;
    }

    // A pass whose linear solve gave up is not a converged pass, however
    // small its update.
    if (max_change < options.voltage_tol && linear_ok) {
      result.converged = true;
      break;
    }
  }

  // --- Currents ------------------------------------------------------------
  const auto edge_current = [&](const Edge& e) {
    const bool a_gated = region(e.a) == Region::kGated;
    const bool b_gated = region(e.b) == Region::kGated;
    const auto u_at = [&](int cell) {
      const int g = gated_index_[static_cast<std::size_t>(cell)];
      return g >= 0 ? u[static_cast<std::size_t>(g)]
                    : phi.forward(v_of[static_cast<std::size_t>(cell)]);
    };
    if (a_gated || b_gated) return u_at(e.a) - u_at(e.b);
    return sigma_el * (v_of[static_cast<std::size_t>(e.a)] -
                       v_of[static_cast<std::size_t>(e.b)]);
  };

  result.jx.assign(static_cast<std::size_t>(n_cells), 0.0);
  result.jy.assign(static_cast<std::size_t>(n_cells), 0.0);
  std::vector<int> face_count_x(static_cast<std::size_t>(n_cells), 0);
  std::vector<int> face_count_y(static_cast<std::size_t>(n_cells), 0);
  for (const Edge& e : edges_) {
    const double i_ab = edge_current(e);

    // Current-density field: accumulate per-cell face currents (A/m after
    // dividing the sheet current by the face width = pitch).
    auto& comp = e.horizontal ? result.jx : result.jy;
    auto& count = e.horizontal ? face_count_x : face_count_y;
    comp[static_cast<std::size_t>(e.a)] += i_ab;
    comp[static_cast<std::size_t>(e.b)] += i_ab;
    ++count[static_cast<std::size_t>(e.a)];
    ++count[static_cast<std::size_t>(e.b)];

    // Terminal currents: edges leaving a driven terminal's cells.
    const int ta = mesh_.terminal[static_cast<std::size_t>(e.a)];
    const int tb = mesh_.terminal[static_cast<std::size_t>(e.b)];
    const bool a_fixed = fixed[static_cast<std::size_t>(e.a)].has_value();
    const bool b_fixed = fixed[static_cast<std::size_t>(e.b)].has_value();
    if (a_fixed && ta >= 0 && !(b_fixed && tb == ta)) {
      result.terminal_current[static_cast<std::size_t>(ta)] += i_ab;
    }
    if (b_fixed && tb >= 0 && !(a_fixed && ta == tb)) {
      result.terminal_current[static_cast<std::size_t>(tb)] -= i_ab;
    }
  }
  for (int i = 0; i < n_cells; ++i) {
    const std::size_t ui = static_cast<std::size_t>(i);
    if (face_count_x[ui] > 0) result.jx[ui] /= face_count_x[ui] * mesh_.pitch;
    if (face_count_y[ui] > 0) result.jy[ui] /= face_count_y[ui] * mesh_.pitch;
  }

  // Leakage floor from each driven terminal to the grounded bulk.
  const double g_leak = model_.terminal_leak_conductance();
  for (std::size_t t = 0; t < 4; ++t) {
    if (bias.terminal[t].has_value()) {
      result.terminal_current[t] += g_leak * (*bias.terminal[t]);
    }
  }
  return result;
}

}  // namespace ftl::tcad

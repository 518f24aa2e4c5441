#include "ftl/spice/dcop.hpp"

namespace ftl::spice {

OpResult newton_solve(Circuit& circuit, const linalg::Vector& initial,
                      EvalContext ctx, const NewtonOptions& options) {
  // Every analysis funnels through here, so one gate covers dcop, dcsweep
  // and transient; the hook runs once per topology and throws to abort.
  circuit.run_presolve_gate();
  const int n = circuit.prepare_unknowns();

  // The circuit-held pipeline keeps the assembly buffers, the cached MNA
  // sparsity pattern, and the factorization workspaces alive across
  // iterations AND across the sweep/transient steps that call back in here.
  MnaLinearSolver& solver = circuit.linear_solver();
  solver.prepare(n, options.matrix_mode);
  return detail::newton_loop(
      circuit, n, initial, ctx, options,
      [&](const EvalContext& step_ctx, linalg::Vector& next) {
        solver.solve_iteration(circuit, step_ctx, next);
      });
}

OpResult dc_operating_point(Circuit& circuit, const NewtonOptions& options) {
  return detail::dcop_ladder(
      options, [&](const linalg::Vector& initial, const EvalContext& ctx) {
        return newton_solve(circuit, initial, ctx, options);
      });
}

}  // namespace ftl::spice

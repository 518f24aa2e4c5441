#pragma once
// Newton–Raphson DC operating point with the two classic SPICE rescue
// ladders: gmin stepping and source stepping.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "ftl/spice/circuit.hpp"
#include "ftl/spice/linear_solver.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {

struct NewtonOptions {
  int max_iterations = 200;
  double abstol = 1e-6;      ///< node-voltage absolute tolerance, V
  double reltol = 1e-3;
  double max_step = 2.0;     ///< Newton voltage-step clamp, V
  double gmin = 1e-12;
  /// Linear-system backend; kAuto sizes the choice per circuit. kDense and
  /// kSparse force a backend for differential testing.
  MatrixMode matrix_mode = MatrixMode::kAuto;
};

struct OpResult {
  linalg::Vector solution;  ///< node voltages then branch currents
  bool converged = false;
  int iterations = 0;       ///< Newton iterations of the final ladder rung
  double gmin_used = 0.0;   ///< final gmin (diagnostic)
};

/// Computes the DC operating point. Tries plain Newton, then gmin stepping,
/// then source stepping. Throws ftl::Error on a singular system.
OpResult dc_operating_point(Circuit& circuit, const NewtonOptions& options = {});

/// One Newton solve at fixed context knobs; used by the steppers, the DC
/// sweep and the transient engine. `initial` seeds the iteration (may be
/// empty). `ctx_template` supplies time/integrator/source-scale knobs; the
/// solver pointer inside it is managed here.
OpResult newton_solve(Circuit& circuit, const linalg::Vector& initial,
                      EvalContext ctx_template, const NewtonOptions& options);

namespace detail {

/// The Newton loop behind every analysis: newton_solve and the batched
/// corner engine (spice/batch.hpp) both run it, so a batch lane iterates
/// bit for bit like a standalone solve. `n` is circuit.prepare_unknowns();
/// `step(ctx, next)` assembles the system linearized at *ctx.solution and
/// solves it into `next`, throwing ftl::Error when it is singular. Returns
/// unconverged after options.max_iterations.
template <class StepFn>
OpResult newton_loop(const Circuit& circuit, int n,
                     const linalg::Vector& initial, EvalContext ctx,
                     const NewtonOptions& options, StepFn&& step) {
  OpResult result;
  result.solution = initial.size() == static_cast<std::size_t>(n)
                        ? initial
                        : linalg::Vector(static_cast<std::size_t>(n), 0.0);
  result.gmin_used = ctx.gmin;

  const int node_count = circuit.node_count();
  // Step clamping is a nonlinear-convergence aid; a linear system's first
  // solve is already exact and must not be truncated.
  const bool nonlinear = circuit.has_nonlinear_devices();
  const bool clamp_steps = nonlinear;

  linalg::Vector next;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    ctx.solution = &result.solution;
    try {
      step(ctx, next);
    } catch (const ftl::Error& e) {
      throw ftl::Error(std::string("DC solve failed (") + e.what() +
                       "); check for floating nodes");
    }

    // Clamp the Newton step on node voltages to aid convergence.
    bool converged = true;
    for (int i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      double delta = next[ui] - result.solution[ui];
      if (clamp_steps && i < node_count) {
        delta = std::clamp(delta, -options.max_step, options.max_step);
      }
      const double updated = result.solution[ui] + delta;
      const double tol =
          options.abstol + options.reltol * std::max(std::fabs(updated),
                                                     std::fabs(result.solution[ui]));
      if (std::fabs(delta) > tol) converged = false;
      result.solution[ui] = updated;
    }
    // A linear system's first solve is exact: accept it at iter 0 instead
    // of burning a second assemble+factor+solve to "confirm" convergence.
    // Nonlinear systems still require one confirming iteration.
    if (converged && (iter > 0 || !nonlinear)) {
      result.converged = true;
      return result;
    }
    if (!nonlinear && iter == 0) {
      // Linear circuits land in one solve even when the update was large.
      result.converged = true;
      result.iterations = 1;
      return result;
    }
  }
  return result;
}

/// The DC operating-point strategy of dc_operating_point, shared verbatim
/// with the batched corner engine so both rescue identically: plain Newton
/// from a zero start, then gmin stepping, then source stepping from the
/// gmin ladder's best solution. `run(initial, ctx)` performs one Newton
/// solve and returns its OpResult. Throws ftl::Error when both ladders
/// stall.
template <class RunFn>
OpResult dcop_ladder(const NewtonOptions& options, RunFn&& run) {
  EvalContext ctx;
  ctx.is_transient = false;
  ctx.gmin = options.gmin;
  OpResult direct = run(linalg::Vector{}, ctx);
  if (direct.converged) return direct;

  // gmin stepping: solve an easier (leakier) circuit, then tighten.
  linalg::Vector guess;
  bool have_guess = false;
  for (double gmin = 1e-2; gmin >= options.gmin; gmin /= 10.0) {
    EvalContext step_ctx = ctx;
    step_ctx.gmin = gmin;
    OpResult r = run(have_guess ? guess : linalg::Vector{}, step_ctx);
    if (!r.converged) break;
    guess = r.solution;
    have_guess = true;
    if (gmin <= options.gmin * 10.0) {
      EvalContext final_ctx = ctx;
      OpResult final_result = run(guess, final_ctx);
      if (final_result.converged) return final_result;
      break;
    }
  }

  // Source stepping from whatever the gmin ladder produced, with an
  // adaptive step: a failed rung halves the increment and retries from the
  // last good solution.
  double scale = 0.0;
  double step = 0.1;
  while (scale < 1.0) {
    const double attempt_scale = std::min(scale + step, 1.0);
    EvalContext step_ctx = ctx;
    step_ctx.source_scale = attempt_scale;
    OpResult r = run(have_guess ? guess : linalg::Vector{}, step_ctx);
    if (r.converged) {
      scale = attempt_scale;
      guess = r.solution;
      have_guess = true;
      step = std::min(step * 2.0, 0.25);
      if (scale >= 1.0) return r;
    } else {
      step /= 2.0;
      if (step < 1e-4) {
        throw ftl::Error(
            "DC operating point: source stepping stalled at scale " +
            std::to_string(scale));
      }
    }
  }
  throw ftl::Error("DC operating point: convergence failed");
}

}  // namespace detail

}  // namespace ftl::spice

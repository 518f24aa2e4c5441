#include "ftl/spice/batch.hpp"

#include <atomic>

#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/util/error.hpp"

namespace ftl::spice {
namespace {

// Process-wide counters (relaxed: individually exact, mutually unordered),
// flushed once per dcop_batch call.
struct AtomicBatchCounters {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> lanes{0};
  std::atomic<std::uint64_t> symbolic_factors{0};
  std::atomic<std::uint64_t> symbolic_reuses{0};
  std::atomic<std::uint64_t> numeric_refactors{0};
  std::atomic<std::uint64_t> lane_fallbacks{0};
  std::atomic<std::uint64_t> newton_iterations{0};
};

AtomicBatchCounters& batch_counter_cells() {
  static AtomicBatchCounters counters;
  return counters;
}

}  // namespace

BatchCounters batch_counters() {
  AtomicBatchCounters& c = batch_counter_cells();
  BatchCounters out;
  out.batches = c.batches.load(std::memory_order_relaxed);
  out.lanes = c.lanes.load(std::memory_order_relaxed);
  out.symbolic_factors = c.symbolic_factors.load(std::memory_order_relaxed);
  out.symbolic_reuses = c.symbolic_reuses.load(std::memory_order_relaxed);
  out.numeric_refactors = c.numeric_refactors.load(std::memory_order_relaxed);
  out.lane_fallbacks = c.lane_fallbacks.load(std::memory_order_relaxed);
  out.newton_iterations = c.newton_iterations.load(std::memory_order_relaxed);
  return out;
}

void reset_batch_counters() {
  AtomicBatchCounters& c = batch_counter_cells();
  c.batches.store(0, std::memory_order_relaxed);
  c.lanes.store(0, std::memory_order_relaxed);
  c.symbolic_factors.store(0, std::memory_order_relaxed);
  c.symbolic_reuses.store(0, std::memory_order_relaxed);
  c.numeric_refactors.store(0, std::memory_order_relaxed);
  c.lane_fallbacks.store(0, std::memory_order_relaxed);
  c.newton_iterations.store(0, std::memory_order_relaxed);
}

std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply) {
  FTL_EXPECTS(lanes > 0);
  std::vector<BatchCornerResult> out(lanes);

  // One gate for the whole batch: the corners share a topology, so the
  // static checks render one verdict. A rejection fails every lane exactly
  // as it would have aborted every standalone solve.
  try {
    circuit.run_presolve_gate();
  } catch (const ftl::Error& e) {
    for (auto& r : out) {
      r.failed = true;
      r.error = e.what();
    }
    return out;
  }

  // Lanes run on the circuit's own pipeline; only the sparse factor/solve
  // moves to the lane-blocked LU. Dropping the cached pattern first starts
  // the batch where a freshly built standalone circuit starts.
  const NewtonOptions options;
  const int n = circuit.prepare_unknowns();
  MnaLinearSolver& solver = circuit.linear_solver();
  solver.invalidate();
  solver.prepare(n, options.matrix_mode);
  linalg::SparseLuBatch lu;
  lu.reset(lanes);
  std::uint64_t newton_iterations = 0;

  for (std::size_t lane = 0; lane < lanes; ++lane) {
    apply(lane);
    BatchCornerResult& r = out[lane];
    try {
      r.op = detail::dcop_ladder(
          options, [&](const linalg::Vector& initial, const EvalContext& ctx) {
            return detail::newton_loop(
                circuit, n, initial, ctx, options,
                [&](const EvalContext& step_ctx, linalg::Vector& next) {
                  ++newton_iterations;
                  solver.solve_iteration(circuit, step_ctx, lu, lane, next);
                });
          });
    } catch (const ftl::Error& e) {
      r.failed = true;
      r.error = e.what();
    }
  }

  AtomicBatchCounters& c = batch_counter_cells();
  const linalg::SparseLuBatchCounters& lc = lu.counters();
  c.batches.fetch_add(1, std::memory_order_relaxed);
  c.lanes.fetch_add(lanes, std::memory_order_relaxed);
  c.symbolic_factors.fetch_add(lc.symbolic_factors, std::memory_order_relaxed);
  c.symbolic_reuses.fetch_add(lc.symbolic_reuses, std::memory_order_relaxed);
  c.numeric_refactors.fetch_add(lc.numeric_refactors,
                                std::memory_order_relaxed);
  c.lane_fallbacks.fetch_add(lc.lane_fallbacks, std::memory_order_relaxed);
  c.newton_iterations.fetch_add(newton_iterations, std::memory_order_relaxed);
  return out;
}

}  // namespace ftl::spice

#pragma once
// Assemble -> factor -> solve pipeline for one Newton iteration, owning the
// reused assembly buffers and factorization workspaces. A Circuit carries
// one of these across Newton iterations, sweep points, and transient steps,
// so the sparsity pattern is computed once per circuit and the sparse LU
// reuses its symbolic analysis whenever the pattern holds still.

#include <cstddef>
#include <cstdint>

#include "ftl/linalg/lu.hpp"
#include "ftl/linalg/sparse_lu.hpp"
#include "ftl/spice/mna.hpp"

namespace ftl::spice {

class Circuit;

/// Process-wide Newton/LU pipeline counters (relaxed atomics, monotonic),
/// surfaced by the serve `stats` op as `spice_core` so production circuit
/// load is observable. They count newton_solve's iterations (every scalar
/// analysis); batch lanes run the same pipeline but report only as
/// `batch_core` (spice/batch.hpp).
struct SpiceCounters {
  std::uint64_t newton_iterations = 0;  ///< scalar iterations, all analyses
  std::uint64_t factors = 0;            ///< full sparse factorizations
  std::uint64_t refactors = 0;          ///< accepted numeric-only replays
  std::uint64_t dense_fallbacks = 0;    ///< sparse pivoting gave out mid-solve
  std::uint64_t dense_solves = 0;       ///< iterations served by the dense LU
};

/// Snapshot of the process-wide counters.
SpiceCounters spice_counters();

/// Resets all counters to zero (test support).
void reset_spice_counters();

/// Which matrix backend newton_solve uses. kAuto picks dense for small
/// systems (below MnaLinearSolver::kDenseCutover unknowns) and sparse above;
/// the explicit modes exist for differential testing and benchmarks.
enum class MatrixMode { kAuto, kDense, kSparse };

class MnaLinearSolver {
 public:
  /// Unknown count at which kAuto switches from dense LU to sparse LU. A
  /// lattice MNA matrix is >95% zeros by 3x3 (n ~ 35), where Gilbert-
  /// Peierls already wins; below this the dense kernel's locality does.
  static constexpr int kDenseCutover = 24;

  /// Readies the pipeline for an n-unknown system under `mode`; drops
  /// cached state when n or the effective backend changed.
  void prepare(int n, MatrixMode mode);

  /// Structure changed (devices added): drop the cached pattern/factors.
  void invalidate();

  /// One Newton iteration: zeroes the buffers, stamps every device of
  /// `circuit` at `ctx`, factors (reusing symbolic analysis when possible),
  /// and solves into `x`. Throws ftl::Error on a singular system. A sparse
  /// factorization failure falls back to dense once before giving up, so
  /// near-singular systems degrade instead of dying.
  void solve_iteration(const Circuit& circuit, const EvalContext& ctx,
                       linalg::Vector& x);

  /// The same iteration with lane `lane` of `batch` serving the sparse
  /// factor and solve in place of the pipeline's own SparseLu: the step of
  /// the batched corner engine. Counts nothing into spice_core.
  void solve_iteration(const Circuit& circuit, const EvalContext& ctx,
                       linalg::SparseLuBatch& batch, std::size_t lane,
                       linalg::Vector& x);

  bool using_sparse() const { return sparse_active_; }

 private:
  /// The one assemble -> factor -> solve pipeline; `batch` null means the
  /// pipeline's own SparseLu.
  void iterate(const Circuit& circuit, const EvalContext& ctx,
               linalg::SparseLuBatch* batch, std::size_t lane,
               linalg::Vector& x);

  int n_ = -1;
  MatrixMode mode_ = MatrixMode::kAuto;
  bool sparse_active_ = false;

  DenseAssembly dense_;
  linalg::LuFactorization dense_lu_;

  SparseAssembly sparse_;
  linalg::SparseLu sparse_lu_;
  bool have_symbolic_ = false;
};

}  // namespace ftl::spice

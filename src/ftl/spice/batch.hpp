#pragma once
// Batched corner/variability DC engine: one circuit topology, K parameter
// corners, ONE symbolic sparse-LU analysis. The caller supplies a mutator
// that retunes the shared circuit to lane i's corner (device parameters,
// source waveforms — anything that moves values without moving MNA stamp
// positions); each lane then runs dc_operating_point's ladder (plain
// Newton, gmin stepping, source stepping) with its sparse factorizations
// served by linalg::SparseLuBatch, so after the first lane every Newton
// iteration is a numeric replay of the recorded elimination instead of a
// fresh symbolic factorization.
//
// Determinism contract: lane i's result is bitwise identical to building a
// standalone circuit at corner i and calling dc_operating_point on it. A
// lane runs the very code of a standalone solve: the same Newton loop and
// ladder (dcop.hpp, detail::) and the same MnaLinearSolver pipeline, with
// only the sparse factor/solve moved to the lane's slot of the batch LU.
// An accepted SparseLu replay is bitwise identical to a full factor of the
// same matrix, and a rejected replay falls back to exactly that full
// factor. Consequently threads may split a batch into contiguous lane
// chunks (threads split the batch, never a lane) without perturbing any
// result.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ftl/spice/dcop.hpp"

namespace ftl::spice {

/// Process-wide batch-engine counters (relaxed atomics, monotonic),
/// surfaced by the serve `stats` op as `batch_core` next to `spice_core`.
struct BatchCounters {
  std::uint64_t batches = 0;            ///< dcop_batch calls
  std::uint64_t lanes = 0;              ///< corners solved across all batches
  std::uint64_t symbolic_factors = 0;   ///< full analyses (first lane + rescues)
  std::uint64_t symbolic_reuses = 0;    ///< lane factors replayed off the record
  std::uint64_t numeric_refactors = 0;  ///< accepted numeric-only replays
  std::uint64_t lane_fallbacks = 0;     ///< replays rejected -> per-lane factor
  std::uint64_t newton_iterations = 0;  ///< batched Newton iterations
};

/// Snapshot of the process-wide counters.
BatchCounters batch_counters();

/// Resets all counters to zero (test support).
void reset_batch_counters();

/// Outcome of one lane. `failed` mirrors dc_operating_point throwing for
/// that corner (singular system, stalled rescue): `error` then carries the
/// exception text and `op` is meaningless. Callers that would have caught
/// the per-trial ftl::Error treat failed lanes the same way.
struct BatchCornerResult {
  OpResult op;
  bool failed = false;
  std::string error;
};

/// Solves K corners of `circuit` at the default NewtonOptions, in lane
/// order. `apply(lane)` mutates `circuit` to lane's corner; it runs once per
/// lane, before that lane's first assembly. Single-threaded: parallel
/// callers give each thread its own circuit. Never throws for per-lane
/// numeric failures (reported per corner); a presolve-gate rejection fails
/// every lane with the same error.
std::vector<BatchCornerResult> dcop_batch(
    Circuit& circuit, std::size_t lanes,
    const std::function<void(std::size_t)>& apply);

}  // namespace ftl::spice

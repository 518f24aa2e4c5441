// Batched corner DC engine: bitwise agreement with standalone
// dc_operating_point across sparse and dense paths and through the rescue
// ladders, chain_current_batch parity, per-lane failure reporting, and the
// process-wide batch_core counters.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ftl/bridge/chain_netlist.hpp"
#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/spice/batch.hpp"
#include "ftl/spice/dcop.hpp"
#include "ftl/spice/devices.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl;

TEST(SpiceBatch, MatchesStandaloneDcopBitwiseOnXor3) {
  // One shared circuit, 8 lanes = the 8 input codes, each lane retuned by
  // waveform only. Lane k's solution must equal — bit for bit — a fresh
  // standalone build + dc_operating_point at code k: this is the engine's
  // determinism contract, and what licenses every consumer to batch.
  const auto lat = lattice::xor3_lattice_3x3();
  const double vdd = bridge::LatticeCircuitOptions{}.vdd;

  bridge::LatticeCircuit lc = bridge::build_lattice_circuit(lat, {});
  const int num_vars = static_cast<int>(lc.var_names.size());
  ASSERT_EQ(num_vars, 3);
  std::vector<spice::VoltageSource*> pos(lc.var_names.size(), nullptr);
  std::vector<spice::VoltageSource*> neg(lc.var_names.size(), nullptr);
  for (std::size_t v = 0; v < lc.var_names.size(); ++v) {
    const std::string base = "Vin_" + lc.var_names[v];
    if (lc.circuit.has_device(base)) {
      pos[v] = dynamic_cast<spice::VoltageSource*>(&lc.circuit.device(base));
    }
    if (lc.circuit.has_device(base + "_n")) {
      neg[v] =
          dynamic_cast<spice::VoltageSource*>(&lc.circuit.device(base + "_n"));
    }
  }

  const auto apply = [&](std::size_t lane) {
    for (std::size_t v = 0; v < lc.var_names.size(); ++v) {
      const bool bit = ((lane >> v) & 1u) != 0;
      const spice::Waveform w = spice::Waveform::dc(bit ? vdd : 0.0);
      if (pos[v] != nullptr) pos[v]->set_waveform(w);
      if (neg[v] != nullptr) neg[v]->set_waveform(w.complemented(vdd));
    }
  };
  const std::vector<spice::BatchCornerResult> batch =
      spice::dcop_batch(lc.circuit, 8, apply);
  ASSERT_EQ(batch.size(), 8u);

  for (std::uint64_t code = 0; code < 8; ++code) {
    std::map<int, spice::Waveform> drives;
    for (int v = 0; v < num_vars; ++v) {
      drives[v] = spice::Waveform::dc(((code >> v) & 1) != 0 ? vdd : 0.0);
    }
    bridge::LatticeCircuit standalone =
        bridge::build_lattice_circuit(lat, drives);
    const spice::OpResult op = spice::dc_operating_point(standalone.circuit);

    const spice::BatchCornerResult& r = batch[code];
    ASSERT_FALSE(r.failed) << "code=" << code << ": " << r.error;
    ASSERT_TRUE(r.op.converged) << "code=" << code;
    EXPECT_EQ(r.op.iterations, op.iterations) << "code=" << code;
    EXPECT_EQ(r.op.gmin_used, op.gmin_used) << "code=" << code;
    ASSERT_EQ(r.op.solution.size(), op.solution.size());
    for (std::size_t i = 0; i < op.solution.size(); ++i) {
      EXPECT_EQ(r.op.solution[i], op.solution[i])
          << "code=" << code << " unknown=" << i;
    }
  }
}

TEST(SpiceBatch, ChainCurrentBatchMatchesPerPointBitwise) {
  // Fig. 12a sweeps, short chain (dense linear-solver path) and longer
  // chain (sparse path with lane-blocked LU): the batched sweep must hit
  // the per-point scalar API exactly.
  std::vector<double> volts;
  for (int i = 0; i < 8; ++i) volts.push_back(0.3 + 0.35 * i);
  for (const int count : {1, 4}) {
    const std::vector<double> batched =
        bridge::chain_current_batch(count, volts, volts);
    ASSERT_EQ(batched.size(), volts.size());
    for (std::size_t k = 0; k < volts.size(); ++k) {
      const double serial = bridge::chain_current(count, volts[k], volts[k]);
      EXPECT_EQ(batched[k], serial) << "count=" << count << " v=" << volts[k];
    }
  }
}

TEST(SpiceBatch, CountersAccumulatePerBatchAndLane) {
  const spice::SpiceCounters scalar_before = spice::spice_counters();
  const spice::BatchCounters before = spice::batch_counters();
  std::vector<double> volts{0.5, 1.0, 1.5, 2.0};
  // 8 switches put the MNA system above the dense cutover, so the lanes
  // exercise the lane-blocked sparse LU (the dense path never refactors).
  bridge::chain_current_batch(8, volts, volts);
  const spice::BatchCounters after = spice::batch_counters();
  EXPECT_EQ(after.batches, before.batches + 1);
  EXPECT_EQ(after.lanes, before.lanes + volts.size());
  EXPECT_GT(after.newton_iterations, before.newton_iterations);
  // Lane 0's first Newton iteration pays the one symbolic analysis; later
  // factorizations ride the recorded elimination.
  EXPECT_GT(after.symbolic_reuses, before.symbolic_reuses);
  EXPECT_GT(after.numeric_refactors, before.numeric_refactors);

  // One switch stays below the cutover, so these lanes take the dense path.
  bridge::chain_current_batch(1, volts, volts);
  // Batch lanes run on the scalar pipeline but count into batch_core only:
  // no spice_core field moves on either path.
  const spice::SpiceCounters scalar_after = spice::spice_counters();
  EXPECT_EQ(scalar_after.newton_iterations, scalar_before.newton_iterations);
  EXPECT_EQ(scalar_after.factors, scalar_before.factors);
  EXPECT_EQ(scalar_after.refactors, scalar_before.refactors);
  EXPECT_EQ(scalar_after.dense_fallbacks, scalar_before.dense_fallbacks);
  EXPECT_EQ(scalar_after.dense_solves, scalar_before.dense_solves);
}

// `copies` stiff feedback cells on one supply rail. Each cell is a weak
// pass device (kp 0.01, gate on the rail) from node a to node out, a steep
// one (kp 100) from the rail to a whose gate is out, and 100 ohm from out to
// ground. The Rescue.* fixtures of test_spice_rescue.cpp all converge under
// plain Newton; this cell does not, at any supply used below, so its lanes
// must climb the gmin / source-stepping ladder. One cell takes the dense
// path; twelve (26 unknowns) take the sparse path.
spice::Circuit stiff_feedback_cells(int copies, double supply) {
  const auto level1 = [](double kp) {
    fit::Level1Params p;
    p.kp = kp;
    p.vth = 0.2;
    p.lambda = 0.0;
    p.width = 1e-6;
    p.length = 1e-6;
    return p;
  };
  spice::Circuit c;
  const int rail = c.node("vdd");
  c.add(std::make_unique<spice::VoltageSource>(
      "VDD", rail, spice::Circuit::kGround, spice::Waveform::dc(supply)));
  for (int k = 0; k < copies; ++k) {
    const std::string tag = std::to_string(k);
    const int a = c.node("a" + tag);
    const int out = c.node("out" + tag);
    c.add(std::make_unique<spice::Mosfet>("MA" + tag, a, rail, out,
                                          spice::Circuit::kGround,
                                          level1(0.01)));
    c.add(std::make_unique<spice::Mosfet>("MB" + tag, a, out, rail,
                                          spice::Circuit::kGround,
                                          level1(100.0)));
    c.add(std::make_unique<spice::Resistor>("R" + tag, out,
                                            spice::Circuit::kGround, 100.0));
  }
  return c;
}

TEST(SpiceBatch, RescuedLanesMatchStandaloneDcopBitwise) {
  // Every rung of a lane's rescue ladder runs through the batch LU and must
  // replay the standalone solve bit for bit.
  const std::vector<double> supplies{3.0, 3.7, 4.5};
  for (const int copies : {1, 12}) {
    spice::Circuit shared = stiff_feedback_cells(copies, supplies[0]);
    auto& vdd = dynamic_cast<spice::VoltageSource&>(shared.device("VDD"));
    const std::vector<spice::BatchCornerResult> batch = spice::dcop_batch(
        shared, supplies.size(), [&](std::size_t lane) {
          vdd.set_waveform(spice::Waveform::dc(supplies[lane]));
        });
    ASSERT_EQ(batch.size(), supplies.size());

    for (std::size_t lane = 0; lane < supplies.size(); ++lane) {
      const std::string where = "copies=" + std::to_string(copies) +
                                " supply=" + std::to_string(supplies[lane]);
      // The corner really needs the ladder: plain Newton from zero stalls.
      spice::Circuit plain = stiff_feedback_cells(copies, supplies[lane]);
      const spice::NewtonOptions options;
      spice::EvalContext ctx;
      ctx.gmin = options.gmin;
      ASSERT_FALSE(spice::newton_solve(plain, {}, ctx, options).converged)
          << where;

      spice::Circuit standalone = stiff_feedback_cells(copies, supplies[lane]);
      const spice::OpResult op = spice::dc_operating_point(standalone);
      const spice::BatchCornerResult& r = batch[lane];
      ASSERT_FALSE(r.failed) << where << ": " << r.error;
      ASSERT_TRUE(r.op.converged) << where;
      EXPECT_EQ(r.op.iterations, op.iterations) << where;
      EXPECT_EQ(r.op.gmin_used, op.gmin_used) << where;
      ASSERT_EQ(r.op.solution.size(), op.solution.size());
      for (std::size_t i = 0; i < op.solution.size(); ++i) {
        EXPECT_EQ(r.op.solution[i], op.solution[i])
            << where << " unknown=" << i;
      }
    }
  }
}

TEST(SpiceBatch, PresolveRejectionFailsEveryLaneWithoutThrowing) {
  // The corners share one topology, so the static gate renders one verdict;
  // the batch API reports it per lane instead of throwing mid-batch.
  bridge::ChainCircuit chain = bridge::build_switch_chain(2, 1.2, 1.2);
  chain.circuit.set_presolve_hook(
      [](const spice::Circuit&) { throw ftl::Error("lint: gate rejected"); });
  const auto results =
      spice::dcop_batch(chain.circuit, 3, [](std::size_t) {});
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.error.find("gate rejected"), std::string::npos);
    EXPECT_FALSE(r.op.converged);
  }
}

}  // namespace

// Convergence-rescue tests: circuits engineered to defeat plain Newton so
// the gmin-stepping and adaptive source-stepping ladders must engage, plus
// transient step-halving.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ftl/spice/dcop.hpp"
#include "ftl/spice/devices.hpp"
#include "ftl/spice/mosfet.hpp"
#include "ftl/spice/sources.hpp"
#include "ftl/spice/transient.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::spice;

ftl::fit::Level1Params sharp_device() {
  // Very steep device: large Kp makes the Newton landscape stiff.
  ftl::fit::Level1Params p;
  p.kp = 5e-2;
  p.vth = 0.2;
  p.lambda = 0.0;
  p.width = 1e-6;
  p.length = 1e-6;
  return p;
}

TEST(Rescue, LongPassGateLadderConverges) {
  // 24 pass transistors in series between 5 V and ground, all gates at a
  // separate rail: interior nodes start far from their solution, which is
  // exactly the shape that needs the rescue ladders.
  Circuit c;
  c.add(std::make_unique<VoltageSource>("VS", c.node("n0"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  c.add(std::make_unique<VoltageSource>("VG", c.node("g"), Circuit::kGround,
                                        Waveform::dc(5.0)));
  const int stages = 24;
  for (int i = 0; i < stages; ++i) {
    // Named operands: GCC 12 reports a false -Wrestrict on "n" + a
    // temporary std::string.
    const std::string index = std::to_string(i);
    const std::string next = std::to_string(i + 1);
    const std::string d = "n" + index;
    const std::string s = (i == stages - 1) ? "0" : "n" + next;
    c.add(std::make_unique<Mosfet>("M" + index, c.node(d), c.node("g"),
                                   c.node(s), Circuit::kGround,
                                   sharp_device()));
  }
  const OpResult op = dc_operating_point(c);
  ASSERT_TRUE(op.converged);
  // The interior node voltages must be a monotone ladder from 5 V to 0.
  double prev = 5.0 + 1e-9;
  for (int i = 0; i < stages; ++i) {
    const std::string index = std::to_string(i);
    const double v =
        op.solution[static_cast<std::size_t>(c.find_node("n" + index))];
    EXPECT_LE(v, prev + 1e-9) << i;
    EXPECT_GE(v, -1e-6);
    prev = v;
  }
}

// One stiff feedback cell on a `supply` rail: a weak pass device (kp 0.01,
// gate on the rail) from node a to node out, a steep one (kp 100) from the
// rail to a whose gate is out, and 100 ohm from out to ground. Plain Newton
// from zero does not converge on it, so dc_operating_point must climb the
// gmin / source-stepping ladder. `reversed` adds the devices in the
// opposite order.
std::unique_ptr<Circuit> stiff_feedback_cell(double supply,
                                             bool reversed = false) {
  const auto level1 = [](double kp) {
    ftl::fit::Level1Params p = sharp_device();
    p.kp = kp;
    return p;
  };
  auto c = std::make_unique<Circuit>();
  const int rail = c->node("vdd");
  const int a = c->node("a");
  const int out = c->node("out");
  c->add(std::make_unique<VoltageSource>("VDD", rail, Circuit::kGround,
                                         Waveform::dc(supply)));
  std::vector<std::unique_ptr<Device>> devices;
  devices.push_back(std::make_unique<Mosfet>("MA", a, rail, out,
                                             Circuit::kGround, level1(0.01)));
  devices.push_back(std::make_unique<Mosfet>("MB", a, out, rail,
                                             Circuit::kGround, level1(100.0)));
  devices.push_back(
      std::make_unique<Resistor>("R", out, Circuit::kGround, 100.0));
  if (reversed) std::reverse(devices.begin(), devices.end());
  for (auto& d : devices) c->add(std::move(d));
  return c;
}

bool plain_newton_converges(Circuit& c) {
  const NewtonOptions options;
  EvalContext ctx;
  ctx.gmin = options.gmin;
  return newton_solve(c, {}, ctx, options).converged;
}

TEST(Rescue, StiffFeedbackPairConverges) {
  // The steep device feeds back on the pass device's source: plain Newton
  // from zero overshoots; the clamp plus ladders must still land it. The
  // only consistent operating point carries no current (MB would conduct
  // only with out above a + vth, MA only from a down to out), so both
  // internal nodes sit at ground.
  const double supply = 4.5;
  ASSERT_FALSE(plain_newton_converges(*stiff_feedback_cell(supply)));
  const std::unique_ptr<Circuit> c = stiff_feedback_cell(supply);
  const OpResult op = dc_operating_point(*c);
  ASSERT_TRUE(op.converged);
  const double va = op.solution[static_cast<std::size_t>(c->find_node("a"))];
  const double vout =
      op.solution[static_cast<std::size_t>(c->find_node("out"))];
  EXPECT_NEAR(op.solution[static_cast<std::size_t>(c->find_node("vdd"))],
              supply, 1e-12);
  EXPECT_NEAR(va, 0.0, 1e-9);
  EXPECT_NEAR(vout, 0.0, 1e-9);
  EXPECT_LT(va, supply);
}

TEST(Rescue, SourceSteppingIsOrderIndependentOfDeviceInsertion) {
  // The same circuit built in two different device orders must land on the
  // same operating point (the ladders must not depend on stamp order).
  for (const bool reversed : {false, true}) {
    ASSERT_FALSE(plain_newton_converges(*stiff_feedback_cell(3.0, reversed)))
        << "reversed=" << reversed;
  }
  auto c1 = stiff_feedback_cell(3.0, false);
  auto c2 = stiff_feedback_cell(3.0, true);
  const OpResult op1 = dc_operating_point(*c1);
  const OpResult op2 = dc_operating_point(*c2);
  for (const char* node : {"a", "out"}) {
    EXPECT_NEAR(op1.solution[static_cast<std::size_t>(c1->find_node(node))],
                op2.solution[static_cast<std::size_t>(c2->find_node(node))],
                1e-6)
        << node;
  }
}

TEST(Rescue, TransientStepHalvingSurvivesFastEdges) {
  // A pulse edge much faster than dt forces the engine to land exactly on
  // the breakpoints and halve steps; the final value must still be right.
  Circuit c;
  c.add(std::make_unique<VoltageSource>(
      "V1", c.node("in"), Circuit::kGround,
      Waveform::pulse(0.0, 2.0, 50e-9, 1e-12, 1e-12, 1.0, 0.0)));
  c.add(std::make_unique<Resistor>("R1", c.node("in"), c.node("out"), 100.0));
  c.add(std::make_unique<Capacitor>("C1", c.node("out"), Circuit::kGround, 1e-12));
  TransientOptions options;
  options.tstop = 200e-9;
  options.dt = 10e-9;  // 10^4 times the edge duration
  options.record_nodes = {"out"};
  // Backward Euler (L-stable) settles the stiff edge exactly.
  options.integrator = Integrator::kBackwardEuler;
  const TransientResult be = transient(c, options);
  EXPECT_NEAR(be.signal("out").back(), 2.0, 1e-6);
  EXPECT_NEAR(be.signal("out").front(), 0.0, 1e-9);
  // Trapezoidal is only A-stable: with dt = 100 tau it rings with decay
  // ratio ~0.96 per step, so after 15 steps ~1% residual remains — the
  // documented reason SPICE defaults pair trap with LTE control.
  options.integrator = Integrator::kTrapezoidal;
  const TransientResult trap = transient(c, options);
  EXPECT_NEAR(trap.signal("out").back(), 2.0, 0.05);
}

}  // namespace

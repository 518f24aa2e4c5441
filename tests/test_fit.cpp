// Parameter-extraction tests: the level-1 equations themselves, recovery of
// known parameters from synthetic data, weighting behaviour, and the full
// TCAD -> fit pipeline.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "ftl/fit/extract.hpp"
#include "ftl/fit/mosfet_level1.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl::fit;

Level1Params reference_params() {
  Level1Params p;
  p.kp = 3e-5;
  p.vth = 0.4;
  p.lambda = 0.03;
  p.width = 0.7e-6;
  p.length = 0.35e-6;
  return p;
}

TEST(Level1, CutoffRegion) {
  const Level1Params p = reference_params();
  EXPECT_DOUBLE_EQ(level1_ids(p, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(level1_ids(p, 0.4, 1.0), 0.0);  // exactly at Vth
  EXPECT_DOUBLE_EQ(level1_ids(p, -1.0, 5.0), 0.0);
}

TEST(Level1, TriodeMatchesFormula) {
  const Level1Params p = reference_params();
  const double vgs = 2.0;
  const double vds = 0.5;  // vds < vov = 1.6
  const double expected = p.beta() * ((vgs - p.vth) * vds - 0.5 * vds * vds) *
                          (1.0 + p.lambda * vds);
  EXPECT_DOUBLE_EQ(level1_ids(p, vgs, vds), expected);
}

TEST(Level1, SaturationMatchesFormula) {
  const Level1Params p = reference_params();
  const double vgs = 2.0;
  const double vds = 3.0;  // vds > vov
  const double vov = vgs - p.vth;
  const double expected = 0.5 * p.beta() * vov * vov * (1.0 + p.lambda * vds);
  EXPECT_DOUBLE_EQ(level1_ids(p, vgs, vds), expected);
}

TEST(Level1, ContinuousAcrossRegionBoundary) {
  const Level1Params p = reference_params();
  for (double vgs = 0.5; vgs <= 5.0; vgs += 0.5) {
    const double vov = vgs - p.vth;
    if (vov <= 0) continue;
    const double below = level1_ids(p, vgs, vov - 1e-9);
    const double above = level1_ids(p, vgs, vov + 1e-9);
    EXPECT_NEAR(below, above, 1e-9 * std::max(below, 1e-12)) << vgs;
  }
}

TEST(Level1, NegativeVdsRejected) {
  EXPECT_THROW(level1_ids(reference_params(), 1.0, -0.1),
               ftl::ContractViolation);
}

class Level1Derivative : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(Level1Derivative, MatchesFiniteDifferences) {
  const Level1Params p = reference_params();
  const auto [vgs, vds] = GetParam();
  const Level1Derivatives d = level1_derivatives(p, vgs, vds);
  const double h = 1e-7;
  EXPECT_NEAR(d.ids, level1_ids(p, vgs, vds), 1e-15);
  const double gm_fd = (level1_ids(p, vgs + h, vds) - level1_ids(p, vgs - h, vds)) / (2 * h);
  const double gds_fd = (level1_ids(p, vgs, vds + h) - level1_ids(p, vgs, std::max(vds - h, 0.0))) /
                        (vds - h >= 0.0 ? 2 * h : h);
  EXPECT_NEAR(d.gm, gm_fd, 1e-6 * std::max(std::fabs(gm_fd), 1e-9));
  EXPECT_NEAR(d.gds, gds_fd, 1e-5 * std::max(std::fabs(gds_fd), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, Level1Derivative,
    ::testing::Values(std::pair{2.0, 0.5}, std::pair{2.0, 3.0},
                      std::pair{1.0, 0.1}, std::pair{5.0, 5.0},
                      std::pair{0.2, 1.0},   // cutoff
                      std::pair{3.0, 2.0}));

std::vector<IvSample> synthesize_samples(const Level1Params& truth,
                                         double noise_fraction, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<IvSample> samples;
  for (double vg = 0.0; vg <= 5.0; vg += 0.25) {
    const double i = level1_ids(truth, vg, 5.0);
    samples.push_back({vg, 5.0, i * (1.0 + noise_fraction * noise(rng))});
  }
  for (double vd = 0.0; vd <= 5.0; vd += 0.25) {
    const double i = level1_ids(truth, 5.0, vd);
    samples.push_back({5.0, vd, i * (1.0 + noise_fraction * noise(rng))});
  }
  return samples;
}

struct RecoveryCase {
  double kp;
  double vth;
  double lambda;
  double noise;
};

class FitRecovery : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(FitRecovery, RecoversKnownParameters) {
  const auto c = GetParam();
  Level1Params truth;
  truth.kp = c.kp;
  truth.vth = c.vth;
  truth.lambda = c.lambda;
  truth.width = 0.7e-6;
  truth.length = 0.35e-6;
  const auto samples = synthesize_samples(truth, c.noise, 42);
  const FitResult fit =
      fit_level1(samples, initial_guess(samples, truth.width, truth.length));
  const double tol = c.noise > 0.0 ? 0.08 : 0.01;
  EXPECT_NEAR(fit.params.kp, truth.kp, tol * truth.kp);
  EXPECT_NEAR(fit.params.vth, truth.vth, 0.05 + tol);
  EXPECT_NEAR(fit.params.lambda, truth.lambda, 0.02 + tol * truth.lambda);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSets, FitRecovery,
    ::testing::Values(RecoveryCase{3e-5, 0.4, 0.03, 0.0},
                      RecoveryCase{1e-4, 1.0, 0.0, 0.0},
                      RecoveryCase{5e-6, 0.16, 0.1, 0.0},
                      RecoveryCase{2e-5, 1.4, 0.05, 0.0},
                      RecoveryCase{3e-5, 0.4, 0.03, 0.01},
                      RecoveryCase{1e-4, 0.8, 0.02, 0.02}));

TEST(Fit, EmptySampleSetThrows) {
  EXPECT_THROW(fit_level1({}, Level1Params{}), ftl::Error);
}

TEST(Fit, ReportsUnweightedRms) {
  Level1Params truth = reference_params();
  const auto samples = synthesize_samples(truth, 0.0, 1);
  const FitResult fit =
      fit_level1(samples, initial_guess(samples, truth.width, truth.length));
  EXPECT_LT(fit.rms, 1e-8);
  EXPECT_TRUE(fit.converged);
}

TEST(Fit, InitialGuessLandsNearTruth) {
  const Level1Params truth = reference_params();
  const auto samples = synthesize_samples(truth, 0.0, 2);
  const Level1Params guess = initial_guess(samples, truth.width, truth.length);
  // The sqrt regression on ideal square-law data is nearly exact (lambda
  // adds a small upward bias).
  EXPECT_NEAR(guess.vth, truth.vth, 0.3);
  EXPECT_NEAR(guess.kp, truth.kp, 0.3 * truth.kp);
}

TEST(Fit, SamplesFromCurvesStitchesBothScenarios) {
  ftl::tcad::IvCurve idvg;
  idvg.sweep_values = {0.0, 1.0};
  idvg.terminal_currents = {{1e-9, 0, 0, 0}, {2e-6, 0, 0, 0}};
  ftl::tcad::IvCurve idvd;
  idvd.sweep_values = {0.0, 5.0};
  idvd.terminal_currents = {{0.0, 0, 0, 0}, {5e-6, 0, 0, 0}};
  const auto samples = samples_from_curves(idvg, 5.0, idvd, 5.0, 0);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_DOUBLE_EQ(samples[0].vds, 5.0);
  EXPECT_DOUBLE_EQ(samples[1].vgs, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].vgs, 5.0);
  EXPECT_DOUBLE_EQ(samples[3].ids, 5e-6);
}

TEST(FitPipeline, ExtractsPositiveThresholdFromSquareDevice) {
  // Full §IV pipeline on a coarse mesh (kept small for test speed).
  const auto spec = ftl::tcad::make_device(ftl::tcad::DeviceShape::kSquare,
                                           ftl::tcad::GateDielectric::kHfO2);
  const ftl::tcad::NetworkSolver solver(ftl::tcad::build_mesh(spec, 24),
                                        ftl::tcad::ChargeSheetModel(spec));
  const FitResult fit = extract_from_device(
      solver, ftl::tcad::parse_bias_case("DSFF"), 0.7e-6, 0.35e-6);
  EXPECT_TRUE(fit.converged);
  EXPECT_GT(fit.params.kp, 1e-6);
  EXPECT_LT(fit.params.kp, 1e-3);
  EXPECT_GE(fit.params.vth, 0.0);  // the switch must turn off at Vgs = 0
  EXPECT_LT(fit.params.vth, 1.0);
  EXPECT_GE(fit.params.lambda, 0.0);
}

// ---- the §IV sweep data, pinned ---------------------------------------------

ftl::tcad::NetworkSolver square_hfo2(int cells) {
  const auto spec = ftl::tcad::make_device(ftl::tcad::DeviceShape::kSquare,
                                           ftl::tcad::GateDielectric::kHfO2);
  return ftl::tcad::NetworkSolver(ftl::tcad::build_mesh(spec, cells),
                                  ftl::tcad::ChargeSheetModel(spec));
}

void expect_curve_bits(const ftl::tcad::IvCurve& curve,
                       const std::vector<std::array<std::uint64_t, 4>>& want) {
  ASSERT_EQ(curve.terminal_currents.size(), want.size()) << curve.label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (std::size_t t = 0; t < 4; ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(curve.terminal_currents[i][t]), want[i][t])
          << curve.label << " point " << i << " T" << t + 1;
    }
  }
}

TEST(FitSweeps, DsffMesh12GoldenCurrents) {
  // The DSFF fit sweeps at the benchmark's tiny size (mesh 12, 9 points),
  // every terminal current pinned to the bit: a kernel change that drifts
  // one ulp anywhere in the TCAD stage fails here, not only in the
  // benchmark's artifact digests.
  const FitSweepData data =
      paper_fit_sweeps(square_hfo2(12), ftl::tcad::parse_bias_case("DSFF"), 9);
  EXPECT_EQ(data.drain, 0);
  EXPECT_EQ(data.idvg.solver_passes, 343);
  EXPECT_EQ(data.idvd.solver_passes, 302);
  EXPECT_EQ(data.idvg.unconverged_points, 0);
  EXPECT_EQ(data.idvd.unconverged_points, 0);
  EXPECT_GT(data.idvg.cg_iterations, data.idvg.solver_passes);
  expect_curve_bits(data.idvg, {
      {0x3e1975fead812219ULL, 0xbdf358440a9a2de6ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3ee89af9d6ba1db2ULL, 0xbee89a403d4fcab7ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f1096acfbae22dcULL, 0xbf109693779cdd6aULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f23eb4db440a7d1ULL, 0xbf23eb3fcfa9cfd2ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f31f3b1bc2476dfULL, 0xbf31f3aa3dafe0d9ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f3be86524898a42ULL, 0xbf3be85d1e73c6ccULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f43d21b5330f774ULL, 0xbf43d2171017e9d4ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f4a7f068cb1173eULL, 0xbf4a7f020b5c1bbeULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f50f4885df180faULL, 0xbf50f485feef7085ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
  });
  expect_curve_bits(data.idvd, {
      {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f2da8bdcc9cc516ULL, 0xbf2da8b09cd154c1ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f3c2e68f837b8adULL, 0xbf3c2e6253b48c2dULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f43f52c4e72ec6bULL, 0xbf43f528294fee78ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f48ef874c2ca86fULL, 0xbf48ef8350aac216ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f4cee803284e455ULL, 0xbf4cee7baa2d738eULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f4fd6649dc7ae59ULL, 0xbf4fd6609057a70cULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f50c3590d091817ULL, 0xbf50c356cc5bc14aULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
      {0x3f50f488676c1fd3ULL, 0xbf50f485f5713c0cULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
  });
}

bool same_bytes(const ftl::tcad::IvCurve& a, const ftl::tcad::IvCurve& b) {
  return a.label == b.label && a.sweep_variable == b.sweep_variable &&
         a.sweep_values.size() == b.sweep_values.size() &&
         std::memcmp(a.sweep_values.data(), b.sweep_values.data(),
                     a.sweep_values.size() * sizeof(double)) == 0 &&
         a.terminal_currents.size() == b.terminal_currents.size() &&
         std::memcmp(a.terminal_currents.data(), b.terminal_currents.data(),
                     a.terminal_currents.size() * sizeof(a.terminal_currents[0])) == 0 &&
         a.solver_passes == b.solver_passes && a.cg_iterations == b.cg_iterations &&
         a.unconverged_points == b.unconverged_points;
}

TEST(FitSweeps, ParallelLegsMatchSerialSweeps) {
  // paper_fit_sweeps runs its two legs concurrently over one const solver;
  // the result must be byte-identical to running them one after the other.
  const ftl::tcad::NetworkSolver solver = square_hfo2(12);
  for (const char* name : {"DSFF", "SFDF"}) {
    const ftl::tcad::BiasCase bias = ftl::tcad::parse_bias_case(name);
    const FitSweepData parallel = paper_fit_sweeps(solver, bias, 9);
    const ftl::tcad::IvCurve idvg = ftl::tcad::sweep_gate(solver, bias, 5.0, 0.0, 5.0, 9);
    const ftl::tcad::IvCurve idvd = ftl::tcad::sweep_drain(solver, bias, 5.0, 0.0, 5.0, 9);
    EXPECT_TRUE(same_bytes(parallel.idvg, idvg)) << name;
    EXPECT_TRUE(same_bytes(parallel.idvd, idvd)) << name;
  }
}

}  // namespace

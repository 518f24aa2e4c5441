// Sparse-matrix and conjugate-gradient tests, including agreement with the
// dense LU solver on random SPD systems and grid Laplacians (the exact
// workload of the TCAD network solver), and bit-identity of the fused PCG
// kernel with the textbook loop it replaced.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "ftl/linalg/cg.hpp"
#include "ftl/linalg/lu.hpp"
#include "ftl/linalg/sparse.hpp"
#include "ftl/tcad/device.hpp"
#include "ftl/tcad/mesh.hpp"
#include "ftl/util/error.hpp"

namespace {

using ftl::linalg::conjugate_gradient;
using ftl::linalg::Matrix;
using ftl::linalg::SparseMatrix;
using ftl::linalg::TripletList;
using ftl::linalg::Vector;

// The unfused Jacobi-PCG loop (matvec, dot, axpy, norm, precondition, dot,
// update — one allocating pass each), kept as the oracle the fused kernel
// must match bit for bit.
ftl::linalg::CgResult reference_pcg(const SparseMatrix& a, const Vector& b,
                                    const Vector& initial,
                                    const ftl::linalg::CgOptions& options = {}) {
  const std::size_t n = b.size();
  ftl::linalg::CgResult result;
  result.x = initial.empty() ? Vector(n, 0.0) : initial;
  const double bnorm = ftl::linalg::norm2(b);
  if (bnorm == 0.0) {
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }
  Vector inv_diag = a.diagonal();
  for (double& d : inv_diag) d = (d != 0.0) ? 1.0 / d : 1.0;
  Vector r = b;
  {
    const Vector ax = a.multiply(result.x);
    for (std::size_t i = 0; i < n; ++i) r[i] -= ax[i];
  }
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  Vector p = z;
  double rz = ftl::linalg::dot(r, z);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    const Vector ap = a.multiply(p);
    const double pap = ftl::linalg::dot(p, ap);
    if (pap <= 0.0) break;
    const double alpha = rz / pap;
    for (std::size_t i = 0; i < n; ++i) {
      result.x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    result.relative_residual = ftl::linalg::norm2(r) / bnorm;
    if (result.relative_residual < options.tolerance) {
      result.converged = true;
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = ftl::linalg::dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return result;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Fused public entry point and fused in-place kernel (with a reused
// workspace) against the oracle: same x bits, iteration count, residual
// bits and verdict.
void expect_bit_identical(const SparseMatrix& a, const Vector& b,
                          const Vector& initial,
                          ftl::linalg::CgWorkspace& workspace,
                          const ftl::linalg::CgOptions& options = {}) {
  const ftl::linalg::CgResult want = reference_pcg(a, b, initial, options);
  const ftl::linalg::CgResult got = conjugate_gradient(a, b, initial, options);
  Vector x = initial.empty() ? Vector(b.size(), 0.0) : initial;
  Vector inv_diag;
  ftl::linalg::jacobi_preconditioner(a, inv_diag);
  const ftl::linalg::CgStatus status =
      ftl::linalg::pcg_solve(a, inv_diag, b, x, workspace, options);

  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(status.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(status.converged, want.converged);
  EXPECT_EQ(bits(got.relative_residual), bits(want.relative_residual));
  EXPECT_EQ(bits(status.relative_residual), bits(want.relative_residual));
  ASSERT_EQ(got.x.size(), want.x.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    if (bits(got.x[i]) != bits(want.x[i]) || bits(x[i]) != bits(want.x[i])) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "n=" << b.size();
}

TEST(Sparse, SumsDuplicatesAndDropsZeros) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);
  t.add(1, 1, 5.0);
  t.add(0, 1, 0.0);  // dropped
  t.add(1, 0, 3.0);
  t.add(1, 0, -3.0);  // cancels to zero -> dropped at build
  const SparseMatrix m(t);
  EXPECT_EQ(m.nonzeros(), 2u);
  const Vector y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 5.0);
}

TEST(Sparse, DiagonalExtraction) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 2, 9.0);
  t.add(2, 2, 4.0);
  const Vector d = SparseMatrix(t).diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 4.0);
}

TEST(Sparse, OutOfRangeTripletThrows) {
  TripletList t(2, 2);
  EXPECT_THROW(t.add(2, 0, 1.0), ftl::ContractViolation);
}

TEST(Cg, SolvesDiagonalSystemInstantly) {
  TripletList t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 4.0);
  t.add(2, 2, 8.0);
  const auto r = conjugate_gradient(SparseMatrix(t), {2.0, 4.0, 8.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-10);
  EXPECT_NEAR(r.x[1], 1.0, 1e-10);
  EXPECT_NEAR(r.x[2], 1.0, 1e-10);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  TripletList t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  const auto r = conjugate_gradient(SparseMatrix(t), {0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
}

class CgVsLu : public ::testing::TestWithParam<int> {};

TEST_P(CgVsLu, AgreesOnRandomSpdSystems) {
  const int n = GetParam();
  std::mt19937 rng(static_cast<unsigned>(n) * 13 + 1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);

  // SPD by construction: A = B^T B + n I.
  Matrix b(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r)
    for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) b(r, c) = dist(rng);
  Matrix a = b.gram();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) a(i, i) += n;

  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r)
    for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) t.add(r, c, a(r, c));

  Vector rhs(static_cast<std::size_t>(n));
  for (double& v : rhs) v = dist(rng);

  const auto cg = conjugate_gradient(SparseMatrix(t), rhs);
  const Vector lu = ftl::linalg::solve(a, rhs);
  ASSERT_TRUE(cg.converged);
  for (std::size_t i = 0; i < lu.size(); ++i) {
    EXPECT_NEAR(cg.x[i], lu[i], 1e-7) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgVsLu, ::testing::Values(2, 5, 10, 40, 100));

TEST(Cg, GridLaplacianDirichletProblem) {
  // 1-D chain of 50 unit conductances with the ends pinned at 0 and 1
  // (folded into the RHS): interior solution is linear in position.
  const int n = 49;  // interior nodes
  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Vector rhs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), 2.0);
    if (i > 0) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1), -1.0);
    if (i + 1 < n) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1), -1.0);
  }
  rhs[static_cast<std::size_t>(n - 1)] = 1.0;  // right boundary at 1 V
  const auto r = conjugate_gradient(SparseMatrix(t), rhs);
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(r.x[static_cast<std::size_t>(i)], (i + 1) / 50.0, 1e-8);
  }
}

TEST(Cg, WarmStartReducesIterations) {
  const int n = 60;
  TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  Vector rhs(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i), 2.1);
    if (i > 0) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i - 1), -1.0);
    if (i + 1 < n) t.add(static_cast<std::size_t>(i), static_cast<std::size_t>(i + 1), -1.0);
    rhs[static_cast<std::size_t>(i)] = 1.0;
  }
  const SparseMatrix a(t);
  const auto cold = conjugate_gradient(a, rhs);
  ASSERT_TRUE(cold.converged);
  const auto warm = conjugate_gradient(a, rhs, cold.x);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2);
}

// ---- fused kernel ≡ reference loop, bit for bit ---------------------------

TEST(CgFused, BitIdenticalOnRandomSpdSystems) {
  ftl::linalg::CgWorkspace workspace;
  for (const int n : {1, 2, 7, 40, 150}) {
    std::mt19937 rng(static_cast<unsigned>(n) * 7 + 3);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    // Sparse SPD: random symmetric off-diagonals, diagonally dominant.
    TripletList t(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    Vector diag(static_cast<std::size_t>(n), 1.0);
    for (int r = 0; r < n; ++r) {
      for (int c = r + 1; c < n; ++c) {
        if (dist(rng) < 0.6) continue;
        const double v = dist(rng);
        t.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c), v);
        t.add(static_cast<std::size_t>(c), static_cast<std::size_t>(r), v);
        diag[static_cast<std::size_t>(r)] += std::fabs(v);
        diag[static_cast<std::size_t>(c)] += std::fabs(v);
      }
    }
    for (int r = 0; r < n; ++r) {
      t.add(static_cast<std::size_t>(r), static_cast<std::size_t>(r),
            diag[static_cast<std::size_t>(r)] * (1.0 + 0.5 * (dist(rng) + 1.0)));
    }
    const SparseMatrix a(t);
    Vector b(static_cast<std::size_t>(n));
    Vector x0(static_cast<std::size_t>(n));
    for (double& v : b) v = dist(rng);
    for (double& v : x0) v = dist(rng);
    expect_bit_identical(a, b, {}, workspace);
    expect_bit_identical(a, b, x0, workspace);
    // Iteration cap hit before convergence: the give-up path matches too.
    expect_bit_identical(a, b, x0, workspace, {.max_iterations = 3});
  }
}

TEST(CgFused, BitIdenticalOnGridLaplacian) {
  // 2-D five-point Laplacian with a weak diagonal shift, the shape of the
  // TCAD blocks, at several right-hand sides (incl. zero).
  const int side = 20;
  const std::size_t n = static_cast<std::size_t>(side * side);
  TripletList t(n, n);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const std::size_t i = static_cast<std::size_t>(y * side + x);
      double d = 1e-6;
      if (x > 0) { t.add(i, i - 1, -1.0); d += 1.0; }
      if (x + 1 < side) { t.add(i, i + 1, -1.0); d += 1.0; }
      if (y > 0) { t.add(i, i - static_cast<std::size_t>(side), -1.0); d += 1.0; }
      if (y + 1 < side) { t.add(i, i + static_cast<std::size_t>(side), -1.0); d += 1.0; }
      t.add(i, i, d);
    }
  }
  const SparseMatrix a(t);
  ftl::linalg::CgWorkspace workspace;
  Vector b(n, 0.0);
  expect_bit_identical(a, b, {}, workspace);  // zero RHS
  for (std::size_t i = 0; i < n; ++i) b[i] = std::sin(0.37 * static_cast<double>(i));
  expect_bit_identical(a, b, {}, workspace);
}

TEST(CgFused, BitIdenticalOnWarmStartedTcadBlocks) {
  // The two block shapes of tcad::NetworkSolver on the paper mesh: the
  // gated u-block (unit edges, unit interface diagonal, 1e-18 shift) and a
  // conductor V-block (electrode edges plus a moving interface
  // conductance). Each is solved along a warm-started chain of right-hand
  // sides, as the block iteration does, one workspace for both sizes.
  using namespace ftl::tcad;
  const DeviceMesh mesh =
      build_mesh(make_device(DeviceShape::kSquare, GateDielectric::kHfO2), 48);
  const int side = mesh.cells_per_side;
  const auto region = [&](int i) { return mesh.region[static_cast<std::size_t>(i)]; };
  std::vector<int> gated(static_cast<std::size_t>(mesh.cell_count()), -1);
  std::vector<int> cond(static_cast<std::size_t>(mesh.cell_count()), -1);
  std::size_t n_gated = 0;
  std::size_t n_cond = 0;
  for (int i = 0; i < mesh.cell_count(); ++i) {
    if (region(i) == Region::kGated) gated[static_cast<std::size_t>(i)] = static_cast<int>(n_gated++);
    if (region(i) == Region::kConductor) cond[static_cast<std::size_t>(i)] = static_cast<int>(n_cond++);
  }
  ASSERT_GT(n_gated, 300u);
  ASSERT_GT(n_cond, 300u);

  const auto build = [&](double interface_g, double electrode_g) {
    TripletList ut(n_gated, n_gated);
    TripletList vt(n_cond, n_cond);
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) {
        const int i = mesh.index(x, y);
        if (region(i) == Region::kOutside) continue;
        for (const int j : {x + 1 < side ? mesh.index(x + 1, y) : -1,
                            y + 1 < side ? mesh.index(x, y + 1) : -1}) {
          if (j < 0 || region(j) == Region::kOutside) continue;
          const int ga = gated[static_cast<std::size_t>(i)];
          const int gb = gated[static_cast<std::size_t>(j)];
          const int ca = cond[static_cast<std::size_t>(i)];
          const int cb = cond[static_cast<std::size_t>(j)];
          if (ga >= 0 && gb >= 0) {
            ut.add(static_cast<std::size_t>(ga), static_cast<std::size_t>(ga), 1.0);
            ut.add(static_cast<std::size_t>(gb), static_cast<std::size_t>(gb), 1.0);
            ut.add(static_cast<std::size_t>(ga), static_cast<std::size_t>(gb), -1.0);
            ut.add(static_cast<std::size_t>(gb), static_cast<std::size_t>(ga), -1.0);
          } else if (ca >= 0 && cb >= 0) {
            vt.add(static_cast<std::size_t>(ca), static_cast<std::size_t>(ca), electrode_g);
            vt.add(static_cast<std::size_t>(cb), static_cast<std::size_t>(cb), electrode_g);
            vt.add(static_cast<std::size_t>(ca), static_cast<std::size_t>(cb), -electrode_g);
            vt.add(static_cast<std::size_t>(cb), static_cast<std::size_t>(ca), -electrode_g);
          } else {
            const int g = ga >= 0 ? ga : gb;
            const int c = ca >= 0 ? ca : cb;
            ut.add(static_cast<std::size_t>(g), static_cast<std::size_t>(g), 1.0);
            vt.add(static_cast<std::size_t>(c), static_cast<std::size_t>(c), interface_g);
          }
        }
      }
    }
    for (std::size_t k = 0; k < n_gated; ++k) ut.add(k, k, 1e-18);
    for (std::size_t k = 0; k < n_cond; ++k) vt.add(k, k, 1e-18 + (k % 97 == 0 ? 1.0 : 0.0));
    return std::make_pair(SparseMatrix(ut),
                          SparseMatrix(vt, SparseMatrix::ZeroPolicy::kKeep));
  };

  ftl::linalg::CgWorkspace workspace;
  Vector u;
  Vector v;
  for (int pass = 0; pass < 6; ++pass) {
    const auto [ua, va] = build(2e-4 * (1.0 + 0.3 * pass), 5e-3);
    Vector ub(n_gated);
    Vector vb(n_cond);
    for (std::size_t k = 0; k < n_gated; ++k) {
      ub[k] = std::cos(0.01 * static_cast<double>(k) + 0.2 * pass) * 1e-5;
    }
    for (std::size_t k = 0; k < n_cond; ++k) {
      vb[k] = std::sin(0.02 * static_cast<double>(k) - 0.1 * pass) * 1e-6;
    }
    expect_bit_identical(ua, ub, u, workspace);
    expect_bit_identical(va, vb, v, workspace);
    u = reference_pcg(ua, ub, u).x;  // next pass warm-starts from here
    v = reference_pcg(va, vb, v).x;
  }
}

}  // namespace

// Tests for the thermal influence operator: dense matvec semantics, batched
// construction equivalence against the seed per-column cold-start builds on
// both backends, reciprocity on symmetric floorplans, and failure reporting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/influence.hpp"
#include "floorplan/generators.hpp"

namespace ptherm::core {
namespace {

using device::Technology;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan grid_plan(int n) {
  Rng rng(7);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_uniform_grid(tech(), die_1mm(), n, n, cfg, rng);
}

TEST(Influence, ApplyMatchesManualMatvec) {
  numerics::Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = 1.0 + 3.0 * i + j;
  }
  const InfluenceOperator op(m);
  const std::vector<double> p = {1.0, -2.0, 0.5};
  const auto rises = op.apply(p);
  for (std::size_t i = 0; i < 3; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 3; ++j) expect += m(i, j) * p[j];
    EXPECT_DOUBLE_EQ(rises[i], expect);
    EXPECT_DOUBLE_EQ(op.at(i, 0), m(i, 0));
  }
}

TEST(Influence, AddUniformShiftsEveryEntry) {
  numerics::Matrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 2.0;
  InfluenceOperator op(m);
  op.add_uniform(0.5);
  EXPECT_DOUBLE_EQ(op.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(op.at(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(op.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(op.at(1, 1), 2.5);
}

TEST(Influence, RejectsBadShapesAndSizes) {
  EXPECT_THROW(InfluenceOperator(numerics::Matrix(2, 3)), PreconditionError);
  const InfluenceOperator op(numerics::Matrix(2, 2));
  EXPECT_THROW((void)op.at(2, 0), PreconditionError);
  // Both apply overloads enforce the documented size contract themselves
  // (mismatches used to be out-of-bounds UB waiting on the matvec).
  std::vector<double> p3(3, 0.0);
  EXPECT_THROW((void)op.apply(p3), PreconditionError);
  std::vector<double> p2(2, 0.0);
  std::vector<double> out3(3, 0.0);
  std::vector<double> out2(2, 0.0);
  EXPECT_THROW(op.apply(p3, out2), PreconditionError);
  EXPECT_THROW(op.apply(p2, out3), PreconditionError);
  EXPECT_NO_THROW(op.apply(p2, out2));
}

TEST(Influence, AnalyticBatchedMatchesSeedPerColumnBuild) {
  const auto fp = grid_plan(4);
  const auto samples = block_centre_samples(fp);
  auto sources = fp.heat_sources(tech());
  const thermal::ImageOptions opts;
  const InfluenceOperator batched(
      thermal::analytic_influence_columns(fp.die(), sources, samples, opts));

  // Seed semantics: one model holding every source, powers toggled per
  // column, every image (including the zero-power ones) swept per sample.
  for (auto& s : sources) s.power = 0.0;
  thermal::ChipThermalModel model(fp.die(), sources, opts);
  const std::size_t n = sources.size();
  ASSERT_EQ(batched.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    model.set_source_power(j, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double seed = model.rise(samples[i].x, samples[i].y);
      EXPECT_NEAR(batched.at(i, j), seed, 1e-12 * seed) << "entry (" << i << ", " << j << ")";
    }
    model.set_source_power(j, 0.0);
  }
}

TEST(Influence, FdmBatchedWarmStartMatchesSeedColdJacobiBuild) {
  const auto fp = grid_plan(4);
  const auto samples = block_centre_samples(fp);
  const auto sources = fp.heat_sources(tech());

  thermal::FdmOptions fast;  // IC(0)-preconditioned by default
  fast.nx = 24;
  fast.ny = 24;
  fast.nz = 12;
  const thermal::FdmThermalSolver solver_ic(fp.die(), fast);
  thermal::BackendCostStats stats;
  const InfluenceOperator batched(
      thermal::fdm_influence_columns(solver_ic, sources, samples, true, &stats));

  thermal::FdmOptions seed_opts = fast;
  seed_opts.cg.preconditioner = numerics::CgPreconditioner::Jacobi;
  const thermal::FdmThermalSolver solver_jacobi(fp.die(), seed_opts);
  const InfluenceOperator reference(
      thermal::fdm_influence_columns(solver_jacobi, sources, samples, false));

  const std::size_t n = sources.size();
  ASSERT_EQ(batched.size(), n);
  EXPECT_EQ(stats.influence_columns, static_cast<int>(n));
  EXPECT_GT(stats.cg_iterations, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(batched.at(i, j), reference.at(i, j), 1e-10 * reference.at(j, j))
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(Influence, ReciprocityOnSymmetricFloorplanAnalytic) {
  // Identical block footprints + an even kernel make R[i][j] = R[j][i] exact
  // for the analytic build (down to floating-point noise).
  const auto fp = grid_plan(3);
  const InfluenceOperator op(thermal::analytic_influence_columns(
      fp.die(), fp.heat_sources(tech()), block_centre_samples(fp), {}));
  for (std::size_t i = 0; i < op.size(); ++i) {
    for (std::size_t j = i + 1; j < op.size(); ++j) {
      EXPECT_NEAR(op.at(i, j), op.at(j, i), 1e-9 * op.at(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Influence, ReciprocityOnSymmetricFloorplanFdm) {
  // The FDM build samples by bilinear interpolation rather than the adjoint
  // functional, so reciprocity holds only to discretization accuracy.
  const auto fp = grid_plan(3);
  thermal::FdmOptions opts;
  opts.nx = 24;
  opts.ny = 24;
  opts.nz = 12;
  const thermal::FdmThermalSolver solver(fp.die(), opts);
  const InfluenceOperator op(thermal::fdm_influence_columns(
      solver, fp.heat_sources(tech()), block_centre_samples(fp), true));
  for (std::size_t i = 0; i < op.size(); ++i) {
    for (std::size_t j = i + 1; j < op.size(); ++j) {
      EXPECT_NEAR(op.at(i, j), op.at(j, i), 0.02 * op.at(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Influence, FdmBuildReportsWhyAColumnFailed) {
  const auto fp = grid_plan(2);
  thermal::FdmOptions opts;
  opts.nx = 16;
  opts.ny = 16;
  opts.nz = 8;
  opts.cg.max_iterations = 1;  // no solve can finish in one iteration
  const thermal::FdmThermalSolver solver(fp.die(), opts);
  try {
    (void)thermal::fdm_influence_columns(solver, fp.heat_sources(tech()),
                                         block_centre_samples(fp), true);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("column 0"), std::string::npos) << what;
    EXPECT_NE(what.find("iteration limit"), std::string::npos) << what;
    EXPECT_NE(what.find("residual"), std::string::npos) << what;
  }
}

TEST(Influence, BuildersRejectMismatchedSamples) {
  const auto fp = grid_plan(2);
  const auto sources = fp.heat_sources(tech());
  const std::vector<InfluenceSample> too_few = {{0.5e-3, 0.5e-3}};
  EXPECT_THROW((void)thermal::analytic_influence_columns(fp.die(), sources, too_few, {}),
               PreconditionError);
  const thermal::FdmThermalSolver solver(fp.die(), {});
  EXPECT_THROW((void)thermal::fdm_influence_columns(solver, sources, too_few, true),
               PreconditionError);
}

}  // namespace
}  // namespace ptherm::core
